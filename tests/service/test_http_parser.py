"""The sans-IO request parser, alone and behind a real socket."""

import json
import socket
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service import (
    AsyncShardRouter, HttpFrontEnd, ShardRouter, ShardedSnapshot,
)
from repro.service import http as front_end
from repro.service.http import HEAD_LIMIT, MAX_HEADERS, HttpParser, Request
from test_http import ServerHandle

_FUZZ = settings(
    derandomize=True, database=None, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@pytest.fixture(scope="module")
def sharded_snapshot(snapshot) -> ShardedSnapshot:
    return ShardedSnapshot.from_snapshot(snapshot, num_shards=1)


@pytest.fixture()
def server(sharded_snapshot):
    handle = ServerHandle(HttpFrontEnd(
        AsyncShardRouter(ShardRouter(sharded_snapshot)), max_body_bytes=1024,
    ))
    yield handle
    handle.close()


def _exchange(port: int, data: bytes) -> bytes:
    """Send ``data``, then read until the server closes the connection."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(data)
        response = b""
        while chunk := sock.recv(4096):
            response += chunk
    return response


class TestProtocolErrorsOverASocket:
    @pytest.mark.parametrize("request_bytes, status", [
        (b"NOT-HTTP\r\n\r\n", 400),
        (b"POST /expand HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
        (b"POST /expand HTTP/1.1\r\nContent-Length: 2048\r\n\r\n"
         + b"x" * 2048, 413),
        (b"GET /" + b"a" * (70 * 1024) + b" HTTP/1.1\r\n\r\n", 400),
    ], ids=["request-line", "content-length", "body-over-limit",
            "request-line-over-head-limit"])
    def test_is_answered_once_closed_and_counted_once(
        self, server, request_bytes, status
    ):
        head, _, body = _exchange(server.port, request_bytes).partition(
            b"\r\n\r\n"
        )
        assert head.split(b"\r\n", 1)[0].split(b" ")[1] == str(status).encode()
        assert b"Connection: close" in head
        assert json.loads(body)["error"]["code"] in (
            "bad_request", "payload_too_large"
        )
        _, stats = server.request("GET", "/stats")
        assert stats["http"]["errors_by_status"] == {str(status): 1}


class TestOneDeadlinePerRequest:
    def test_a_dribbling_sender_is_cut_off_at_the_deadline(
        self, server, monkeypatch
    ):
        """Each header arrives well inside the deadline, but the request
        as a whole does not: the connection closes, unanswered."""
        monkeypatch.setattr(front_end, "READ_TIMEOUT_S", 0.5)
        received, closed_after = b"", None
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=30
        ) as sock:
            started = time.monotonic()
            sock.sendall(b"GET /healthz HTTP/1.1\r\n")
            sock.settimeout(0.3)
            for line in range(10):
                try:
                    chunk = sock.recv(4096)
                except TimeoutError:
                    chunk = None
                except ConnectionResetError:
                    chunk = b""
                if chunk == b"":
                    closed_after = time.monotonic() - started
                    break
                received += chunk or b""
                try:
                    sock.sendall(f"X-Dribble-{line}: v\r\n".encode())
                except OSError:
                    closed_after = time.monotonic() - started
                    break
            else:  # still open: finish the request and read the answer
                sock.settimeout(30)
                sock.sendall(b"\r\n")
                received += sock.recv(4096)
        assert not received.startswith(b"HTTP/1.1 200")
        assert closed_after is not None and closed_after < 1.5

    def test_an_idle_keep_alive_connection_has_no_deadline(
        self, server, monkeypatch
    ):
        monkeypatch.setattr(front_end, "READ_TIMEOUT_S", 0.2)
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=30
        ) as sock:
            for _ in range(2):
                sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
                response = b""
                while b"\r\n\r\n" not in response \
                        or not response.endswith(b"}"):
                    chunk = sock.recv(65536)
                    assert chunk, "the server closed an idle connection"
                    response += chunk
                assert response.startswith(b"HTTP/1.1 200"), response
                time.sleep(0.5)  # idle between requests, past the deadline


# -- the parser alone: fixed-seed, derandomized properties ----------------

_HEADS = [
    b"GET /healthz HTTP/1.1\r\n\r\n", b"GET / HTTP/1.0\nX-A: b\n\n",
    b"POST /expand HTTP/1.1\r\nContent-Length: 3\r\n\r\n",
    b"POST /expand HTTP/1.1\nContent-Length: 40\nConnection: close\n\n",
    b"POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
]
_FRAGMENTS = [
    b"GET ", b"/expand", b" HTTP/1.1", b"\r\n", b"\n", b"\r", b":",
    b"Content-Length: ", b"0", b"7", b"abc", b" ", b"a" * (HEAD_LIMIT - 100),
]
_STREAMS = st.lists(
    st.one_of(
        st.sampled_from(_HEADS), st.sampled_from(_FRAGMENTS),
        st.binary(max_size=12),
    ),
    max_size=24,
).map(b"".join)


def _chunks(data: bytes, cuts: list[int]) -> list[bytes]:
    bounds = [0, *sorted({cut % (len(data) + 1) for cut in cuts}), len(data)]
    return [data[a:b] for a, b in zip(bounds, bounds[1:])]


@settings(_FUZZ, max_examples=300)
@given(data=_STREAMS, cuts=st.lists(st.integers(0, 1 << 20), max_size=12))
def test_chunk_boundaries_never_change_the_events(data, cuts):
    whole = HttpParser(max_body_bytes=16).feed(data)
    parser, events = HttpParser(max_body_bytes=16), []
    for chunk in _chunks(data, cuts):
        events += parser.feed(chunk)
        assert len(parser._buf) < HEAD_LIMIT + len(chunk)
    assert events == whole


_TOKEN = st.text(
    "abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12
)
_VALUE = st.text(  # any latin-1 text but a line break
    st.characters(
        min_codepoint=0x20, max_codepoint=0xFF, exclude_characters="\r\n"
    ),
    max_size=20,
)


@st.composite
def _requests(draw) -> Request:
    names = draw(st.lists(
        _TOKEN.filter(lambda name: name != "content-length"),
        max_size=MAX_HEADERS - 1, unique=True,
    ))
    body = draw(st.binary(max_size=64))
    headers = {name: draw(_VALUE) for name in names}
    headers["content-length"] = str(len(body))
    path = "/" + draw(st.text("abcxyz/_?=&.", max_size=16))
    method = draw(st.sampled_from(["GET", "POST", "PUT", "DELETE"]))
    return Request(method, path, headers, body)


def _serialise(request: Request, newline: bytes) -> bytes:
    lines = [f"{request.method} {request.path} HTTP/1.1"] + [
        f"{name}: {value}" for name, value in request.headers.items()
    ]
    return newline.join(
        line.encode("latin-1") for line in lines
    ) + newline * 2 + request.body


@settings(_FUZZ, max_examples=150)
@given(
    requests=st.lists(_requests(), min_size=1, max_size=4),
    newline=st.sampled_from([b"\r\n", b"\n"]),
    cuts=st.lists(st.integers(0, 1 << 20), max_size=12),
)
def test_valid_requests_round_trip_through_chunked_feeds(
    requests, newline, cuts
):
    stream = b"".join(_serialise(request, newline) for request in requests)
    parser, events = HttpParser(max_body_bytes=64), []
    for chunk in _chunks(stream, cuts):
        events += parser.feed(chunk)
    expected = [
        Request(r.method, r.path, {k: v.strip() for k, v in r.headers.items()},
                r.body)
        for r in requests
    ]
    assert events == expected
    assert not parser.pending
