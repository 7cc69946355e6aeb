"""Shard wire protocol: length-prefixed JSON frames and value codecs.

This module is the concrete realisation of ``docs/shard_protocol.md``:
the frame format the router and a :mod:`repro.service.shard_worker`
process exchange, plus the JSON codecs for every protocol value (query
ASTs, background models, expansion results, ranked lists).  Both sides
import the same functions, so an encoding change cannot drift between
them.

Frame format (version 1)::

    +----------------------+----------------------------------+
    | length: u32 big-end. | body: UTF-8 JSON, `length` bytes |
    +----------------------+----------------------------------+

A frame longer than the receiver's ``max_frame_bytes`` is rejected with
:class:`~repro.errors.WireProtocolError` *before* the body is read, so
a corrupt length prefix cannot make a peer buffer gigabytes.  Truncated
frames (EOF mid-body) and bodies that are not a JSON object raise the
same error — the socket adapter treats it as a transport failure and
retries on a fresh connection.

Float fidelity: background-model probabilities cross the wire as
``float.hex`` strings and are decoded with ``float.fromhex``, so every
IEEE double round-trips bit-exactly.  Scores inside ranked lists ride
plain JSON numbers — Python's JSON writer emits ``repr``-exact decimal
forms, which also round-trip exactly (the HTTP layer has relied on this
since the latency bench started asserting bit-identity over the wire).
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct

from repro.core.cycles import Cycle
from repro.core.expansion import ExpansionResult
from repro.core.features import CycleFeatures
from repro.errors import WireProtocolError, WorkerCallError
from repro.retrieval.engine import SearchResult
from repro.retrieval.qlang import (
    BandNode,
    CombineNode,
    PhraseNode,
    QueryNode,
    TermNode,
)

__all__ = [
    "SHARD_PROTOCOL_VERSION",
    "CALLS",
    "MAX_FRAME_BYTES",
    "FRAME_PREFIX_BYTES",
    "EXPANSION_ETAG_ENTRIES",
    "SearchRequest",
    "encode_frame",
    "encode_call",
    "read_frame",
    "read_frame_body",
    "decode_frame_body",
    "write_frame",
    "recv_frame",
    "send_frame",
    "check_hello",
    "blocking_call",
    "encode_expansion",
    "decode_expansion",
    "encode_query",
    "decode_query",
    "encode_counts",
    "decode_counts",
    "encode_background",
    "decode_background",
    "encode_results",
    "decode_results",
]

# Version of the shard protocol; carried in every request frame and
# negotiated in the connection handshake.  Bumped together with
# docs/shard_protocol.md.  Version 2 added the ``apply_delta`` admin
# call (live updates, docs/live_updates.md); version 3 the conditional
# ``expand_seeds`` fetch (``have`` / ``etag`` / ``not_modified``).
# Version 4 removed ``link_text``, version 5 the batch pre-fill call.
SHARD_PROTOCOL_VERSION = 5

# The calls a worker answers after the ``hello`` handshake.
CALLS = (
    "expand_seeds",
    "leaf_collection_counts",
    "search_with_background",
    "apply_delta",
)

# Default bound on one frame.  The largest legitimate frames are ranked
# lists and expansion results over the benchmark-scale graph — well
# under a megabyte; 8 MiB leaves room for bigger snapshots while still
# rejecting a garbled length prefix immediately.
MAX_FRAME_BYTES = 8 << 20

# Bound on both ends of the conditional ``expand_seeds`` fetch: the
# worker's ``seeds -> (etag, result)`` table and the adapter's
# ``seeds -> (etag, decoded result)`` memo.  One constant because a
# token only helps while *both* sides still hold its entry; a decoded
# 131-cycle expansion is about 40 kB, so 256 of them stay near 10 MB.
EXPANSION_ETAG_ENTRIES = 256

_LENGTH = struct.Struct("!I")
FRAME_PREFIX_BYTES = _LENGTH.size


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------

def encode_frame(payload: dict) -> bytes:
    """One wire frame: u32 big-endian length + UTF-8 JSON body."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > 0xFFFFFFFF:
        raise WireProtocolError(f"frame body of {len(body)} bytes overflows u32")
    return _LENGTH.pack(len(body)) + body


def encode_call(call: str, payload: dict, trace_id: str | None) -> bytes:
    """One call's request frame: ``call`` and ``protocol``, the call's own
    fields, then the router's trace id when the request is traced."""
    request = {"call": call, "protocol": SHARD_PROTOCOL_VERSION, **payload}
    if trace_id is not None:
        request["trace_id"] = trace_id
    return encode_frame(request)


def decode_frame_body(body: bytes) -> dict:
    """The JSON object inside one frame body (see :func:`read_frame_body`)."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireProtocolError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise WireProtocolError(
            f"frame body must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _check_length(length: int, max_frame_bytes: int) -> None:
    if length > max_frame_bytes:
        raise WireProtocolError(
            f"frame of {length} bytes exceeds the {max_frame_bytes}-byte limit"
        )


async def read_frame(
    reader: asyncio.StreamReader, *, max_frame_bytes: int = MAX_FRAME_BYTES
) -> dict | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    EOF *inside* a frame (mid-prefix or mid-body) raises
    :class:`WireProtocolError` — the peer died or short-wrote.
    """
    body = await read_frame_body(reader, max_frame_bytes=max_frame_bytes)
    return None if body is None else decode_frame_body(body)


async def read_frame_body(
    reader: asyncio.StreamReader, *, max_frame_bytes: int = MAX_FRAME_BYTES
) -> bytes | None:
    """:func:`read_frame` up to, not including, the JSON decode — for a
    caller that also wants the frame's size (the ``wire`` span)."""
    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise WireProtocolError(
            f"connection closed mid-length-prefix ({len(exc.partial)}/4 bytes)"
        ) from exc
    (length,) = _LENGTH.unpack(prefix)
    _check_length(length, max_frame_bytes)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise WireProtocolError(
            f"connection closed mid-frame ({len(exc.partial)}/{length} bytes)"
        ) from exc
    return body


async def write_frame(writer: asyncio.StreamWriter, payload: dict) -> None:
    writer.write(encode_frame(payload))
    await writer.drain()


def recv_frame(
    sock: socket.socket, *, max_frame_bytes: int = MAX_FRAME_BYTES
) -> dict | None:
    """Blocking counterpart of :func:`read_frame` (:func:`blocking_call`)."""

    def read_exactly(n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining:
            chunk = sock.recv(remaining)
            if not chunk:
                raise WireProtocolError(
                    f"connection closed mid-frame ({n - remaining}/{n} bytes)"
                )
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    first = sock.recv(_LENGTH.size)
    if not first:
        return None
    prefix = first + (read_exactly(_LENGTH.size - len(first)) if len(first) < _LENGTH.size else b"")
    (length,) = _LENGTH.unpack(prefix)
    _check_length(length, max_frame_bytes)
    return decode_frame_body(read_exactly(length))


def send_frame(sock: socket.socket, payload: dict) -> None:
    sock.sendall(encode_frame(payload))


def check_hello(hello: dict | None, shard_id: int | None = None) -> dict:
    """A worker's ``hello`` reply if it accepts this protocol version;
    :class:`WireProtocolError` if it hung up, :class:`WorkerCallError`
    if it refused or speaks another version."""
    if hello is None:
        raise WireProtocolError(
            f"shard {shard_id}: connection closed during handshake"
        )
    error = hello.get("error")
    if error is not None:
        raise WorkerCallError(
            shard_id, str(error.get("type")), str(error.get("message"))
        )
    if hello.get("protocol") != SHARD_PROTOCOL_VERSION:
        raise WorkerCallError(
            shard_id,
            "protocol_mismatch",
            f"worker speaks shard protocol {hello.get('protocol')!r}, "
            f"this adapter speaks {SHARD_PROTOCOL_VERSION}",
        )
    return hello


def blocking_call(
    address: tuple[str, int], frame: dict | None = None, *, timeout: float
) -> tuple[dict, dict | None]:
    """``(hello, response)`` of one short blocking connection to a worker.
    An error frame answering ``frame`` is returned; a failed transport
    raises ``OSError``, a failed handshake or a hang-up before the
    answer a :class:`~repro.errors.ServiceError`."""
    with socket.create_connection(address, timeout=timeout) as sock:
        send_frame(sock, {"call": "hello", "protocol": SHARD_PROTOCOL_VERSION})
        hello = check_hello(recv_frame(sock))
        if frame is None:
            return hello, None
        send_frame(sock, frame)
        response = recv_frame(sock)
    if response is None:
        raise WireProtocolError("connection closed before the response frame")
    return hello, response


# ----------------------------------------------------------------------
# Value codecs (docs/shard_protocol.md "Value encodings")
# ----------------------------------------------------------------------

def encode_expansion(expansion: ExpansionResult) -> dict:
    """One expansion as JSON: seeds, articles, titles and the cycles
    with their four counts."""
    return {
        "seeds": sorted(expansion.seed_articles),
        "articles": sorted(expansion.article_ids),
        "titles": list(expansion.titles),
        "cycles": [
            {
                "nodes": list(features.cycle.nodes),
                "counts": [
                    features.num_articles,
                    features.num_categories,
                    features.num_edges,
                    features.max_possible_edges,
                ],
            }
            for features in expansion.cycles
        ],
    }


def decode_expansion(payload: dict) -> ExpansionResult:
    try:
        return ExpansionResult(
            seed_articles=frozenset(int(a) for a in payload["seeds"]),
            article_ids=frozenset(int(a) for a in payload["articles"]),
            titles=tuple(str(t) for t in payload["titles"]),
            cycles=tuple(
                CycleFeatures(
                    cycle=Cycle(tuple(int(n) for n in item["nodes"])),
                    num_articles=int(item["counts"][0]),
                    num_categories=int(item["counts"][1]),
                    num_edges=int(item["counts"][2]),
                    max_possible_edges=int(item["counts"][3]),
                )
                for item in payload["cycles"]
            ),
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise WireProtocolError(f"malformed ExpansionResult payload: {exc}") from exc


def encode_query(node: QueryNode) -> dict:
    if isinstance(node, TermNode):
        return {"term": node.term}
    if isinstance(node, PhraseNode):
        return {"phrase": list(node.tokens)}
    if isinstance(node, CombineNode):
        return {"combine": [encode_query(child) for child in node.children]}
    if isinstance(node, BandNode):
        return {"band": [encode_query(child) for child in node.children]}
    raise WireProtocolError(f"unencodable query node: {type(node).__name__}")


def decode_query(payload: dict) -> QueryNode:
    if not isinstance(payload, dict) or len(payload) != 1:
        raise WireProtocolError(f"malformed query node: {payload!r}")
    kind, value = next(iter(payload.items()))
    try:
        if kind == "term":
            return TermNode(str(value))
        if kind == "phrase":
            return PhraseNode(tuple(str(t) for t in value))
        if kind == "combine":
            return CombineNode(tuple(decode_query(child) for child in value))
        if kind == "band":
            return BandNode(tuple(decode_query(child) for child in value))
    except (TypeError, ValueError) as exc:
        raise WireProtocolError(f"malformed query node: {exc}") from exc
    raise WireProtocolError(f"unknown query node kind: {kind!r}")


def encode_counts(counts: dict[QueryNode, int]) -> list:
    """Leaf-keyed integer counts as ``[[leaf, count], ...]`` pairs."""
    return [[encode_query(leaf), int(count)] for leaf, count in counts.items()]


def decode_counts(payload: list) -> dict[QueryNode, int]:
    try:
        return {decode_query(leaf): int(count) for leaf, count in payload}
    except (TypeError, ValueError) as exc:
        raise WireProtocolError(f"malformed counts payload: {exc}") from exc


def encode_background(background: dict[QueryNode, float]) -> list:
    """Leaf-keyed probabilities as ``[[leaf, float.hex], ...]`` pairs.

    ``float.hex`` is the lossless encoding the protocol page mandates:
    the router's global background model must reach every shard
    bit-exactly or cross-shard scores (and tie-breaks) silently drift.
    """
    return [
        [encode_query(leaf), float(probability).hex()]
        for leaf, probability in background.items()
    ]


def decode_background(payload: list) -> dict[QueryNode, float]:
    try:
        return {
            decode_query(leaf): float.fromhex(probability)
            for leaf, probability in payload
        }
    except (TypeError, ValueError) as exc:
        raise WireProtocolError(f"malformed background payload: {exc}") from exc


class SearchRequest:
    """The arguments of one ``search_with_background`` fan-out.

    Every shard is sent the same root, background and ``top_k`` under
    the same trace id, so the wire form — the whole frame — is built
    once, by whichever socket adapter asks first, and shared by the
    rest; in-process adapters never ask for it and never pay for it.
    """

    __slots__ = ("root", "background", "top_k", "_payload", "_frame")

    def __init__(
        self, root: QueryNode, background: dict[QueryNode, float], top_k: int
    ) -> None:
        self.root = root
        self.background = background
        self.top_k = top_k
        self._payload: dict | None = None
        self._frame: tuple[str | None, bytes] | None = None

    def __eq__(self, other) -> bool:
        """By value: a segment ranks equal requests to equal results."""
        if not isinstance(other, SearchRequest):
            return NotImplemented
        return (self.top_k, self.root, self.background) == (
            other.top_k, other.root, other.background
        )

    def __hash__(self) -> int:
        """Over ``top_k`` and the root: the background is a dict."""
        return hash((self.top_k, self.root))

    def wire_payload(self) -> dict:
        """The call's frame fields; callers must not mutate the result."""
        if self._payload is None:
            self._payload = {
                "root": encode_query(self.root),
                "background": encode_background(self.background),
                "top_k": int(self.top_k),
            }
        return self._payload

    def call_frame(self, trace_id: str | None) -> bytes:
        """The call's request frame (:func:`encode_call`), encoded once
        per trace id — i.e. once per fan-out."""
        if self._frame is None or self._frame[0] != trace_id:
            self._frame = trace_id, encode_call(
                "search_with_background", self.wire_payload(), trace_id
            )
        return self._frame[1]


def encode_results(results) -> list:
    return [
        {"doc_id": item.doc_id, "score": item.score, "rank": item.rank}
        for item in results
    ]


def decode_results(payload: list) -> list[SearchResult]:
    try:
        return [
            SearchResult(
                doc_id=str(item["doc_id"]),
                score=float(item["score"]),
                rank=int(item["rank"]),
            )
            for item in payload
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise WireProtocolError(f"malformed ranked-list payload: {exc}") from exc
