"""Wire protocol: framing edge cases and lossless value codecs."""

import asyncio
import json
import math
import socket
import struct
import threading

import pytest

from repro.core.cycles import Cycle
from repro.core.expansion import ExpansionResult
from repro.core.features import CycleFeatures
from repro.errors import WireProtocolError
from repro.retrieval.engine import SearchResult
from repro.retrieval.qlang import BandNode, CombineNode, PhraseNode, TermNode
from repro.service import wire


def run(coro):
    return asyncio.run(coro)


async def _read_chunks(chunks, *, eof=True, max_frame_bytes=wire.MAX_FRAME_BYTES):
    reader = asyncio.StreamReader()
    for chunk in chunks:
        reader.feed_data(chunk)
    if eof:
        reader.feed_eof()
    return await wire.read_frame(reader, max_frame_bytes=max_frame_bytes)


class TestFraming:
    def test_round_trip_in_one_chunk(self):
        payload = {"call": "hello", "protocol": 1}
        assert run(_read_chunks([wire.encode_frame(payload)])) == payload

    def test_partial_reads_across_segment_boundaries(self):
        """A frame arriving one byte at a time (worst-case TCP
        segmentation) decodes identically."""
        payload = {"call": "expand_seeds", "seeds": list(range(50))}
        frame = wire.encode_frame(payload)
        # Split inside the length prefix AND inside the body.
        for cuts in ([2], [1, 3, 7], list(range(1, len(frame)))):
            chunks, last = [], 0
            for cut in cuts:
                chunks.append(frame[last:cut])
                last = cut
            chunks.append(frame[last:])
            assert run(_read_chunks(chunks)) == payload

    def test_two_frames_back_to_back(self):
        async def read_two():
            reader = asyncio.StreamReader()
            reader.feed_data(
                wire.encode_frame({"n": 1}) + wire.encode_frame({"n": 2})
            )
            reader.feed_eof()
            first = await wire.read_frame(reader)
            second = await wire.read_frame(reader)
            third = await wire.read_frame(reader)
            return first, second, third

        assert run(read_two()) == ({"n": 1}, {"n": 2}, None)

    def test_clean_eof_returns_none(self):
        assert run(_read_chunks([])) is None

    def test_eof_mid_prefix_raises(self):
        with pytest.raises(WireProtocolError, match="mid-length-prefix"):
            run(_read_chunks([b"\x00\x00"]))

    def test_eof_mid_body_raises(self):
        frame = wire.encode_frame({"call": "hello"})
        with pytest.raises(WireProtocolError, match="mid-frame"):
            run(_read_chunks([frame[:-3]]))

    def test_oversized_frame_rejected_before_body_is_read(self):
        """A corrupt length prefix must fail fast: only the prefix is
        fed, so passing proves the limit check precedes the body read."""
        prefix = struct.pack("!I", 1 << 30)
        with pytest.raises(WireProtocolError, match="exceeds"):
            run(_read_chunks([prefix], eof=False, max_frame_bytes=1024))

    def test_exactly_max_frame_bytes_is_accepted(self):
        payload = {"pad": "x" * 100}
        frame = wire.encode_frame(payload)
        limit = len(frame) - wire._LENGTH.size
        assert run(_read_chunks([frame], max_frame_bytes=limit)) == payload
        with pytest.raises(WireProtocolError, match="exceeds"):
            run(_read_chunks([frame], max_frame_bytes=limit - 1))

    def test_non_json_body_raises(self):
        body = b"\xffgarbage\xfe"
        frame = struct.pack("!I", len(body)) + body
        with pytest.raises(WireProtocolError, match="not valid JSON"):
            run(_read_chunks([frame]))

    def test_non_object_body_raises(self):
        body = json.dumps([1, 2, 3]).encode()
        frame = struct.pack("!I", len(body)) + body
        with pytest.raises(WireProtocolError, match="JSON object"):
            run(_read_chunks([frame]))


    def test_body_reader_returns_the_raw_bytes_read_frame_decodes(self):
        """``read_frame`` = ``read_frame_body`` + ``decode_frame_body``;
        the split is what lets the adapter label a span with bytes_in."""
        payload = {"not_modified": True, "cached": True, "etag": "ab12:7"}
        frame = wire.encode_frame(payload)

        async def read_bodies():
            reader = asyncio.StreamReader()
            reader.feed_data(frame + frame[:2])
            reader.feed_eof()
            first = await wire.read_frame_body(reader)
            with pytest.raises(WireProtocolError, match="mid-length-prefix"):
                await wire.read_frame_body(reader)
            return first

        body = run(read_bodies())
        assert len(body) + wire.FRAME_PREFIX_BYTES == len(frame)
        assert wire.decode_frame_body(body) == payload
        assert run(_read_chunks([])) is None


class TestSyncFraming:
    """recv_frame/send_frame — the supervisor's blocking ping path."""

    def test_round_trip_over_socketpair(self):
        left, right = socket.socketpair()
        try:
            wire.send_frame(left, {"call": "hello", "protocol": 1})
            assert wire.recv_frame(right) == {"call": "hello", "protocol": 1}
        finally:
            left.close()
            right.close()

    def test_chunked_send_reassembles(self):
        frame = wire.encode_frame({"chunked": True, "pad": "y" * 500})
        left, right = socket.socketpair()

        def drip():
            for i in range(0, len(frame), 7):
                left.sendall(frame[i:i + 7])
            left.close()

        thread = threading.Thread(target=drip)
        thread.start()
        try:
            assert wire.recv_frame(right) == {"chunked": True, "pad": "y" * 500}
        finally:
            thread.join(timeout=10)
            right.close()

    def test_clean_close_returns_none_and_torn_frame_raises(self):
        left, right = socket.socketpair()
        left.close()
        try:
            assert wire.recv_frame(right) is None
        finally:
            right.close()

        left, right = socket.socketpair()
        frame = wire.encode_frame({"call": "hello"})
        left.sendall(frame[: len(frame) // 2])
        left.close()
        try:
            with pytest.raises(WireProtocolError, match="mid-frame"):
                wire.recv_frame(right)
        finally:
            right.close()


def _json_round_trip(payload):
    """Exactly what the wire does to a value: JSON out, JSON back."""
    return json.loads(json.dumps(payload))


class TestValueCodecs:
    def test_background_floats_round_trip_bit_exactly(self):
        """float.hex carries every IEEE double losslessly — including
        values whose decimal repr would not survive a naive encoder."""
        values = [
            0.1, 1.0 / 3.0, math.pi, 5e-324, 1.7976931348623157e308,
            6.02e23, 1e-15 + 1e-30, 0.0,
        ]
        background = {
            TermNode(f"t{i}"): value for i, value in enumerate(values)
        }
        decoded = wire.decode_background(
            _json_round_trip(wire.encode_background(background))
        )
        assert decoded == background
        for leaf, value in background.items():
            # == would pass for close floats; require the exact bits.
            assert decoded[leaf].hex() == value.hex()

    def test_query_ast_round_trip(self):
        root = CombineNode((
            BandNode((TermNode("alpha"), PhraseNode(("beta", "gamma")))),
            TermNode("delta"),
        ))
        assert wire.decode_query(_json_round_trip(wire.encode_query(root))) == root

    def test_search_request_encodes_once_and_matches_the_inline_form(self):
        """The shared payload is what each adapter used to build per
        shard — same fields, same frame bytes — and is built once."""
        root = CombineNode((PhraseNode(("grand", "canal")), TermNode("venice")))
        background = {PhraseNode(("grand", "canal")): 0.1 + 0.2,
                      TermNode("venice"): 5e-324}
        request = wire.SearchRequest(root, background, 7)
        payload = request.wire_payload()
        assert payload == {
            "root": wire.encode_query(root),
            "background": wire.encode_background(background),
            "top_k": 7,
        }
        assert request.wire_payload() is payload
        assert (request.root, request.background, request.top_k) == \
            (root, background, 7)
        frame = {"call": "search_with_background",
                 "protocol": wire.SHARD_PROTOCOL_VERSION}
        assert wire.encode_frame({**frame, **payload}) == wire.encode_frame({
            **frame,
            "root": wire.encode_query(root),
            "background": wire.encode_background(background),
            "top_k": 7,
        })

    def test_search_requests_equal_by_value_hash_equal(self):
        """The in-flight table of the async router keys rank calls on the
        request: equal requests built apart must find each other."""
        def build(top_k):
            root = CombineNode((PhraseNode(("grand", "canal")), TermNode("venice")))
            background = {PhraseNode(("grand", "canal")): 0.1 + 0.2,
                          TermNode("venice"): 5e-324}
            return wire.SearchRequest(root, background, top_k)

        one, other = build(7), build(7)
        assert one is not other and one.root is not other.root
        assert one == other and hash(one) == hash(other)
        assert {one: "sent"}[other] == "sent"
        assert build(8) != one and build(8) not in {one}

    def test_conditional_expand_fields_survive_the_frame(self):
        """``have`` / ``etag`` / ``not_modified`` are plain JSON scalars
        beside the existing fields; a body-less response still frames."""
        expansion = ExpansionResult(
            seed_articles=frozenset({3}), article_ids=frozenset({4}),
            titles=("four",),
        )
        request = {"call": "expand_seeds", "protocol": 3, "seeds": [3],
                   "have": "0a1b2c3d4e5f:12"}
        full = {"expansion": wire.encode_expansion(expansion),
                "cached": False, "etag": "0a1b2c3d4e5f:13"}
        short = {"not_modified": True, "cached": True,
                 "etag": "0a1b2c3d4e5f:12"}
        for payload in (request, full, short):
            assert run(_read_chunks([wire.encode_frame(payload)])) == payload
        assert wire.decode_expansion(
            _json_round_trip(full)["expansion"]
        ) == expansion
        assert len(wire.encode_frame(short)) < len(wire.encode_frame(full))

    def test_query_decode_rejects_malformed(self):
        for payload in ({}, {"term": "x", "extra": 1}, {"nope": []}, "term"):
            with pytest.raises(WireProtocolError):
                wire.decode_query(payload)

    def test_counts_round_trip(self):
        counts = {TermNode("a"): 3, PhraseNode(("b", "c")): 0}
        assert wire.decode_counts(
            _json_round_trip(wire.encode_counts(counts))
        ) == counts

    def test_results_round_trip(self):
        results = [
            SearchResult(doc_id="d1", score=1.2345678901234567, rank=1),
            SearchResult(doc_id="d2", score=-0.0001, rank=2),
        ]
        decoded = wire.decode_results(
            _json_round_trip(wire.encode_results(results))
        )
        assert decoded == results
        # Python's JSON writer emits repr-exact decimals, so plain
        # number scores also round-trip bit-exactly.
        assert [r.score.hex() for r in decoded] == \
               [r.score.hex() for r in results]

    def test_expansion_round_trip(self):
        expansion = ExpansionResult(
            seed_articles=frozenset({1}),
            article_ids=frozenset({1, 2, 3}),
            titles=("one", "two", "three"),
            cycles=(
                CycleFeatures(
                    cycle=Cycle((1, 10, 2, 11)),
                    num_articles=2, num_categories=2,
                    num_edges=4, max_possible_edges=4,
                ),
            ),
        )
        assert wire.decode_expansion(
            _json_round_trip(wire.encode_expansion(expansion))
        ) == expansion

    def test_malformed_payloads_raise_wire_errors(self):
        with pytest.raises(WireProtocolError):
            wire.decode_expansion({"seeds": [1]})
        with pytest.raises(WireProtocolError):
            wire.decode_counts([["not-a-node", 1]])
        with pytest.raises(WireProtocolError):
            wire.decode_background([[{"term": "a"}, "not-hex"]])
        with pytest.raises(WireProtocolError):
            wire.decode_results([{"doc_id": "d"}])
