"""The inter-process wire codec: round trips and the picklability guard.

Every payload the process execution backend puts on a queue must
survive ``serving/wire.py`` encode/decode bit-for-bit; anything else is
rejected *at send time* with an error naming the offending type — never
silently coerced on the far side.
"""

from __future__ import annotations

import pytest

from repro.annotation.map import AnnotationMap
from repro.rdf import Literal, Q, URIRef, XSD
from repro.serving import wire


def _item(index: int) -> URIRef:
    return URIRef(f"urn:test:item:{index}")


def _rich_map() -> AnnotationMap:
    """A map exercising every term shape the codec must preserve."""
    amap = AnnotationMap([_item(1), _item(2), _item(3)])
    amap.set_evidence(_item(1), Q.HitRatio, Literal("0.25", datatype=XSD.double))
    amap.set_evidence(_item(1), Q.MassCoverage, 0.75)
    amap.set_evidence(_item(2), Q.HitRatio, None)
    amap.set_evidence(_item(2), Q.ELDP, 3)
    amap.set_evidence(_item(3), Q.MassCoverage, Literal("high", lang="en"))
    amap.set_tag(_item(1), "PIScore", 0.9, syn_type=XSD.double, sem_type=Q.PIScore)
    amap.set_tag(_item(3), "ScoreClass", URIRef(str(Q.high)))
    return amap


class TestMessageRoundTrip:
    """encode_message/decode_message over every message kind."""

    DOCUMENTS = [
        {"kind": "view", "fingerprint": "abc", "xml": "<qv/>",
         "processors": ["a", "b"], "shardable": ["a"]},
        {"kind": "chunk", "job": 7, "attempt": 1, "seq": 0,
         "fingerprint": "abc", "items": ["urn:test:item:1"]},
        {"kind": "clear"},
        {"kind": "stop"},
        {"kind": "ready", "shard": 3},
        {"kind": "part", "shard": 0, "job": 7, "attempt": 1, "seq": 0,
         "frontier": [["p", "annotationMap", {"kind": "null"}]],
         "cache_lookups": 4, "cache_hits": 2, "degraded": ["HR score"]},
        {"kind": "stat", "shard": 0, "job": 7, "seq": 0, "items": 8,
         "status": "completed", "stage_seconds": {"annotate": 0.25},
         "cache_lookups": 4, "cache_hits": 2},
        {"kind": "error", "shard": 1, "job": 7, "attempt": 2, "seq": 3,
         "processor": "annotate PMF evidence",
         "error": {"type": "RuntimeError", "message": "boom"}},
    ]

    @pytest.mark.parametrize(
        "document", DOCUMENTS, ids=[d["kind"] for d in DOCUMENTS]
    )
    def test_kind_round_trips(self, document):
        payload = wire.encode_message(document)
        assert isinstance(payload, bytes)
        assert wire.decode_message(payload) == document

    def test_every_kind_is_covered(self):
        assert {d["kind"] for d in self.DOCUMENTS} == set(wire.MESSAGE_KINDS)

    def test_unknown_kind_rejected(self):
        with pytest.raises(wire.WireError, match="unknown message kind"):
            wire.encode_message({"kind": "gossip"})

    def test_malformed_payload_rejected(self):
        with pytest.raises(wire.WireError, match="malformed"):
            wire.decode_message(b'{"job": 1}')


class TestWireGuard:
    """The strict type guard: failures name the offending type."""

    def test_uriref_value_names_the_type(self):
        # URIRef is a str subclass: it would serialize fine and decode
        # as plain str — exactly the silent corruption the guard exists
        # to catch, so the exact-type check must reject it by name.
        with pytest.raises(wire.WireError, match="URIRef"):
            wire.encode_message({"kind": "chunk", "items": [_item(1)]})

    def test_arbitrary_object_names_the_type(self):
        class Opaque:
            pass

        with pytest.raises(wire.WireError, match="Opaque"):
            wire.encode_message({"kind": "stat", "payload": Opaque()})

    def test_error_names_the_path(self):
        with pytest.raises(wire.WireError, match=r"message\.items\[1\]"):
            wire.encode_message(
                {"kind": "chunk", "items": ["ok", _item(2)]}
            )

    def test_non_string_key_rejected(self):
        with pytest.raises(wire.WireError, match="plain str"):
            wire.encode_message({"kind": "stat", 3: "x"})

    def test_annotation_map_must_use_value_codec(self):
        with pytest.raises(wire.WireError, match="AnnotationMap"):
            wire.encode_message({"kind": "part", "map": _rich_map()})


class TestTypedValueCodecs:
    """Lossless annotation-map / stage-value round trips."""

    def test_typed_map_round_trips_equal(self):
        amap = _rich_map()
        decoded = wire.decode_typed_map(wire.encode_typed_map(amap))
        assert decoded == amap

    def test_typed_map_preserves_order_and_types(self):
        amap = _rich_map()
        document = wire.encode_typed_map(amap)
        # The encoded document is itself wire-safe (nested in parts).
        wire.encode_message({"kind": "part", "frontier": [
            ["p", "annotationMap", {"kind": "annotationMap", "map": document}]
        ]})
        decoded = wire.decode_typed_map(document)
        assert list(decoded.items()) == list(amap.items())
        evidence = decoded.evidence_for(_item(1))
        assert list(evidence) == list(amap.evidence_for(_item(1)))
        lexical = evidence[Q.HitRatio]
        assert isinstance(lexical, Literal)
        assert lexical.lexical == "0.25"
        assert lexical.datatype == XSD.double
        assert isinstance(evidence[Q.MassCoverage], float)
        assert decoded.evidence_for(_item(2))[Q.HitRatio] is None
        lang = decoded.evidence_for(_item(3))[Q.MassCoverage]
        assert lang.lang == "en"
        tag = decoded.get_tag(_item(1), "PIScore")
        assert tag.value == 0.9
        assert tag.syn_type == XSD.double
        assert tag.sem_type == Q.PIScore

    def test_stage_value_round_trips(self):
        amap = _rich_map()
        for value in (None, amap, [str(_item(1)), str(_item(2))]):
            document = wire.encode_stage_value(value)
            decoded = wire.decode_stage_value(document)
            if value is None:
                assert decoded is None
            elif isinstance(value, AnnotationMap):
                assert decoded == value
            else:
                assert decoded == [URIRef(entry) for entry in value]

    def test_stage_value_rejects_unknown_types(self):
        with pytest.raises(wire.WireError, match="dict"):
            wire.encode_stage_value({"not": "a stage value"})
        with pytest.raises(wire.WireError, match="int"):
            wire.encode_stage_value([3])

    def test_unknown_term_and_stage_tags_rejected(self):
        with pytest.raises(wire.WireError, match="unknown stage-value"):
            wire.decode_stage_value({"kind": "mystery"})
