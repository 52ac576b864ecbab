"""Binary record framing and term codec of the write-ahead log.

Every WAL record is ``<u32 length><u32 crc32(payload)><payload>``
(little-endian); recovery and ``repro store verify`` share one
scanner.  The term codec is also the key encoding of the paged
engine's term banks.  The scanner distinguishes three end states:

* ``clean`` — the byte stream ended exactly on a record boundary;
* ``torn`` — the final record is incomplete (a crash cut an append
  short, or the filesystem zero-filled the tail); everything before it
  is valid and the torn bytes can be truncated away;
* ``corrupt`` — a *fully present* record failed its CRC or declared an
  absurd length: the file was damaged after being written.

Payloads start with a one-byte opcode:

=========  =====================================================
``TERM``   ``<u8 op><u32 tid>`` + term encoding (dictionary entry)
``ADD``    ``<u8 op><u32 sid><u32 pid><u32 oid>``
``DELETE`` ``<u8 op><u32 sid><u32 pid><u32 oid>``
``CLEAR``  ``<u8 op>``
``BATCH``  ``<u8 op><u32 n>`` + n × ``<u32 length><payload>``
=========  =====================================================

A ``BATCH`` record wraps the TERM/ADD/DELETE payloads of one atomic
graph update (:meth:`repro.rdf.graph.Graph.update`) in a single CRC
frame, so a torn tail drops the whole update and never half of it.
Batches do not nest.  A build that predates the opcode refuses a WAL
holding one as corruption rather than replaying part of it.

Terms encode as ``<u8 kind>`` + kind-specific bytes: URI and blank
nodes carry their UTF-8 text; literals carry a flags byte (datatype /
language present) and length-prefixed UTF-8 fields.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterator, List, Optional, Tuple

from repro.rdf.term import BNode, Literal, Node, URIRef

_HEADER = struct.Struct("<II")
_U32 = struct.Struct("<I")
_OP_IDS = struct.Struct("<BIII")
_OP_TERM_HEAD = struct.Struct("<BI")

#: Opcodes.
OP_TERM = 0x01
OP_ADD = 0x02
OP_DELETE = 0x03
OP_CLEAR = 0x04
OP_BATCH = 0x05

#: Term kinds.
KIND_URI = 0x01
KIND_BNODE = 0x02
KIND_LITERAL = 0x03

#: Upper bound on one record; a declared length beyond this is
#: corruption, not a large record (terms stay far below).
MAX_RECORD_BYTES = 64 * 1024 * 1024


class RecordFormatError(ValueError):
    """A payload failed to decode (reported as corruption by callers)."""


# -- term codec -------------------------------------------------------------


def encode_term(term: Node) -> bytes:
    """One term as kind-tagged bytes."""
    if isinstance(term, URIRef):
        return bytes((KIND_URI,)) + str(term).encode("utf-8")
    if isinstance(term, BNode):
        return bytes((KIND_BNODE,)) + str(term).encode("utf-8")
    if isinstance(term, Literal):
        flags = (1 if term.datatype is not None else 0) | (
            2 if term.lang is not None else 0
        )
        lexical = term.lexical.encode("utf-8")
        out = bytearray((KIND_LITERAL, flags))
        out += _U32.pack(len(lexical))
        out += lexical
        if term.datatype is not None:
            datatype = str(term.datatype).encode("utf-8")
            out += _U32.pack(len(datatype))
            out += datatype
        if term.lang is not None:
            lang = term.lang.encode("utf-8")
            out += _U32.pack(len(lang))
            out += lang
        return bytes(out)
    raise RecordFormatError(f"cannot encode term of type {type(term)!r}")


def decode_term(payload: bytes, offset: int) -> Tuple[Node, int]:
    """Decode one term at ``offset``; returns (term, next offset)."""
    if offset >= len(payload):
        raise RecordFormatError("truncated term encoding")
    kind = payload[offset]
    offset += 1
    if kind in (KIND_URI, KIND_BNODE):
        text = payload[offset:].decode("utf-8")
        cls = URIRef if kind == KIND_URI else BNode
        return cls(text), len(payload)
    if kind != KIND_LITERAL:
        raise RecordFormatError(f"unknown term kind 0x{kind:02x}")
    flags = payload[offset]
    offset += 1

    def take() -> str:
        nonlocal offset
        if offset + 4 > len(payload):
            raise RecordFormatError("truncated literal field")
        (length,) = _U32.unpack_from(payload, offset)
        offset += 4
        if offset + length > len(payload):
            raise RecordFormatError("truncated literal field")
        text = payload[offset : offset + length].decode("utf-8")
        offset += length
        return text

    lexical = take()
    datatype = take() if flags & 1 else None
    lang = take() if flags & 2 else None
    return Literal(lexical, datatype=datatype, lang=lang), offset


# -- payload builders -------------------------------------------------------


def term_payload(tid: int, term: Node) -> bytes:
    return _OP_TERM_HEAD.pack(OP_TERM, tid) + encode_term(term)


def add_payload(sid: int, pid: int, oid: int) -> bytes:
    return _OP_IDS.pack(OP_ADD, sid, pid, oid)


def delete_payload(sid: int, pid: int, oid: int) -> bytes:
    return _OP_IDS.pack(OP_DELETE, sid, pid, oid)


def clear_payload() -> bytes:
    return bytes((OP_CLEAR,))


def batch_payload(payloads: List[bytes]) -> bytes:
    """Wrap several payloads into one ``BATCH`` payload."""
    out = bytearray(_OP_TERM_HEAD.pack(OP_BATCH, len(payloads)))
    for payload in payloads:
        out += _U32.pack(len(payload))
        out += payload
    return bytes(out)


def decode_batch_payload(payload: bytes) -> List[bytes]:
    """The wrapped payloads of one ``BATCH`` payload, in order."""
    if len(payload) < _OP_TERM_HEAD.size:
        raise RecordFormatError("truncated batch header")
    _, count = _OP_TERM_HEAD.unpack_from(payload, 0)
    offset = _OP_TERM_HEAD.size
    parts: List[bytes] = []
    for _ in range(count):
        if offset + 4 > len(payload):
            raise RecordFormatError("truncated batch entry")
        (length,) = _U32.unpack_from(payload, offset)
        offset += 4
        if length == 0 or offset + length > len(payload):
            raise RecordFormatError("truncated batch entry")
        part = payload[offset : offset + length]
        if part[0] == OP_BATCH:
            raise RecordFormatError("nested batch record")
        parts.append(part)
        offset += length
    if offset != len(payload):
        raise RecordFormatError("batch record has trailing bytes")
    return parts


def decode_term_payload(payload: bytes) -> Tuple[int, Node]:
    """(tid, term) of one ``TERM`` payload."""
    _, tid = _OP_TERM_HEAD.unpack_from(payload, 0)
    term, _ = decode_term(payload, _OP_TERM_HEAD.size)
    return tid, term


def decode_ids_payload(payload: bytes) -> Tuple[int, int, int]:
    """(sid, pid, oid) of one ``ADD``/``DELETE`` payload."""
    if len(payload) != _OP_IDS.size:
        raise RecordFormatError("triple record has wrong length")
    _, sid, pid, oid = _OP_IDS.unpack(payload)
    return sid, pid, oid


# -- framing ----------------------------------------------------------------


def encode_record(payload: bytes) -> bytes:
    """Frame one payload as ``<len><crc><payload>``."""
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


class RecordScanner:
    """Iterate framed records over a byte buffer, classifying the end.

    After exhaustion, ``end`` is the offset of the first byte past the
    last *valid* record and ``status`` is ``clean`` / ``torn`` /
    ``corrupt`` (``error`` carries the human detail for the latter).
    Iteration stops at the first torn or corrupt record.
    """

    def __init__(self, data: bytes, start: int = 0) -> None:
        self._data = data
        self.end = start
        self.status = "clean"
        self.error: Optional[str] = None

    def __iter__(self) -> Iterator[bytes]:
        data = self._data
        size = len(data)
        offset = self.end
        while offset < size:
            if offset + _HEADER.size > size:
                self.status = "torn"
                return
            length, crc = _HEADER.unpack_from(data, offset)
            if length == 0:
                # Zero-filled tail (filesystem pre-allocation after a
                # crash): indistinguishable from a torn append.
                self.status = "torn"
                return
            if length > MAX_RECORD_BYTES:
                self.status = "corrupt"
                self.error = (
                    f"record at offset {offset} declares "
                    f"{length} bytes (limit {MAX_RECORD_BYTES})"
                )
                return
            body_start = offset + _HEADER.size
            if body_start + length > size:
                self.status = "torn"
                return
            payload = data[body_start : body_start + length]
            if zlib.crc32(payload) != crc:
                self.status = "corrupt"
                self.error = f"record at offset {offset} failed its CRC"
                return
            offset = body_start + length
            self.end = offset
            yield payload

