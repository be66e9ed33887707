"""Typed field values and their binary wire encoding.

§4.1: *"a message is represented as a symbol table containing multiple
fields, each having a name, type, and variable length data ... A field can
even contain another message."*

Supported field types and their wire tags:

====== ============ =====================================================
tag     python       payload encoding (big-endian)
====== ============ =====================================================
0       None         (empty)
1       bool         1 byte
2       int          8-byte signed
3       float        8-byte IEEE double
4       str          u32 length + UTF-8 bytes
5       bytes        u32 length + raw bytes
6       Address      8 packed bytes
7       Message      u32 length + encoded message (recursive)
8       list/tuple   u32 count + encoded values (recursive)
9       dict         u32 count + (u16 keylen + key utf8 + value) pairs
====== ============ =====================================================

A message is ``u16 magic 0x49D2 + u16 field count`` followed by that many
``u16 name length + name UTF-8 + value`` entries.

A message of a declared protocol (a row of ``wire.protocols()``: the
kernel's, the toolkit's, the write-ahead log's records) has the
positional form instead, and no other: byte ``0xA7``, the protocol's
index in that table (the pipeline's rows first), one presence byte if
its row has optional fields (bit ``i`` for the ``i``-th; the rest must
be 0), then each field there in row order, no name and no tag: an
``address`` as its 8 bytes, a ``uint`` as a uvarint, an ``int`` as a
zigzag uvarint, a ``float`` as an 8-byte IEEE double, a ``bool`` as a
byte 0 or 1, ``bytes``, a blob, a ``str`` (UTF-8) or a message as a
uvarint length and the bytes, ``any`` as a tagged value of the table
above, a ``fixed`` as its items in order, a ``list_of`` as a uvarint
count and its items, a ``dict_of`` as a uvarint count and each key (a
``str``) and item, a ``record`` as a row (presence byte, fields), and a
``nullable`` as a byte 0 (None) or 1 and the value.  A uvarint is
unsigned LEB128, at most 64 bits and without a trailing zero group;
:func:`decode_uvarint` (and the have-vector run's loop, which reads the
same form) refuses any other spelling, so every value has one.

This table, the positional form, the have-vector format and the
stability blob below are the wire specification; the codec that
implements it for whole messages is in ``message.py``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from ..errors import CodecError

T_NONE = 0
T_BOOL = 1
T_INT = 2
T_FLOAT = 3
T_STR = 4
T_BYTES = 5
T_ADDR = 6
T_MSG = 7
T_LIST = 8
T_DICT = 9


# ----------------------------------------------------------------------
# Have-vector and stability-blob codec
# ----------------------------------------------------------------------
# A have-vector (per-origin-site "highest contiguous gseq received") is
# a sorted run of (site, top) pairs, sites delta-encoded, everything in
# unsigned LEB128 varints.  A 4-site vector costs ~9 bytes instead of
# the ~80 a generic dict field would.  The flush sends bare vectors
# (``base_b``, ``have_b``, ``have_d``, ``union_b``).
#
# Stability sends a have-vector one way, as one bytes field ``stab`` —
# on data envelopes, batches and every ``g.stab.*`` note alike: the
# uvarints ``view id, floor counter, floor site`` and then the vector.
# The view id says which view's gseq counters the vector counts (they
# restart in every view, so a receiver refuses any other view's blob);
# the floor is an ABCAST delivery floor, ``(0, 0)`` for "none".

#: What a ``stab`` blob says: ``(view_id, delivery floor, have-vector)``.
Stab = Tuple[int, Tuple[int, int], Dict[int, int]]


def modular_newer(a: int, b: int, modulus: int = 256) -> bool:
    """Is bounded counter ``a`` newer than ``b`` under wraparound?

    Bounded-counter comparison (Salem & Schiller): with counters that
    wrap modulo ``modulus``, ``a`` is *newer* than ``b`` when it lies in
    the forward half-window ``(b, b + modulus/2)``.  Site incarnations
    (one address byte) and the transport epochs derived from them use
    this instead of ``>`` so a site may restart more than 255 times.
    """
    return 0 < (a - b) % modulus < modulus // 2


def _encode_uvarints(numbers: Iterable[int]) -> bytes:
    """Back-to-back unsigned LEB128 of ``numbers`` (all >= 0)."""
    out = bytearray()
    for n in numbers:
        while n > 0x7F:
            out.append((n & 0x7F) | 0x80)
            n >>= 7
        out.append(n)
    return bytes(out)


def encode_uvarint(n: int) -> bytes:
    """Unsigned LEB128."""
    if n < 0:
        raise CodecError(f"uvarint cannot encode negative value {n}")
    return _encode_uvarints((n,))


def decode_uvarint(data: bytes, offset: int) -> Tuple[int, int]:
    """Inverse of :func:`encode_uvarint`; returns (value, next_offset).

    The one reader of a lone uvarint: :class:`CodecError` if it is
    truncated, overlong (a last byte of 0 after a continuation byte
    spells the value a byte shorter too) or 64 bits or wider.
    """
    result = shift = 0
    try:
        byte = data[offset]
        while byte > 0x7F:
            result |= (byte & 0x7F) << shift
            shift += 7
            if shift > 63:
                raise CodecError("uvarint exceeds 64 bits")
            offset += 1
            byte = data[offset]
    except IndexError:
        raise CodecError("truncated uvarint") from None
    if shift and (not byte or (byte << shift) >> 64):
        raise CodecError("overlong or wider than 64 bits: uvarint")
    return result | (byte << shift), offset + 1


def _have_vector_numbers(have: "dict[int, int]") -> "list[int]":
    """The uvarints of a have-vector: count, then (site delta, top)s."""
    numbers = [len(have)]
    prev_site = 0
    for site in sorted(have):
        top = have[site]
        if site < 0 or top < 0:
            raise CodecError(f"have-vector entries must be >= 0: {site}:{top}")
        numbers += (site - prev_site, top)
        prev_site = site
    return numbers


def encode_have_vector(have: "dict[int, int]") -> bytes:
    """Compact encoding of a per-origin-site have-vector.

    Sites are delta-encoded in sorted order, values are varints.
    """
    return _encode_uvarints(_have_vector_numbers(have))


def encode_stab(view_id: int, floor: "Tuple[int, int]",
                have: "dict[int, int]") -> bytes:
    """The ``stab`` blob: a have-vector, its view and a delivery floor."""
    if view_id < 0 or floor[0] < 0 or floor[1] < 0:
        raise CodecError(f"stab header must be >= 0: {view_id}, {floor}")
    return _encode_uvarints(
        [view_id, floor[0], floor[1]] + _have_vector_numbers(have))


def exact_diff_have_vector(base: "dict[int, int]",
                           cur: "dict[int, int]") -> "dict[int, int]":
    """Entries of ``cur`` that *differ* from ``base`` — in either
    direction.

    The diff supports exact reconstruction: ``base`` overridden by the
    returned entries equals ``cur`` (entries at 0 mark origins present
    in ``base`` but absent from ``cur``).  Used by flush reports, where
    a participant's have-vector may also be *behind* the coordinator's
    announced base union.
    """
    out = {}
    for origin in set(base) | set(cur):
        mine = cur.get(origin, 0)
        if mine != base.get(origin, 0):
            out[origin] = mine
    return out


def apply_have_diff(base: "dict[int, int]",
                    diff: "dict[int, int]") -> "dict[int, int]":
    """Inverse of :func:`exact_diff_have_vector`: reconstruct ``cur``."""
    out = dict(base)
    out.update(diff)
    return {origin: top for origin, top in out.items() if top > 0}


def _decode_uvarint_run(data: bytes,
                        header: int) -> "Tuple[list[int], dict[int, int]]":
    """``header`` leading uvarints, then a have-vector, and nothing else.

    One loop over the bytes: the run is nothing but uvarints — the
    header values, the entry count, then a (site delta, top) pair per
    entry.  Only the canonical run is read: each uvarint as
    :func:`decode_uvarint` reads it, the sites ascending (a delta of 0
    is the first entry's only).
    """
    head = [0] * header
    out: "dict[int, int]" = {}
    count = delta = None
    site = entries = result = shift = filled = 0
    for byte in data:
        if byte > 0x7F:
            result |= (byte & 0x7F) << shift
            shift += 7
            if shift > 63:
                raise CodecError("uvarint exceeds 64 bits")
            continue
        if shift and (not byte or (byte << shift) >> 64):
            raise CodecError("overlong or wider than 64 bits: uvarint")
        value = result | (byte << shift)
        result = shift = 0
        if delta is not None:
            site += delta
            out[site] = value
            delta = None
            entries += 1
        elif count is not None:
            if not value and entries:
                raise CodecError(f"site {site} repeated in have-vector")
            delta = value
        elif filled < header:
            head[filled] = value
            filled += 1
        else:
            count = value
    if shift or delta is not None or count != entries:
        raise CodecError(f"truncated or overlong have-vector: {count} entries "
                         f"announced, {entries} complete")
    return head, out


def decode_have_vector(data: bytes) -> "dict[int, int]":
    """Inverse of :func:`encode_have_vector`."""
    return _decode_uvarint_run(data, 0)[1]


def decode_stab(data: bytes) -> Stab:
    """Inverse of :func:`encode_stab`."""
    (view_id, counter, site), have = _decode_uvarint_run(data, 3)
    return view_id, (counter, site), have
