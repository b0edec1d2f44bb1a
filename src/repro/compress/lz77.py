"""Shared LZ77 core: match finding, token emission, token expansion.

Token stream grammar (all integers are LEB128 varints)::

    token   := literal | match
    literal := varint(run << 1)        run raw bytes follow
    match   := varint((len << 1) | 1)  varint(offset)

Offsets are back-distances (1 = previous byte); ``len`` may exceed
``offset``, which encodes a repeating pattern (classic LZ77 overlap).

The compressor is a greedy hash-table matcher in the Snappy family:
4-byte rolling hashes are precomputed vectorized with numpy, the scan
loop consults a head table (optionally walking a ``prev`` chain for
higher-effort codecs), and a skip accelerator grows the stride through
incompressible regions so worst-case inputs stay near memcpy speed.
The decompressor is vectorized with numpy; see :func:`decompress_tokens`.
"""

from __future__ import annotations

import numpy as np

from repro.compress.codec import decode_varints, encode_varint, walk_chain
from repro.errors import CodecError

__all__ = ["compress_tokens", "decompress_tokens"]

_HASH_BITS = 15
_HASH_MULT = np.uint32(0x9E3779B1)


def _position_hashes(data: bytes) -> list[int]:
    """4-byte Fibonacci hash at every position 0..n-4, vectorized."""
    arr = np.frombuffer(data, dtype=np.uint8)
    n = len(arr)
    w = (
        arr[: n - 3].astype(np.uint32)
        | arr[1 : n - 2].astype(np.uint32) << np.uint32(8)
        | arr[2 : n - 1].astype(np.uint32) << np.uint32(16)
        | arr[3:].astype(np.uint32) << np.uint32(24)
    )
    h = (w * _HASH_MULT) >> np.uint32(32 - _HASH_BITS)
    return h.tolist()


def _match_length(data: bytes, a: int, b: int, max_len: int) -> int:
    """Length of the common prefix of data[a:] and data[b:], capped."""
    length = 0
    chunk = 64
    while (
        length + chunk <= max_len
        and data[a + length : a + length + chunk] == data[b + length : b + length + chunk]
    ):
        length += chunk
    while length < max_len and data[a + length] == data[b + length]:
        length += 1
    return length


def _emit_literal(out: bytearray, data: bytes, start: int, end: int) -> None:
    out += encode_varint((end - start) << 1)
    out += data[start:end]


def _emit_match(out: bytearray, length: int, offset: int) -> None:
    out += encode_varint((length << 1) | 1)
    out += encode_varint(offset)


def compress_tokens(
    data: bytes,
    *,
    window: int,
    min_match: int = 4,
    max_match: int = 65535,
    max_chain: int = 1,
    skip_accel: bool = True,
) -> bytes:
    """Tokenize ``data``; ``max_chain`` > 1 searches harder for longer matches."""
    n = len(data)
    out = bytearray()
    if n < 16:
        if n:
            _emit_literal(out, data, 0, n)
        return bytes(out)

    hashes = _position_hashes(data)
    head = [-1] * (1 << _HASH_BITS)
    prev = [0] * n if max_chain > 1 else None

    i = 0
    lit_start = 0
    misses = 0
    limit = n - 4
    while i <= limit:
        h = hashes[i]
        candidate = head[h]
        best_len = 0
        best_off = 0
        chain = max_chain
        while candidate >= 0 and chain > 0 and i - candidate <= window:
            length = _match_length(data, candidate, i, min(max_match, n - i))
            if length > best_len:
                best_len = length
                best_off = i - candidate
                if length >= 512:  # long enough; stop searching
                    break
            if prev is None:
                break
            candidate = prev[candidate]
            chain -= 1

        if prev is not None:
            prev[i] = head[h]
        head[h] = i

        if best_len >= min_match:
            if lit_start < i:
                _emit_literal(out, data, lit_start, i)
            _emit_match(out, best_len, best_off)
            end = i + best_len
            # Seed the table sparsely inside the match so later data can
            # still find these positions without paying per-byte cost.
            stride = 1 if best_len <= 16 else best_len // 16
            j = i + 1
            stop = min(end, limit + 1)
            while j < stop:
                hj = hashes[j]
                if prev is not None:
                    prev[j] = head[hj]
                head[hj] = j
                j += stride
            i = end
            lit_start = i
            misses = 0
        else:
            misses += 1
            i += 1 + (misses >> 6 if skip_accel else 0)

    if lit_start < n:
        _emit_literal(out, data, lit_start, n)
    return bytes(out)


def decompress_tokens(body: bytes, orig_size: int) -> bytes:
    """Expand a token stream back to exactly ``orig_size`` bytes.

    Vectorized in two phases.  *Parse*: decode a varint at every body
    position, derive where the next token would start from each
    position, and walk the chain of token starts (:func:`walk_chain`).
    *Expand*: give every output byte a source index -- a literal byte
    points into the body, a match byte to the output byte ``offset``
    back, which handles overlapping matches byte for byte -- resolve
    match chains by pointer doubling and gather once.

    Every token length is checked against ``orig_size`` before anything
    output-sized is allocated; any malformed stream raises
    :class:`CodecError`.
    """
    if not 0 <= orig_size < 1 << 63:
        raise CodecError(f"declared size {orig_size} out of range")
    n = len(body)
    buf = np.frombuffer(body, dtype=np.uint8)
    values, sizes = decode_varints(buf)

    # Parse: where the token that would start at each position ends.  A
    # literal's run must fit in the body; a match needs a whole offset.
    after = np.arange(n, dtype=np.int64) + sizes
    run = values >> np.uint64(1)
    is_match = (values & np.uint64(1)).astype(bool)
    room = (n - after).astype(np.uint64)
    span = np.minimum(run, room).astype(np.int64)
    offset_sizes = np.append(sizes, 0)[after]
    nxt = after + span + is_match * (offset_sizes - span)
    bad = (sizes == 0) | np.where(is_match, offset_sizes == 0, run > room)
    nxt += bad * (n + 1 - nxt)
    # At most n tokens precede the end, so the chain always reaches n or
    # n + 1; it rises until then.
    chain = walk_chain(np.append(nxt, [n, n + 1]), n, n + 1)
    end = int(np.searchsorted(chain, n))
    if chain[end] > n:
        raise CodecError(f"malformed token at body offset {int(chain[end - 1])}")
    starts = chain[:end]

    # Bound every length before allocating anything output-sized.  Each
    # length is below 2**63 and ``orig_size`` is too, so no running sum
    # can wrap around before an earlier one exceeds ``orig_size``.
    lengths = run[starts]
    ends = np.cumsum(lengths, dtype=np.uint64)
    if (ends > np.uint64(orig_size)).any():
        raise CodecError("token stream expands past declared size")
    if (ends[-1] if len(ends) else 0) != orig_size:
        raise CodecError("token stream expands short of declared size")
    out_starts = (ends - lengths).astype(np.int64)
    after = after[starts]
    matches = np.flatnonzero(is_match[starts])
    offsets = values[after[matches]]
    if ((offsets == 0) | (offsets > out_starts[matches].astype(np.uint64))).any():
        raise CodecError("match offset out of range")

    # Expand over one index space: body bytes [0, n) are roots, output
    # byte j is node n + j.  Each doubling step points every output byte
    # twice as far up its chain, until all point into the body.
    shift = after - out_starts - n
    shift[matches] = -offsets.astype(np.int64)
    ptr = np.arange(n + orig_size, dtype=np.int64)
    out = ptr[n:]
    out += np.repeat(shift, lengths.astype(np.int64))
    while True:
        hop = ptr.take(out)
        if not (hop >= n).any():
            return buf.take(hop).tobytes()
        out[:] = hop
