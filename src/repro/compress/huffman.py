"""Canonical Huffman coding over byte symbols (the zstd-class entropy stage).

Encoded layout::

    lengths   128 bytes  4-bit code length per symbol (0 = absent), capped at 15
    payload   rest       MSB-first bit-packed codes

Code lengths are limited to 15 bits by iteratively halving frequencies
until the tree fits (the standard simple alternative to package-merge).
Encoding is vectorized with numpy (one pass per code-bit level); decoding
looks up codes in a full prefix table of 2^maxlen entries, built only from
code lengths that satisfy the Kraft inequality, at every bit position at
once.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

import numpy as np

from repro.compress.codec import walk_chain
from repro.errors import CodecError

__all__ = ["encode", "decode", "MAX_CODE_BITS"]

MAX_CODE_BITS = 15
_NUM_SYMBOLS = 256


def _tree_code_lengths(freqs: List[int]) -> List[int]:
    """Huffman code length per symbol from frequencies (no length cap)."""
    heap: List[Tuple[int, int, object]] = []
    serial = 0
    for sym, freq in enumerate(freqs):
        if freq > 0:
            heap.append((freq, serial, sym))
            serial += 1
    if not heap:
        return [0] * _NUM_SYMBOLS
    if len(heap) == 1:
        lengths = [0] * _NUM_SYMBOLS
        lengths[heap[0][2]] = 1  # type: ignore[index]
        return lengths
    heapq.heapify(heap)
    while len(heap) > 1:
        fa, _, a = heapq.heappop(heap)
        fb, _, b = heapq.heappop(heap)
        heapq.heappush(heap, (fa + fb, serial, (a, b)))
        serial += 1
    lengths = [0] * _NUM_SYMBOLS
    stack = [(heap[0][2], 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, tuple):
            stack.append((node[0], depth + 1))
            stack.append((node[1], depth + 1))
        else:
            lengths[node] = max(depth, 1)
    return lengths


def code_lengths(freqs: List[int]) -> List[int]:
    """Length-limited (<= MAX_CODE_BITS) code lengths per symbol."""
    freqs = list(freqs)
    while True:
        lengths = _tree_code_lengths(freqs)
        if max(lengths) <= MAX_CODE_BITS:
            return lengths
        # Flatten the distribution and retry; preserves the support set.
        freqs = [(f + 1) >> 1 if f > 0 else 0 for f in freqs]


def canonical_codes(lengths: List[int]) -> List[int]:
    """Assign canonical codes (numerically increasing within each length)."""
    pairs = sorted(
        (length, sym) for sym, length in enumerate(lengths) if length > 0
    )
    codes = [0] * _NUM_SYMBOLS
    code = 0
    prev_len = 0
    for length, sym in pairs:
        code <<= length - prev_len
        codes[sym] = code
        code += 1
        prev_len = length
    return codes


def _pack_lengths(lengths: List[int]) -> bytes:
    out = bytearray(_NUM_SYMBOLS // 2)
    for sym in range(0, _NUM_SYMBOLS, 2):
        out[sym // 2] = (lengths[sym] << 4) | lengths[sym + 1]
    return bytes(out)


def _unpack_lengths(header: bytes) -> List[int]:
    if len(header) != _NUM_SYMBOLS // 2:
        raise CodecError("bad Huffman length header")
    lengths = []
    for byte in header:
        lengths.append(byte >> 4)
        lengths.append(byte & 0x0F)
    return lengths


def encode(data: bytes) -> bytes:
    """Huffman-encode ``data``; decode requires the original symbol count."""
    if not data:
        return _pack_lengths([0] * _NUM_SYMBOLS)
    arr = np.frombuffer(data, dtype=np.uint8)
    freqs = np.bincount(arr, minlength=_NUM_SYMBOLS).tolist()
    lengths = code_lengths(freqs)
    codes = canonical_codes(lengths)

    len_lut = np.asarray(lengths, dtype=np.int64)
    code_lut = np.asarray(codes, dtype=np.uint32)
    sym_lens = len_lut[arr]
    sym_codes = code_lut[arr]
    ends = np.cumsum(sym_lens)
    starts = ends - sym_lens
    total_bits = int(ends[-1])
    bits = np.zeros(total_bits, dtype=np.uint8)
    max_len = int(sym_lens.max())
    for level in range(max_len):
        mask = sym_lens > level
        positions = starts[mask] + level
        shift = (sym_lens[mask] - 1 - level).astype(np.uint32)
        bits[positions] = (sym_codes[mask] >> shift) & np.uint32(1)
    payload = np.packbits(bits).tobytes()
    return _pack_lengths(lengths) + payload


def _prefix_table(lengths: List[int]) -> Tuple[int, np.ndarray, np.ndarray]:
    """Validated full prefix table: (max_len, symbol, code length) per word.

    Canonical codes, taken in (length, symbol) order, tile the table of
    ``2**max_len`` words left to right, each code covering
    ``2**(max_len - length)`` words; so the table is one ``repeat``.
    Lengths whose Kraft sum exceeds 1 would tile past the end: rejected.
    Words no code covers (an incomplete code) have length 0.
    """
    lens = np.asarray(lengths, dtype=np.int64)
    symbols = np.flatnonzero(lens)
    if not len(symbols):
        raise CodecError("Huffman stream declares symbols but header is empty")
    symbols = symbols[np.argsort(lens[symbols], kind="stable")]
    max_len = int(lens.max())
    spans = np.int64(1) << (max_len - lens[symbols])
    used = int(spans.sum())
    if used > 1 << max_len:
        raise CodecError("Huffman code lengths violate the Kraft inequality")
    table_sym = np.zeros(1 << max_len, dtype=np.uint8)
    table_len = np.zeros(1 << max_len, dtype=np.uint8)
    table_sym[:used] = np.repeat(symbols, spans)
    table_len[:used] = np.repeat(lens[symbols], spans)
    return max_len, table_sym, table_len


def decode(body: bytes, nsymbols: int) -> bytes:
    """Inverse of :func:`encode` given the original symbol count.

    Vectorized like the LZ77 token decoder: look up the code that would
    start at every bit position of the payload, then walk the chain of
    code starts from bit 0 (:func:`~repro.compress.codec.walk_chain`).
    """
    lengths = _unpack_lengths(body[: _NUM_SYMBOLS // 2])
    payload = np.frombuffer(body, dtype=np.uint8, offset=_NUM_SYMBOLS // 2)
    if nsymbols == 0:
        return b""
    nbits = 8 * len(payload)
    if nsymbols > nbits:
        raise CodecError(
            f"Huffman payload of {len(payload)} bytes cannot hold {nsymbols} symbols"
        )
    max_len, table_sym, table_len = _prefix_table(lengths)

    # The max_len-bit word at every bit position 0..nbits, zero-padded
    # past the end: bit position 8 * b + phase reads the 24-bit word at
    # byte b, shifted by phase.
    padded = np.zeros(len(payload) + 3, dtype=np.int32)
    padded[: len(payload)] = payload
    words = padded[:-2] << 16 | padded[1:-1] << 8 | padded[2:]
    window = np.empty(nbits + 1, dtype=np.int32)
    for phase in range(8):
        lane = window[phase::8]
        np.right_shift(words[: len(lane)], 24 - max_len - phase, out=lane)
    window &= (1 << max_len) - 1
    symbols = table_sym.take(window)
    lens = table_len.take(window)
    del window
    # A code must be in the table and end inside the payload; anything
    # else jumps to the sentinel nbits + 1.
    nxt = np.full(nbits + 2, nbits + 1, dtype=np.int64)
    np.add(np.arange(nbits + 1), lens, out=nxt[:-1], where=lens > 0)
    nxt[nxt > nbits] = nbits + 1
    chain = walk_chain(nxt, nbits + 1, nsymbols + 1)
    if len(chain) <= nsymbols or chain[-1] > nbits:
        raise CodecError("corrupt Huffman payload")
    return symbols.take(chain[:-1]).tobytes()
