"""SZ-class error-bounded lossy compression for float64 columns.

The paper limits its evaluation to lossless codecs and flags lossy
scientific compressors (SZ, ZFP) as future work: "Exploring the
performance when combining query pushdown with lossy compression remains
an important direction."  This module implements that direction's
simplest credible member — an SZ-style *absolute-error-bounded*
quantizer:

1. quantize: ``q = round(value / (2 * error_bound))`` — guarantees
   ``|decoded - original| <= error_bound``;
2. predict: delta-encode the quantum stream (previous-value predictor,
   SZ's order-1 mode);
3. entropy-code: zigzag varints through the canonical Huffman stage.

Non-finite values (NaN/inf) bypass quantization via an exception list and
are reconstructed exactly.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.compress import huffman
from repro.compress.codec import (
    decode_varint,
    decode_varints,
    encode_varint,
    encode_varints,
)
from repro.errors import CodecError

__all__ = ["compress_lossy", "decompress_lossy", "max_error"]

_MAGIC = b"SZ1"


def _zigzag(values: np.ndarray) -> np.ndarray:
    """Map signed int64 to unsigned so small magnitudes stay small."""
    return (values.astype(np.int64) << 1) ^ (values.astype(np.int64) >> 63)


def _unzigzag(values: np.ndarray) -> np.ndarray:
    return (values >> 1) ^ -(values & 1)


def _decode_varints(buf: bytes, count: int) -> np.ndarray:
    """Exactly ``count`` varints filling ``buf``; each ends at a byte below 0x80."""
    arr = np.frombuffer(buf, dtype=np.uint8)
    stops = np.flatnonzero(arr < 0x80)
    if len(stops) < count:
        raise CodecError(f"quantum stream holds {len(stops)} of {count} values")
    stops = stops[:count]
    end = int(stops[-1]) + 1 if count else 0
    if end != len(buf):
        raise CodecError(f"{len(buf) - end} trailing bytes in quantum stream")
    starts = np.append(0, stops[:-1] + 1)[:count]
    values, sizes = decode_varints(arr)
    if (sizes[starts] == 0).any():
        raise CodecError("quantum varint longer than 64 bits")
    return values[starts]


def compress_lossy(values: np.ndarray, error_bound: float) -> bytes:
    """Compress a float64 array with guaranteed absolute error bound."""
    if error_bound <= 0:
        raise CodecError(f"error bound must be positive, got {error_bound}")
    values = np.ascontiguousarray(values, dtype=np.float64)
    n = len(values)

    finite = np.isfinite(values)
    exceptions = np.flatnonzero(~finite)
    safe = np.where(finite, values, 0.0)

    quanta = np.round(safe / (2.0 * error_bound)).astype(np.int64)
    deltas = np.diff(quanta, prepend=np.int64(0))
    payload = encode_varints(_zigzag(deltas).view(np.uint64))
    encoded = huffman.encode(payload)

    out = bytearray(_MAGIC)
    out += struct.pack("<d", error_bound)
    out += encode_varint(n)
    out += encode_varint(len(exceptions))
    for idx in exceptions.tolist():
        out += encode_varint(idx)
        out += struct.pack("<d", float(values[idx]))
    out += encode_varint(len(payload))
    out += encoded
    return bytes(out)


def decompress_lossy(data: bytes) -> np.ndarray:
    """Inverse of :func:`compress_lossy` (within the error bound)."""
    if data[:3] != _MAGIC:
        raise CodecError("bad SZ-class frame magic")
    if len(data) < 11:
        raise CodecError("truncated SZ-class frame header")
    pos = 3
    (error_bound,) = struct.unpack_from("<d", data, pos)
    pos += 8
    n, pos = decode_varint(data, pos)
    n_exceptions, pos = decode_varint(data, pos)
    if n_exceptions > n:
        raise CodecError(f"{n_exceptions} exceptions for {n} values")
    exceptions = []
    for _ in range(n_exceptions):
        idx, pos = decode_varint(data, pos)
        if idx >= n or pos + 8 > len(data):
            raise CodecError("truncated or out-of-range SZ exception list")
        (value,) = struct.unpack_from("<d", data, pos)
        pos += 8
        exceptions.append((idx, value))
    payload_len, pos = decode_varint(data, pos)
    payload = huffman.decode(data[pos:], payload_len)

    deltas = _unzigzag(_decode_varints(payload, n).astype(np.int64))
    quanta = np.cumsum(deltas)
    values = quanta.astype(np.float64) * (2.0 * error_bound)
    for idx, value in exceptions:
        values[idx] = value
    return values


def max_error(original: np.ndarray, decoded: np.ndarray) -> float:
    """Largest absolute reconstruction error over finite positions."""
    finite = np.isfinite(original)
    if not finite.any():
        return 0.0
    return float(np.abs(original[finite] - decoded[finite]).max())
