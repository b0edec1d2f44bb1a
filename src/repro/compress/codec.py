"""Codec interface, checksummed frame format, and the registry.

Frame layout (what ``compress`` returns and ``decompress`` expects)::

    magic      2 bytes   b"PC"  (Parcel Codec)
    codec id   1 byte    registry-assigned
    orig size  varint    uncompressed length
    adler32    4 bytes   little-endian checksum of the uncompressed data
    payload    rest      codec-specific body

The frame lets readers validate integrity and pre-allocate output, and
makes a chunk self-describing (the reader can verify the chunk was written
with the codec the footer claims).
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from typing import Dict

import numpy as np

from repro.errors import CodecError

__all__ = [
    "Codec",
    "CodecRegistry",
    "NoneCodec",
    "encode_varint",
    "decode_varint",
    "encode_varints",
    "decode_varints",
    "walk_chain",
]

_MAGIC = b"PC"


def encode_varint(value: int) -> bytes:
    """LEB128 unsigned varint."""
    if value < 0:
        raise CodecError(f"varint cannot encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a varint at ``offset``; returns (value, next_offset)."""
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data):
            raise CodecError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise CodecError("varint too long")


#: Longest varint :func:`decode_varint` accepts: ten 7-bit groups cover 64 bits.
_MAX_VARINT_BYTES = 10


def decode_varints(buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decode the varint that begins at every position of ``buf``, vectorized.

    ``buf`` is a uint8 array.  Returns ``(values, sizes)``: the uint64
    value and the byte length of each varint.  A size of 0 marks a varint
    that runs off the end of ``buf``, is longer than 10 bytes, or does
    not fit in 64 bits; its value is meaningless.
    """
    n = len(buf)
    # First terminating byte (below 0x80) at or after every position.
    stops = np.where(buf < 0x80, np.arange(n), n + _MAX_VARINT_BYTES)
    sizes = np.minimum.accumulate(stops[::-1])[::-1] - np.arange(n) + 1
    low = np.zeros(n + _MAX_VARINT_BYTES, dtype=np.uint64)
    low[:n] = buf & 0x7F
    sizes *= sizes <= _MAX_VARINT_BYTES
    sizes *= (sizes < _MAX_VARINT_BYTES) | (low[_MAX_VARINT_BYTES - 1 :][:n] <= 1)
    values = low[:n].copy()
    live = np.flatnonzero(sizes > 1)
    for i in range(1, _MAX_VARINT_BYTES):
        if not len(live):
            break
        values[live] |= low[live + i] << np.uint64(7 * i)
        live = np.compress(sizes[live] > i + 1, live)
    return values, sizes


def encode_varints(values: np.ndarray) -> bytes:
    """Concatenated varints of a uint64 array; inverse of :func:`decode_varints`."""
    values = np.asarray(values, dtype=np.uint64)
    sizes = np.ones(len(values), dtype=np.int64)
    for i in range(1, _MAX_VARINT_BYTES):
        sizes += values >= np.uint64(1 << (7 * i))
    ends = np.cumsum(sizes)
    out = np.empty(int(ends[-1]) if len(ends) else 0, dtype=np.uint8)
    starts = ends - sizes
    for i in range(int(sizes.max(initial=0))):
        live = sizes > i
        group = (values[live] >> np.uint64(7 * i)) & np.uint64(0x7F)
        more = np.where(sizes[live] > i + 1, np.uint64(0x80), np.uint64(0))
        out[starts[live] + i] = group | more
    return out.tobytes()


#: Pointer-doubling levels of :func:`walk_chain`: its Python walk visits
#: one chain position in ``2**_JUMP_LEVELS``.
_JUMP_LEVELS = 5


def walk_chain(nxt: np.ndarray, stop: int, count: int) -> np.ndarray:
    """The first ``count`` positions of the chain 0, nxt[0], nxt[nxt[0]], ...

    This is how the decoders find where each token or code starts when
    that depends on every earlier one.  ``nxt`` (int64) maps every
    position to a later one; positions at or past ``stop`` are fixed
    points (sentinels such as "end" or "malformed"), and the result ends
    early, with at least one of them, if the chain reaches one.

    Pointer doubling (``top = top[top]``, in two reused buffers) builds
    the jump over ``2**_JUMP_LEVELS`` positions; a Python walk takes
    those jumps from 0, and ``2**_JUMP_LEVELS - 1`` vector steps of
    ``nxt`` from all the walk's anchors at once fill in the rest.
    """
    stride = 1 << _JUMP_LEVELS
    top, spare = nxt.take(nxt), np.empty_like(nxt)
    for _ in range(_JUMP_LEVELS - 1):
        top.take(top, out=spare)
        top, spare = spare, top
    anchors = []
    pos = 0
    for _ in range(-(-count // stride)):
        anchors.append(pos)
        if pos >= stop:
            break
        pos = int(top[pos])
    del top, spare
    rows = np.empty((stride, len(anchors)), dtype=np.int64)
    rows[0] = anchors
    for step in range(1, stride):
        nxt.take(rows[step - 1], out=rows[step])
    return rows.T.ravel()[:count]


class Codec(ABC):
    """A lossless block codec with a checksummed frame."""

    #: Registry name, e.g. ``"snappy"``.
    name: str = ""
    #: One-byte frame identifier, assigned per codec class.
    codec_id: int = 0

    def compress(self, data: bytes) -> bytes:
        """Frame + compress ``data``; always decompressible by this codec."""
        data = bytes(data)
        body = self._compress_body(data)
        header = (
            _MAGIC
            + bytes([self.codec_id])
            + encode_varint(len(data))
            + (zlib.adler32(data) & 0xFFFFFFFF).to_bytes(4, "little")
        )
        return header + body

    def decompress(self, frame: bytes) -> bytes:
        """Validate the frame and return the original bytes."""
        frame = bytes(frame)
        if len(frame) < 7 or frame[:2] != _MAGIC:
            raise CodecError("bad codec frame magic")
        if frame[2] != self.codec_id:
            raise CodecError(
                f"frame written by codec id {frame[2]}, not {self.name!r} ({self.codec_id})"
            )
        orig_size, pos = decode_varint(frame, 3)
        if pos + 4 > len(frame):
            raise CodecError("truncated codec frame header")
        checksum = int.from_bytes(frame[pos : pos + 4], "little")
        data = self._decompress_body(frame[pos + 4 :], orig_size)
        if len(data) != orig_size:
            raise CodecError(
                f"decompressed {len(data)} bytes, frame promised {orig_size}"
            )
        if (zlib.adler32(data) & 0xFFFFFFFF) != checksum:
            raise CodecError("checksum mismatch after decompression")
        return data

    # -- codec-specific body ------------------------------------------------

    @abstractmethod
    def _compress_body(self, data: bytes) -> bytes:
        """Compress raw bytes to the codec-specific payload."""

    @abstractmethod
    def _decompress_body(self, body: bytes, orig_size: int) -> bytes:
        """Inverse of :meth:`_compress_body`."""


class NoneCodec(Codec):
    """Identity codec (the paper's "No Compression" configuration)."""

    name = "none"
    codec_id = 0

    def _compress_body(self, data: bytes) -> bytes:
        return data

    def _decompress_body(self, body: bytes, orig_size: int) -> bytes:
        return body


class CodecRegistry:
    """Name -> codec lookup used by the Parcel writer/reader."""

    def __init__(self) -> None:
        self._by_name: Dict[str, Codec] = {}
        self._by_id: Dict[int, Codec] = {}

    def register(self, codec: Codec) -> None:
        if not codec.name:
            raise CodecError("codec must have a name")
        if codec.name in self._by_name:
            raise CodecError(f"codec {codec.name!r} already registered")
        if codec.codec_id in self._by_id:
            raise CodecError(f"codec id {codec.codec_id} already registered")
        self._by_name[codec.name] = codec
        self._by_id[codec.codec_id] = codec

    def get(self, name: str) -> Codec:
        codec = self._by_name.get(name)
        if codec is None:
            raise CodecError(
                f"unknown codec {name!r}; registered: {sorted(self._by_name)}"
            )
        return codec

    def by_id(self, codec_id: int) -> Codec:
        codec = self._by_id.get(codec_id)
        if codec is None:
            raise CodecError(f"unknown codec id {codec_id}")
        return codec

    def names(self) -> list[str]:
        return sorted(self._by_name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name
