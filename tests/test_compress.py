"""Unit, property, differential and mutation tests for the compression package."""

import time
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress import (
    CodecRegistry,
    GzipCodec,
    NoneCodec,
    SnappyClassCodec,
    ZstdClassCodec,
    default_registry,
    get_codec,
)
from repro.compress import huffman, szlike
from repro.compress.codec import (
    decode_varint,
    decode_varints,
    encode_varint,
    encode_varints,
)
from repro.compress.lz77 import compress_tokens, decompress_tokens
from repro.errors import CodecError

ALL_CODECS = [NoneCodec(), SnappyClassCodec(), GzipCodec(), ZstdClassCodec()]


def compressible_blob(nbytes: int = 50_000, seed: int = 7) -> bytes:
    """Float-ish scientific data: smooth series with repeated structure."""
    rng = np.random.default_rng(seed)
    base = np.cumsum(rng.normal(0, 0.01, nbytes // 8))
    return np.round(base, 3).tobytes()


def reference_decompress_tokens(body: bytes, orig_size: int) -> bytes:
    """Scalar token decoder: the oracle for the vectorized one in ``lz77``.

    One token at a time, checking each length against ``orig_size``
    before copying.  Unlike the vectorized decoder it does not reject a
    stream that expands short of ``orig_size``; the frame check does.
    """
    out = bytearray()
    pos = 0
    n = len(body)
    while pos < n:
        tag, pos = decode_varint(body, pos)
        if tag & 1:
            length = tag >> 1
            offset, pos = decode_varint(body, pos)
            if offset <= 0 or offset > len(out):
                raise CodecError(f"match offset {offset} out of range at {len(out)}")
            if len(out) + length > orig_size:
                raise CodecError("token stream expands past declared size")
            start = len(out) - offset
            if offset >= length:
                out += out[start : start + length]
            else:
                pattern = bytes(out[start:])
                repeats, remainder = divmod(length, offset)
                out += pattern * repeats + pattern[:remainder]
        else:
            run = tag >> 1
            if pos + run > n:
                raise CodecError("truncated literal run")
            if len(out) + run > orig_size:
                raise CodecError("token stream expands past declared size")
            out += body[pos : pos + run]
            pos += run
    return bytes(out)


def reference_huffman_decode(body: bytes, nsymbols: int) -> bytes:
    """Scalar Huffman decoder, one symbol at a time: the oracle for ``huffman.decode``."""
    lengths = huffman._unpack_lengths(body[:128])
    payload = body[128:]
    if nsymbols == 0:
        return b""
    if not any(lengths):
        raise CodecError("empty Huffman header")
    max_len = max(lengths)
    if sum(1 << (max_len - length) for length in lengths if length) > 1 << max_len:
        raise CodecError("Kraft inequality violated")
    codes = huffman.canonical_codes(lengths)
    table_sym = [0] * (1 << max_len)
    table_len = [0] * (1 << max_len)
    for sym, length in enumerate(lengths):
        if length:
            base = codes[sym] << (max_len - length)
            for idx in range(base, base + (1 << (max_len - length))):
                table_sym[idx] = sym
                table_len[idx] = length
    out = bytearray()
    acc = nbits = ptr = 0
    mask = (1 << max_len) - 1
    for _ in range(nsymbols):
        while nbits < max_len and ptr < len(payload):
            acc = (acc << 8) | payload[ptr]
            ptr += 1
            nbits += 8
        idx = (acc << max_len >> nbits) & mask
        length = table_len[idx]
        if length == 0 or length > nbits:
            raise CodecError("corrupt Huffman payload")
        out.append(table_sym[idx])
        nbits -= length
        acc &= (1 << nbits) - 1
    return bytes(out)


def reference_decompress(codec, frame: bytes) -> bytes:
    """``Codec.decompress`` built on the scalar reference decoders."""
    if len(frame) < 7 or frame[:2] != b"PC" or frame[2] != codec.codec_id:
        raise CodecError("bad frame")
    orig_size, pos = decode_varint(frame, 3)
    if pos + 4 > len(frame):
        raise CodecError("truncated frame header")
    checksum = int.from_bytes(frame[pos : pos + 4], "little")
    body = frame[pos + 4 :]
    if codec.name == "snappy":
        data = reference_decompress_tokens(body, orig_size)
    elif codec.name == "zstd":
        token_len, start = decode_varint(body, 0)
        tokens = reference_huffman_decode(body[start:], token_len)
        data = reference_decompress_tokens(tokens, orig_size)
    else:
        try:
            data = zlib.decompress(body)
        except zlib.error as exc:
            raise CodecError(str(exc)) from exc
    if len(data) != orig_size or zlib.adler32(data) & 0xFFFFFFFF != checksum:
        raise CodecError("size or checksum mismatch")
    return data


def reference_decode_varints(buf: bytes, count: int) -> np.ndarray:
    """Scalar twin of ``szlike._decode_varints``."""
    out = []
    pos = 0
    for _ in range(count):
        value, pos = decode_varint(buf, pos)
        if value >= 1 << 64:
            raise CodecError("varint longer than 64 bits")
        out.append(value)
    if pos != len(buf):
        raise CodecError("trailing bytes")
    return np.array(out, dtype=np.uint64)


def outcome(fn, *args):
    """``fn(*args)``, or ``CodecError`` (the class) if it raised one."""
    try:
        return fn(*args)
    except CodecError:
        return CodecError


def mutants(frame: bytes, seed: int, count: int):
    """Seeded corruptions of ``frame``: byte overwrites, bit flips, truncations."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        buf = bytearray(frame)
        kind = int(rng.integers(3))
        if kind == 0:
            for pos in rng.integers(0, len(buf), size=int(rng.integers(1, 4))):
                buf[pos] = int(rng.integers(256))
        elif kind == 1:
            buf[int(rng.integers(len(buf)))] ^= 1 << int(rng.integers(8))
        else:
            del buf[int(rng.integers(len(buf))) :]
        yield bytes(buf)


#: Upper bound on decoding any one corrupted frame (they are a few KB).
MUTANT_WALL_S = 1.0


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**32, 2**40 + 5])
    def test_roundtrip(self, value):
        encoded = encode_varint(value)
        decoded, pos = decode_varint(encoded)
        assert decoded == value
        assert pos == len(encoded)

    def test_negative_rejected(self):
        with pytest.raises(CodecError):
            encode_varint(-1)

    def test_truncated_rejected(self):
        with pytest.raises(CodecError):
            decode_varint(b"\x80\x80")

    @given(st.integers(min_value=0, max_value=2**63 - 1))
    def test_roundtrip_property(self, value):
        decoded, _ = decode_varint(encode_varint(value))
        assert decoded == value

    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=50))
    def test_vector_encode_matches_scalar(self, values):
        encoded = encode_varints(np.array(values, dtype=np.uint64))
        assert encoded == b"".join(encode_varint(v) for v in values)

    @given(st.binary(max_size=40), st.booleans())
    @settings(max_examples=200)
    def test_vector_decode_at_every_position_matches_scalar(self, data, dense):
        arr = np.frombuffer(data, dtype=np.uint8)
        if dense:  # mostly continuation bytes: long and truncated varints
            arr = arr | np.uint8(0x80) * (np.arange(len(arr)) % 7 != 0)
        values, sizes = decode_varints(arr)
        for pos in range(len(arr)):
            try:
                value, end = decode_varint(arr.tobytes(), pos)
            except CodecError:
                value, end = None, pos
            if value is None or value >= 1 << 64:
                assert sizes[pos] == 0
            else:
                assert (int(values[pos]), int(sizes[pos])) == (value, end - pos)


class TestLz77:
    def test_empty(self):
        assert decompress_tokens(compress_tokens(b"", window=64), 0) == b""

    def test_tiny(self):
        data = b"abc"
        assert decompress_tokens(compress_tokens(data, window=64), 3) == data

    def test_repetitive_compresses(self):
        data = b"abcdefgh" * 4096
        tokens = compress_tokens(data, window=65536)
        assert len(tokens) < len(data) // 10
        assert decompress_tokens(tokens, len(data)) == data

    def test_overlapping_match_rle(self):
        data = b"a" * 10_000
        tokens = compress_tokens(data, window=65536)
        assert len(tokens) < 100
        assert decompress_tokens(tokens, len(data)) == data

    def test_random_data_roundtrips(self):
        data = np.random.default_rng(1).bytes(20_000)
        tokens = compress_tokens(data, window=65536)
        assert decompress_tokens(tokens, len(data)) == data

    def test_chained_search_never_worse(self):
        data = compressible_blob(30_000)
        greedy = compress_tokens(data, window=1 << 20, max_chain=1)
        chained = compress_tokens(data, window=1 << 20, max_chain=8)
        assert decompress_tokens(chained, len(data)) == data
        assert len(chained) <= len(greedy) * 1.02

    def test_bad_offset_rejected(self):
        # match len=4 offset=9 with empty history
        bad = encode_varint((4 << 1) | 1) + encode_varint(9)
        with pytest.raises(CodecError):
            decompress_tokens(bad, 4)

    def test_truncated_literal_rejected(self):
        bad = encode_varint(10 << 1) + b"abc"
        with pytest.raises(CodecError):
            decompress_tokens(bad, 10)

    @given(st.binary(min_size=0, max_size=4096))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, data):
        tokens = compress_tokens(data, window=65536)
        assert decompress_tokens(tokens, len(data)) == data

    @pytest.mark.parametrize("length", [2**31, 2**40])
    def test_huge_match_rejected_before_allocating(self, length):
        # One literal byte, then a match far past the declared 10 bytes.
        stream = encode_varint(1 << 1) + b"x" + encode_varint((length << 1) | 1) + b"\x01"
        assert len(stream) <= 20
        frame = (
            b"PC\x01" + encode_varint(10) + (zlib.adler32(b"x" * 10)).to_bytes(4, "little")
        )
        for decode in (
            lambda: decompress_tokens(stream, 10),
            lambda: SnappyClassCodec().decompress(frame + stream),
        ):
            start = time.perf_counter()
            with pytest.raises(CodecError):
                decode()
            assert time.perf_counter() - start < 0.1

    def test_short_expansion_rejected(self):
        with pytest.raises(CodecError):
            decompress_tokens(encode_varint(3 << 1) + b"abc", 4)

    @pytest.mark.parametrize("good_tokens", [0, 1, 15, 31, 32, 33, 63, 64, 65, 127])
    def test_malformed_token_after_any_number_of_good_ones(self, good_tokens):
        # The chain walk strides over tokens; a bad one may sit anywhere.
        good = (encode_varint(1 << 1) + b"x") * good_tokens
        match = encode_varint((2 << 1) | 1)
        for bad in (
            encode_varint(5 << 1) + b"ab",  # truncated literal
            match + b"\x80",  # truncated offset
            match + encode_varint(good_tokens + 1),  # offset before the start
        ):
            for size in (good_tokens + 2, good_tokens + 5):
                with pytest.raises(CodecError):
                    decompress_tokens(good + bad, size)

    @pytest.mark.parametrize(
        "bad",
        [
            b"\x80",  # truncated tag varint
            encode_varint((4 << 1) | 1),  # match without its offset
            encode_varint(2 << 1) + b"ab" + encode_varint((4 << 1) | 1) + b"\x80",
            b"\xff" * 11 + b"\x00",  # tag varint longer than 10 bytes
            encode_varint(2 << 1) + b"ab" + encode_varint(3) + b"\xff" * 9 + b"\x7f",
            encode_varint(2 << 1) + b"ab" + encode_varint((1 << 1) | 1) + b"\x00",
        ],
    )
    def test_malformed_streams_rejected(self, bad):
        with pytest.raises(CodecError):
            decompress_tokens(bad, 8)
        with pytest.raises(CodecError):
            reference_decompress_tokens(bad, 8)


@st.composite
def token_streams(draw):
    """Hand-built token streams with overlapping matches and long literals."""
    body = bytearray()
    produced = 0
    for _ in range(draw(st.integers(1, 8))):
        if not produced or draw(st.booleans()):
            # 8,192+ byte runs need a 3-byte tag varint.
            run = draw(st.one_of(st.integers(0, 40), st.integers(8192, 20_000)))
            seed = draw(st.integers(0, 2**32 - 1))
            body += encode_varint(run << 1) + np.random.default_rng(seed).bytes(run)
            produced += run
        else:
            offset = draw(st.one_of(st.just(1), st.integers(1, min(produced, 70_000))))
            length = draw(st.one_of(st.integers(0, 64), st.integers(offset, 65_535)))
            body += encode_varint((length << 1) | 1) + encode_varint(offset)
            produced += length
    return bytes(body)


class TestLz77Differential:
    """The vectorized decoder against the scalar reference."""

    @given(token_streams())
    @settings(max_examples=60, deadline=None)
    def test_hand_built_streams(self, body):
        expected = reference_decompress_tokens(body, 1 << 62)
        assert decompress_tokens(body, len(expected)) == expected

    @given(st.integers(0, 2**32 - 1), st.integers(0, 30_000), st.sampled_from([1, 8]))
    @settings(max_examples=20, deadline=None)
    def test_compressible_blob_tokens(self, seed, nbytes, max_chain):
        data = compressible_blob(nbytes, seed=seed)
        tokens = compress_tokens(data, window=1 << 20, max_chain=max_chain)
        assert reference_decompress_tokens(tokens, len(data)) == data
        assert decompress_tokens(tokens, len(data)) == data

    @pytest.mark.parametrize("codec", [SnappyClassCodec(), ZstdClassCodec()], ids=lambda c: c.name)
    @given(
        prefix=st.binary(max_size=64),
        pattern=st.binary(min_size=1, max_size=9),
        repeats=st.integers(0, 8000),
        blob_seed=st.integers(0, 2**32 - 1),
        blob_size=st.integers(0, 6000),
    )
    @settings(max_examples=25, deadline=None)
    def test_frames(self, codec, prefix, pattern, repeats, blob_seed, blob_size):
        data = prefix + pattern * repeats + compressible_blob(blob_size, seed=blob_seed)
        frame = codec.compress(data)
        assert codec.decompress(frame) == data
        assert reference_decompress(codec, frame) == data


class TestHuffman:
    def test_empty(self):
        assert huffman.decode(huffman.encode(b""), 0) == b""

    def test_single_symbol(self):
        data = b"z" * 1000
        encoded = huffman.encode(data)
        assert len(encoded) < 300
        assert huffman.decode(encoded, 1000) == data

    def test_two_symbols(self):
        data = b"ab" * 500
        assert huffman.decode(huffman.encode(data), 1000) == data

    def test_skewed_beats_uniform(self):
        skewed = bytes([0] * 900 + list(range(100)))
        uniform = bytes(list(range(256)) * 4)[: len(skewed)]
        assert len(huffman.encode(skewed)) < len(huffman.encode(uniform))

    def test_code_lengths_kraft_inequality(self):
        freqs = list(np.random.default_rng(3).integers(0, 1000, 256))
        lengths = huffman.code_lengths([int(f) for f in freqs])
        kraft = sum(2.0 ** -l for l in lengths if l > 0)
        assert kraft <= 1.0 + 1e-9

    def test_length_cap_respected_on_pathological_freqs(self):
        # Fibonacci frequencies force deep trees in unbounded Huffman.
        freqs = [0] * 256
        a, b = 1, 1
        for i in range(40):
            freqs[i] = a
            a, b = b, a + b
        lengths = huffman.code_lengths(freqs)
        assert max(lengths) <= huffman.MAX_CODE_BITS
        assert all(lengths[i] > 0 for i in range(40))

    @given(st.binary(min_size=0, max_size=2048))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, data):
        assert huffman.decode(huffman.encode(data), len(data)) == data

    @given(st.binary(min_size=1, max_size=3000), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_reference(self, data, cut):
        encoded = huffman.encode(data)
        assert huffman.decode(encoded, len(data)) == data
        assert reference_huffman_decode(encoded, len(data)) == data
        truncated = encoded[: len(encoded) - cut]
        assert outcome(huffman.decode, truncated, len(data)) == outcome(
            reference_huffman_decode, truncated, len(data)
        )

    def test_kraft_violation_rejected(self):
        # Three 1-bit codes cannot exist; the prefix table would overflow.
        header = bytes([0x11, 0x10]) + bytes(126)
        with pytest.raises(CodecError):
            huffman.decode(header + b"\xff" * 8, 10)

    def test_symbol_count_beyond_payload_rejected(self):
        encoded = huffman.encode(b"abc" * 10)
        with pytest.raises(CodecError):
            huffman.decode(encoded, 1 << 40)

    def test_random_headers_raise_codec_error_only(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            header = rng.integers(0, 256, size=128, dtype=np.uint8)
            header &= rng.choice([0x11, 0x33, 0x77, 0xFF]).astype(np.uint8)
            body = header.tobytes() + rng.bytes(int(rng.integers(0, 64)))
            nsymbols = int(rng.integers(1, 400))
            result = outcome(huffman.decode, body, nsymbols)
            assert result is CodecError or len(result) == nsymbols
            assert result == outcome(reference_huffman_decode, body, nsymbols)


class TestCodecs:
    @pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
    def test_roundtrip_compressible(self, codec):
        data = compressible_blob()
        assert codec.decompress(codec.compress(data)) == data

    @pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
    def test_roundtrip_random(self, codec):
        data = np.random.default_rng(5).bytes(10_000)
        assert codec.decompress(codec.compress(data)) == data

    @pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
    def test_roundtrip_empty(self, codec):
        assert codec.decompress(codec.compress(b"")) == b""

    def test_ratio_ordering_on_structured_data(self):
        # Paper Figure 6 premise: zstd >= gzip-ish > snappy > none on
        # scientific data. We require the coarse ordering: both LZ codecs
        # compress, and zstd compresses at least as well as snappy.
        data = compressible_blob(200_000)
        sizes = {c.name: len(c.compress(data)) for c in ALL_CODECS}
        assert sizes["snappy"] < sizes["none"]
        assert sizes["gzip"] < sizes["snappy"]
        assert sizes["zstd"] < sizes["snappy"]

    def test_checksum_detects_corruption(self):
        codec = SnappyClassCodec()
        frame = bytearray(codec.compress(b"hello world" * 100))
        frame[-1] ^= 0xFF
        with pytest.raises(CodecError):
            codec.decompress(bytes(frame))

    def test_wrong_codec_rejected(self):
        frame = SnappyClassCodec().compress(b"data")
        with pytest.raises(CodecError):
            GzipCodec().decompress(frame)

    def test_bad_magic_rejected(self):
        with pytest.raises(CodecError):
            NoneCodec().decompress(b"XX\x00\x00\x00\x00\x00\x00")

    @given(st.binary(min_size=0, max_size=4096))
    @settings(max_examples=30, deadline=None)
    def test_zstd_roundtrip_property(self, data):
        codec = ZstdClassCodec()
        assert codec.decompress(codec.compress(data)) == data


class TestMutatedFrames:
    """Corrupted frames decode to the reference's bytes or raise CodecError."""

    @pytest.mark.parametrize(
        "codec", [SnappyClassCodec(), ZstdClassCodec(), GzipCodec()], ids=lambda c: c.name
    )
    def test_matches_reference(self, codec):
        inputs = [
            compressible_blob(6_000, seed=1),
            b"abcab" * 900 + np.random.default_rng(2).bytes(1500),
        ]
        for i, data in enumerate(inputs):
            for mutant in mutants(codec.compress(data), seed=100 * codec.codec_id + i, count=150):
                start = time.perf_counter()
                got = outcome(codec.decompress, mutant)
                assert time.perf_counter() - start < MUTANT_WALL_S
                assert got == outcome(reference_decompress, codec, mutant)

    def test_sz_frames(self, monkeypatch):
        values = np.cumsum(np.random.default_rng(4).normal(0, 0.01, 1500))
        values[[3, 700]] = [np.nan, np.inf]
        frame = szlike.compress_lossy(values, 1e-3)
        for mutant in mutants(frame, seed=9, count=300):
            start = time.perf_counter()
            got = outcome(szlike.decompress_lossy, mutant)
            assert time.perf_counter() - start < MUTANT_WALL_S
            with monkeypatch.context() as patch:
                patch.setattr(szlike, "_decode_varints", reference_decode_varints)
                expected = outcome(szlike.decompress_lossy, mutant)
            if got is CodecError or expected is CodecError:
                assert got is expected
            else:
                assert got.tobytes() == expected.tobytes()

    def test_sz_truncated_exception_list(self):
        values = np.array([1.0, np.nan, 2.0, np.inf])
        frame = szlike.compress_lossy(values, 1e-3)
        # Header: magic, bound, n, exception count, then (index, float64) pairs.
        for cut in range(12, 30):
            with pytest.raises(CodecError):
                szlike.decompress_lossy(frame[:cut])


class TestRegistry:
    def test_default_registry_has_all_four(self):
        assert default_registry().names() == ["gzip", "none", "snappy", "zstd"]

    def test_get_codec(self):
        assert get_codec("zstd").name == "zstd"

    def test_unknown_codec(self):
        with pytest.raises(CodecError):
            get_codec("lz4")

    def test_duplicate_registration_rejected(self):
        registry = CodecRegistry()
        registry.register(NoneCodec())
        with pytest.raises(CodecError):
            registry.register(NoneCodec())

    def test_lookup_by_id(self):
        assert default_registry().by_id(3).name == "zstd"
