import math

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

from aebound import baselines, codec, harness, residual
from aebound.autoencoder import CostConfig
from aebound.errors import FormatError, RangeError
from aebound.optimizer import LbfgsOptions, train


def _segments(knots) -> int:
    return len(knots[0]) - 1


def _ref_ltc_compress(series, bound):
    """The corridor loop over one series: its knots and their decode, checked against the bound."""
    series = np.asarray(series, dtype=np.float64)
    si, sv = 0, float(series[0])
    indices, values = [si], [sv]
    lo, hi = -math.inf, math.inf
    j = 1
    while j < series.shape[0]:
        dt = j - si
        nlo = (series[j] - bound - sv) / dt
        nhi = (series[j] + bound - sv) / dt
        tlo, thi = max(lo, nlo), min(hi, nhi)
        if tlo <= thi:
            lo, hi = tlo, thi
            j += 1
            continue
        # corridor emptied at j: put a knot at j-1 and restart there
        slope = 0.5 * (lo + hi)
        si, sv = j - 1, float(sv + slope * (j - 1 - si))
        indices.append(si)
        values.append(sv)
        lo, hi = -math.inf, math.inf
    slope = 0.5 * (lo + hi) if math.isfinite(lo) and math.isfinite(hi) else 0.0
    last = series.shape[0] - 1
    knots = np.array([*indices, last], dtype=np.int64), np.array([*values, sv + slope * (last - si)])
    decoded = baselines.ltc_decompress(knots)
    if not np.all(np.abs(decoded - series) <= bound):
        raise RangeError(f"LTC decode misses the bound {bound}: readings non-finite or too large "
                         "for its float64 arithmetic")
    return knots, decoded


@st.composite
def _batches(draw):
    """(B, n) random walks with constant rows, alternating rows and signed zeros mixed in."""
    rows, n = draw(st.integers(1, 50)), draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    P = np.cumsum(rng.normal(0.0, draw(st.sampled_from([1e-6, 1.0, 1e3])), (rows, n)), axis=1)
    kind = rng.integers(0, 4, rows)
    P[kind == 1] = P[kind == 1, :1]
    P[kind == 2] = np.where(np.arange(n) % 2, 1.0, -1.0) * P[kind == 2, :1]
    P[rng.random(P.shape) < 0.1] = -0.0
    P[rng.random(P.shape) < 0.05] = 0.0
    return P


class TestLtc:
    def test_perfectly_linear_single_segment(self):
        series = np.linspace(0.0, 10.0, 50)
        for bound in (0.01, 0.5, 3.0):
            knots = baselines.ltc_compress(series, bound)
            assert _segments(knots) == 1

    def test_alternating_series_defeats_ltc(self):
        series = np.array([0.0, 1.0] * 20)
        knots = baselines.ltc_compress(series, 0.1)
        assert _segments(knots) >= len(series) - 2  # nearly one segment per step

    def test_per_index_error_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 60))
            series = rng.normal(0, 5, n)
            bound = float(rng.uniform(0.01, 2.0))
            knots = baselines.ltc_compress(series, bound)
            rec = baselines.ltc_decompress(knots)
            assert rec.shape == series.shape
            assert np.max(np.abs(rec - series)) <= bound + 1e-12

    def test_knots_span_the_series(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            series = np.cumsum(rng.normal(0, 1, int(rng.integers(2, 60))))
            idx, values = baselines.ltc_compress(series, 0.3)
            assert idx.dtype == np.int64 and values.dtype == np.float64
            assert idx[0] == 0 and idx[-1] == len(series) - 1
            assert np.all(np.diff(idx) > 0)
            assert values[0] == series[0]
            assert baselines.ltc_bits((idx, values)) == 32 + 64 * (len(idx) - 1)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            baselines.ltc_compress(np.array([1.0]), 0.1)

    def test_decompress_single_segment(self):
        rec = baselines.ltc_decompress((np.array([0, 10]), np.array([0.0, 5.0])))
        np.testing.assert_allclose(rec, np.linspace(0, 5, 11))

    @pytest.mark.parametrize(
        "knots",
        [
            (np.array([0]), np.array([1.0])),
            (np.array([0, 3, 3, 8]), np.array([0.0, 1.0, 1.0, 2.0])),
            (np.array([0, 5, 2, 8]), np.array([0.0, 1.0, 1.0, 2.0])),
            (np.array([0.0, 8.0]), np.array([0.0, 2.0])),
            (np.array([0, 4, 8]), np.array([0.0, 2.0])),
            (np.array([[0, 8]]), np.array([[0.0, 2.0]])),
            (np.array([0, 8]),),
            (np.array([5, 0], dtype=np.uint64), np.array([0.0, 1.0])),  # np.diff would wrap to > 0
        ],
        ids=["one-knot", "repeated-index", "decreasing-index", "float-indices", "unequal-length", "2-D",
             "no-values", "decreasing-uint64"],
    )
    def test_malformed_knots_rejected(self, knots):
        with pytest.raises(FormatError):
            baselines.ltc_decompress(knots)

    @pytest.mark.parametrize("series", [[1e17, 2.0, 3.0, 2.5], [1e30, 2.0, 3.0]])
    def test_readings_that_dwarf_the_bound_raise(self, series):
        # the corridor arithmetic rounds 1e17 +- 0.1 to 1e17; the decode would put 2.0 at 0.0
        with pytest.raises(RangeError):
            baselines.ltc_compress(series, 0.1)

    def test_decompress_matches_segment_loop(self):
        def loop_decode(idx, values):
            base = idx[0]
            out = np.empty(idx[-1] - base + 1)
            # one segment per consecutive knot pair; a later segment overwrites the knot it shares
            for start, end, v0, v1 in zip(idx, idx[1:], values, values[1:]):
                steps = np.arange(start, end + 1) - start
                out[start - base : end + 1 - base] = v0 + (v1 - v0) * steps / (end - start)
            return out

        rng = np.random.default_rng(2)
        for _ in range(300):
            n_segs = int(rng.integers(1, 9))
            idx = np.cumsum(np.concatenate(([rng.integers(0, 3)], rng.integers(1, 6, n_segs))))
            values = rng.choice([0.0, -0.0, 1.5, -2.25, 1e17, rng.normal(0, 3)], n_segs + 1)
            assert baselines.ltc_decompress((idx, values)).tobytes() == loop_decode(idx, values).tobytes()

    def test_harness_decodes_each_batch_once(self, monkeypatch):
        decodes = []
        decode = baselines.ltc_decompress_batch
        monkeypatch.setattr(baselines, "ltc_decompress_batch", lambda *knots: decodes.append(1) or decode(*knots))
        P = np.cumsum(np.random.default_rng(4).normal(0, 1, (9, 16)), axis=1)
        harness._round_trip("ltc", P, 0, harness.BenchmarkConfig(), 0)(P, 0.2)
        assert len(decodes) == 1

    def test_fewer_segments_at_larger_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            series = np.cumsum(rng.normal(0, 1, 100))
            b1, b2 = sorted(rng.uniform(0.05, 2.0, 2))
            assert _segments(baselines.ltc_compress(series, b1)) >= _segments(baselines.ltc_compress(series, b2))


class TestLtcBatch:
    """`ltc_compress_batch` against the corridor loop run on each row."""

    @given(P=_batches(), bound=st.floats(min_value=1e-9, allow_nan=False))
    @settings(max_examples=150, deadline=None)
    def test_matches_corridor_loop_per_row(self, P, bound):
        try:
            rows = [_ref_ltc_compress(p, bound) for p in P]
        except RangeError as exc:
            with pytest.raises(RangeError) as got:
                baselines.ltc_compress_batch(P, bound)
            assert str(got.value) == str(exc)
            return
        knots, values, decoded = baselines.ltc_compress_batch(P, bound)
        for i, ((idx, vals), q) in enumerate(rows):
            assert np.flatnonzero(knots[i]).tolist() == idx.tolist()
            assert values[i, idx].tobytes() == vals.tobytes()
            assert decoded[i].tobytes() == q.tobytes()
        assert baselines.ltc_bits_batch(knots).tolist() == [baselines.ltc_bits(k) for k, _ in rows]
        assert baselines.ltc_decompress_batch(knots, values).tobytes() == decoded.tobytes()

    @given(P=_batches(), bound=st.floats(1e-9, 0.1), huge=st.sampled_from([1e17, -1e17, 1e30]), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_readings_that_dwarf_the_bound_raise_like_the_loop(self, P, bound, huge, data):
        P[data.draw(st.integers(0, len(P) - 1)), :2] = huge, 2.0  # the decode puts the 2.0 at 0.0
        with pytest.raises(RangeError) as expected:
            [_ref_ltc_compress(p, bound) for p in P]
        with pytest.raises(RangeError) as got:
            baselines.ltc_compress_batch(P, bound)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("shape", [(3,), (2, 1), (2, 3, 4)])
    def test_batch_of_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=r"\(B, n\) batch"):
            baselines.ltc_compress_batch(np.zeros(shape), 0.1)

    def test_empty_batch(self):
        knots, values, decoded = baselines.ltc_compress_batch(np.zeros((0, 5)), 0.1)
        assert knots.shape == values.shape == decoded.shape == (0, 5)

    @pytest.mark.parametrize(
        "knots, values",
        [
            (np.array([[True, False, True]]), np.zeros((1, 2))),
            (np.array([[True, False, False]]), np.zeros((1, 3))),
            (np.array([[False, False, True]]), np.zeros((1, 3))),
            (np.array([[1, 0, 1]]), np.zeros((1, 3))),
            (np.array([True, True]), np.zeros(2)),
            (np.array([[True]]), np.zeros((1, 1))),
        ],
        ids=["shape-mismatch", "no-last-knot", "no-first-knot", "integer-mask", "1-D", "one-sample"],
    )
    def test_malformed_batch_knots_rejected(self, knots, values):
        with pytest.raises(FormatError):
            baselines.ltc_decompress_batch(knots, values)


class TestLzwCore:
    @given(st.binary(max_size=2000))
    @settings(max_examples=200, deadline=None)
    def test_lossless_roundtrip(self, data):
        codes = baselines._lzw_encode(data)
        assert baselines._lzw_decode(codes) == data

    def test_dictionary_reset_roundtrip(self):
        rng = np.random.default_rng(2)
        # long enough to overflow the 4096-entry dictionary several times
        data = bytes(rng.integers(0, 256, 100_000, dtype=np.uint8))
        assert baselines._lzw_decode(baselines._lzw_encode(data)) == data

    def test_code_packing_roundtrip(self):
        rng = np.random.default_rng(3)
        codes = [int(c) for c in rng.integers(0, 4096, 500)]
        packed = baselines._pack_code_rows([codes])[0]
        assert baselines._unpack_code_rows(packed, [0], [len(packed)])[0] == codes

    def test_invalid_code_rejected(self):
        with pytest.raises(FormatError):
            baselines._lzw_decode([0, 4000])  # far beyond the dictionary


class TestTruncatedLzw:
    def test_fraction_bits_hand_example(self):
        # at a 0.1 error bound, 10.51 needs at most 3 fractional bits:
        # round-to-nearest at 2^-3 leaves error <= 0.0625 <= 0.1
        f = baselines._fraction_bits(0.1)
        assert 0.5 / (1 << f) <= 0.1
        assert f == 3
        blob = baselines.lzw_truncated_compress(np.array([10.51]), 0.1)
        back = baselines.lzw_truncated_decompress(blob, 1)
        assert abs(back[0] - 10.51) <= 0.1

    def test_constant_vector_collapses(self):
        p = np.full(1000, 17.25)
        blob = baselines.lzw_truncated_compress(p, 0.1)
        assert len(blob) * 8 < 1000 * 32 / 4  # far smaller than raw

    def test_roundtrip_error_at_f24(self):
        rng = np.random.default_rng(4)
        p = rng.uniform(-100, 100, 200)
        blob = baselines.lzw_truncated_compress(p, 0.0)
        back = baselines.lzw_truncated_decompress(blob, 200)
        assert np.max(np.abs(back - p)) <= 2.0**-25 * (1 << 1)  # half quantization step

    def test_bound_respected_across_bounds(self):
        rng = np.random.default_rng(5)
        for bound in (0.01, 0.1, 0.3, 0.5, 1.0, 5.0):
            p = rng.uniform(-1000, 1000, 100)
            blob = baselines.lzw_truncated_compress(p, bound)
            back = baselines.lzw_truncated_decompress(blob, 100)
            assert np.max(np.abs(back - p)) <= bound

    def test_range_error(self):
        with pytest.raises(RangeError):
            baselines.lzw_truncated_compress(np.array([1e9]), 0.1)

    def test_empty_stream(self):
        assert baselines.lzw_truncated_decompress(b"", 0).shape == (0,)

    def test_corrupt_stream(self):
        blob = baselines.lzw_truncated_compress(np.arange(50.0), 0.1)
        corrupt = blob[:2] + bytes([0xFA, 0x0F]) * 40
        with pytest.raises(FormatError):
            baselines.lzw_truncated_decompress(corrupt, 50)

    @pytest.mark.parametrize("bound", [math.inf, 1e308, 0.5, 7.0])
    def test_loose_bound_needs_no_fraction_bits(self, bound):
        assert baselines._fraction_bits(bound) == 0
        p = np.array([1.2, -3.7, 0.49, 100.5])
        back = baselines.lzw_truncated_decompress(baselines.lzw_truncated_compress(p, bound), 4)
        assert np.array_equal(back, np.rint(p))

    @pytest.mark.parametrize("bound", [1e-310, 5e-324])
    def test_subnormal_bound_takes_the_widest_fraction(self, bound):
        # 1 / (2 * bound) overflows to inf there
        assert baselines._fraction_bits(bound) == baselines._MAX_FRACTION_BITS
        p = np.array([1.5, -2.25, 1e-9, -0.0, 100.0])
        blob = baselines.lzw_truncated_compress(p, bound)
        assert blob == _ref_truncated_compress(p, bound)
        assert np.max(np.abs(baselines.lzw_truncated_decompress(blob, len(p)) - p)) <= 2.0**-25

    @pytest.mark.parametrize("bound", [2.0**-25, 2.0**-25 * 1.5, 2.0**-24, 2.0**-24 * 1.01, 1e-6, 0.3])
    def test_fraction_bits_formula_above_the_subnormal_case(self, bound):
        assert baselines._fraction_bits(bound) == min(24, max(0, math.ceil(math.log2(1.0 / (2.0 * bound)))))

    @pytest.mark.parametrize("header", [[24, 60], [25, 0], [255, 255], [24, 39]])
    def test_header_beyond_writer_rejected(self, header):
        # a blob whose payload is long enough for any width, under a header
        # the compressor never writes (more than 24 fraction bits or 63 bits a reading)
        blob = baselines.lzw_truncated_compress(np.full(64, 1.5), 0.0)
        with pytest.raises(FormatError, match="header"):
            baselines.lzw_truncated_decompress(bytes(header) + blob[2:], 64)

    def test_widest_reading_roundtrips(self):
        # 1 sign + 38 integer + 24 fraction bits = 63, the widest the reader accepts
        p = np.array([2.0**37 + 0.5, -(2.0**38 - 2.0**-14), 0.0])
        blob = _ref_truncated_compress(p, 0.0, integer_bits=38)
        assert np.array_equal(baselines.lzw_truncated_decompress(blob, 3), p)

    @pytest.mark.parametrize("reading", [1e30, -1e19, 2.0**16])
    def test_reading_beyond_int64_or_range_rejected(self, reading):
        # 1e30 used to wrap in the int64 cast and encode as 0
        with pytest.raises(RangeError):
            baselines.lzw_truncated_compress(np.array([0.0, reading]), 0.5)


def _bytes_of(bits: list[int]) -> bytes:
    """MSB-first bytes of a 0/1 list, zero-padded to a whole byte."""
    bits = bits + [0] * (-len(bits) % 8)
    return bytes(int("".join(map(str, bits[i : i + 8])), 2) for i in range(0, len(bits), 8))


def _bits_of(data: bytes) -> list[int]:
    return [(byte >> (7 - b)) & 1 for byte in data for b in range(8)]


def _ref_pack_codes(codes):
    return _bytes_of([(code >> (11 - b)) & 1 for code in codes for b in range(12)])


def _ref_unpack_codes(data):
    bits = _bits_of(data)
    return [
        sum(bit << (11 - j) for j, bit in enumerate(bits[12 * i : 12 * i + 12]))
        for i in range(len(bits) // 12)
    ]


def _ref_truncated_compress(p, bound, integer_bits=16):
    """Sign bit, then the magnitude MSB first, one reading at a time."""
    f = baselines._fraction_bits(bound)
    bits = []
    for x in p:
        q = int(np.rint(x * (1 << f)))
        bits.append(1 if q < 0 else 0)
        bits += [(abs(q) >> (integer_bits + f - 1 - b)) & 1 for b in range(integer_bits + f)]
    payload = _bytes_of(bits)
    return bytes([f, integer_bits]) + _ref_pack_codes(baselines._lzw_encode(payload))


def _ref_truncated_decompress(blob, count):
    f, integer_bits = blob[0], blob[1]
    width = 1 + integer_bits + f
    bits = _bits_of(baselines._lzw_decode(_ref_unpack_codes(blob[2:])))
    out = []
    for i in range(count):
        word = bits[width * i : width * (i + 1)]
        mag = sum(bit << (width - 2 - j) for j, bit in enumerate(word[1:]))
        out.append((-1.0 if word[0] else 1.0) * mag / float(1 << f))
    return np.array(out)


class TestLzwBitParity:
    """The array bit packers against per-bit references written out here."""

    def test_code_packing_matches_reference(self):
        rng = np.random.default_rng(20)
        for size in [0, 1, 2, 3, 7, 64, 501]:
            codes = [int(c) for c in rng.integers(0, 4096, size)]
            if size:
                codes[0], codes[-1] = 4095, 0
            packed = baselines._pack_code_rows([codes])[0]
            assert packed == _ref_pack_codes(codes)
            assert baselines._unpack_code_rows(packed, [0], [len(packed)])[0] == _ref_unpack_codes(packed) == codes

    def test_unpack_matches_reference_on_arbitrary_bytes(self):
        rng = np.random.default_rng(21)
        for size in range(0, 40):
            data = bytes(rng.integers(0, 256, size, dtype=np.uint8))
            assert baselines._unpack_code_rows(data, [0], [len(data)])[0] == _ref_unpack_codes(data)

    @pytest.mark.parametrize("bound, fraction_bits", [(0.0, 24), (0.5, 0), (0.02, 5), (3.0, 0)])
    @pytest.mark.parametrize("integer_bits", [16])  # the writer's width
    def test_truncated_blobs_match_reference(self, bound, fraction_bits, integer_bits):
        rng = np.random.default_rng(22 + fraction_bits + integer_bits)
        top = (2.0 ** (integer_bits + fraction_bits) - 1) / 2.0**fraction_bits  # largest magnitude
        for trial in range(20):
            count = int(rng.integers(1, 40))
            p = rng.uniform(-top, top, count) * rng.choice([1.0, 1e-3])
            p[rng.integers(0, count)] = -0.0
            p[rng.integers(0, count)] = rng.choice([top, -top])
            assert baselines._fraction_bits(bound) == fraction_bits
            blob = baselines.lzw_truncated_compress(p, bound)
            assert blob == _ref_truncated_compress(p, bound, integer_bits)
            back = baselines.lzw_truncated_decompress(blob, count)
            assert back.view(np.uint64).tobytes() == _ref_truncated_decompress(blob, count).view(np.uint64).tobytes()
            assert np.max(np.abs(back - p)) <= (bound if bound else 2.0**-25)

    def test_negative_zero_decodes_as_positive_zero(self):
        blob = baselines.lzw_truncated_compress(np.array([-0.0, -1e-9]), 0.1)
        assert blob == _ref_truncated_compress([-0.0, -1e-9], 0.1)
        assert np.signbit(baselines.lzw_truncated_decompress(blob, 2)).tolist() == [False, False]


class TestTruncatedLzwBatch:
    """The batch truncated-LZW codec against the per-reading references, one row at a time."""

    @given(P=_batches(), bound=st.floats(min_value=1e-9, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_blobs_and_decodes_match_reference_rows(self, P, bound):
        f = baselines._fraction_bits(bound)
        top = (2.0 ** (16 + f) - 1) / 2.0**f  # largest magnitude in fixed-point range
        P = np.clip(P, -top, top)
        blobs = baselines.lzw_truncated_compress_batch(P, bound)
        assert blobs == [_ref_truncated_compress(p, bound) for p in P]
        back = baselines.lzw_truncated_decompress_batch(blobs, P.shape[1])
        expected = np.stack([_ref_truncated_decompress(blob, P.shape[1]) for blob in blobs])
        assert back.view(np.uint64).tobytes() == expected.view(np.uint64).tobytes()

    @given(P=_batches(), bound=st.floats(min_value=1e-9, allow_nan=False), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_reading_out_of_range_raises_like_one_row(self, P, bound, data):
        f = baselines._fraction_bits(bound)
        i = data.draw(st.integers(0, len(P) - 1))
        P[i, data.draw(st.integers(0, P.shape[1] - 1))] = data.draw(st.sampled_from([1e30, -1e19, 2.0**16]))
        limit = (2 ** (16 + f) - 1) / 2.0**f
        message = f"reading outside fixed-point range +-{limit} (integer_bits=16, fraction_bits={f})"
        for call in (lambda: baselines.lzw_truncated_compress_batch(P, bound),
                     lambda: baselines.lzw_truncated_compress(P[i], bound)):
            with pytest.raises(RangeError) as got:
                call()
            assert str(got.value) == message

    def test_empty_batches(self):
        assert baselines.lzw_truncated_compress_batch(np.zeros((0, 4)), 0.1) == []
        assert baselines.lzw_truncated_decompress_batch([], 4).shape == (0, 4)
        blobs = baselines.lzw_truncated_compress_batch(np.zeros((3, 0)), 0.1)
        assert blobs == [bytes([3, 16])] * 3
        assert baselines.lzw_truncated_decompress_batch(blobs, 0).shape == (3, 0)

    def test_blobs_under_different_headers_rejected(self):
        p = np.arange(8.0)
        blobs = [baselines.lzw_truncated_compress(p, 0.1), baselines.lzw_truncated_compress(p, 0.01)]
        with pytest.raises(FormatError, match="share one header"):
            baselines.lzw_truncated_decompress_batch(blobs, 8)

    def test_first_failing_blob_names_the_error(self):
        good = baselines.lzw_truncated_compress(np.arange(50.0), 0.1)
        corrupt = good[:2] + bytes([0xFA, 0x0F]) * 40
        with pytest.raises(FormatError, match="invalid initial LZW code"):
            baselines.lzw_truncated_decompress_batch([good, corrupt, good[:1]], 50)
        with pytest.raises(FormatError, match="missing truncated-LZW header"):
            baselines.lzw_truncated_decompress_batch([good, good[:1], corrupt], 50)
        with pytest.raises(FormatError, match="payload too short"):
            baselines.lzw_truncated_decompress_batch([good, good[:6], corrupt], 50)


class TestHarnessBatchParity:
    """Each harness round trip over a (B, n) matrix equals its rows run one at a time."""

    K = 3
    BOUNDS = (0.05, 0.5)

    @pytest.fixture(scope="class")
    def windows(self):
        cfg = harness.BenchmarkConfig(sensors=4, steps=900, noise_sd=0.02, window=12, seed=5)
        X = harness.load_windows(cfg)
        return X[:120], X[120:]

    @staticmethod
    def _one_at_a_time(method, train_X, k):
        """The per-window round trip `(p, bound) -> (q, bits_code, bits_residual)`, written out."""
        n = train_X.shape[1]

        def patched(p, recon, bound, bits_code):
            """The codec's rule above bound 0: float32 residuals, added to the reconstruction."""
            code = residual.residual_code(p - recon, bound)
            narrow = residual.ResidualCode(code.indicator, code.values.astype(np.float32))
            return recon + residual.residual_decode(narrow, n), bits_code, n + 32 * code.count

        if method in ("ae", "wae"):
            cfg = harness.BenchmarkConfig(optimizer=LbfgsOptions(max_iters=30))
            cost_cfg = CostConfig(variant=method, beta=cfg.beta, eta=cfg.eta, rho=cfg.rho)
            model, _ = train(train_X, n, k, cost_cfg, cfg.optimizer, 11)

            def one(p, bound):
                pkt = codec.compress(p, model, bound)
                return codec.decompress(pkt, model), *codec.packet_size_bits(pkt, n, k)
        elif method == "ltc":
            def one(p, bound):
                knots = baselines.ltc_compress(p, bound)
                return baselines.ltc_decompress(knots), baselines.ltc_bits(knots), 0
        elif method == "lzw":
            def one(p, bound):
                blob = baselines.lzw_truncated_compress(p, bound)
                return baselines.lzw_truncated_decompress(blob, n), baselines.lzw_code_bits(blob), 0
        elif method == "pca":
            basis = baselines.pca_fit(train_X, k)

            def one(p, bound):
                recon = basis.mean + basis.components.T @ (basis.components @ (p - basis.mean))
                return patched(p, recon, bound, 32 * k)
        else:
            def one(p, bound):
                spectrum = scipy.fft.dct(p, norm="ortho")
                keep = np.zeros(n)
                for i in np.argsort(-np.abs(spectrum), kind="stable")[:k]:
                    keep[i] = spectrum[i]
                idx_bits = math.ceil(math.log2(n))
                return patched(p, scipy.fft.idct(keep, norm="ortho"), bound, k * (32 + idx_bits))
        return one

    @pytest.mark.parametrize("batch", [1, 7, 115])
    @pytest.mark.parametrize("method", ["ae", "wae", "pca", "dct", "ltc", "lzw"])
    def test_batch_equals_rows(self, windows, method, batch):
        train_X, test_X = windows
        cfg = harness.BenchmarkConfig(optimizer=LbfgsOptions(max_iters=30))
        round_trip = harness._round_trip(method, train_X, self.K, cfg, 11)
        one = self._one_at_a_time(method, train_X, self.K)
        P = test_X[:batch]
        for bound in self.BOUNDS:
            Q, bits_code, bits_residual = round_trip(P, bound)
            rows = [one(p, bound) for p in P]
            assert Q.shape == P.shape
            assert Q.view(np.uint64).tobytes() == np.stack([q for q, _, _ in rows]).view(np.uint64).tobytes()
            assert np.asarray(bits_code).tolist() == [int(c) for _, c, _ in rows]
            assert np.asarray(bits_residual).tolist() == [int(r) for _, _, r in rows]


class TestPca:
    def test_vector_rejected_with_shape(self):
        with pytest.raises(ValueError, match=r"\(B, n\)"):
            baselines.pca_fit(np.arange(8.0), 2)

    def test_exact_subspace(self):
        rng = np.random.default_rng(6)
        basis = np.linalg.qr(rng.normal(size=(6, 2)))[0].T  # 2 x 6 orthonormal
        data = rng.normal(size=(30, 2)) @ basis + rng.normal(size=6)
        model = baselines.pca_fit(list(data), 2)
        for p in data[:10]:
            rec = baselines.pca_decompress(baselines.pca_compress(p, model), model)
            assert np.max(np.abs(rec - p)) <= 1e-9

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(10, 6))
        for k in (1, 2, 4):
            model = baselines.pca_fit(list(X), k)
            recon = np.stack(
                [baselines.pca_decompress(baselines.pca_compress(p, model), model) for p in X]
            )
            err = np.sum((X - recon) ** 2)
            # oracle: best rank-k approximation of the centered matrix
            mean = X.mean(axis=0)
            u, s, vt = np.linalg.svd(X - mean, full_matrices=False)
            oracle = mean + (u[:, :k] * s[:k]) @ vt[:k]
            err_oracle = np.sum((X - oracle) ** 2)
            assert abs(err - err_oracle) <= 1e-9

    def test_components_orthonormal(self):
        rng = np.random.default_rng(8)
        model = baselines.pca_fit(list(rng.normal(size=(20, 7))), 4)
        gram = model.components @ model.components.T
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-9)

    def test_full_basis_reconstructs_training_span(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(30, 5))
        model = baselines.pca_fit(list(X), 5)
        for p in X[:5]:
            rec = baselines.pca_decompress(baselines.pca_compress(p, model), model)
            assert np.max(np.abs(rec - p)) <= 1e-9

    def test_error_non_increasing_in_k(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(25, 8))
        errs = []
        for k in range(1, 9):
            model = baselines.pca_fit(list(X), k)
            errs.append(
                sum(
                    float(np.sum((p - baselines.pca_decompress(baselines.pca_compress(p, model), model)) ** 2))
                    for p in X
                )
            )
        assert all(b <= a + 1e-9 for a, b in zip(errs, errs[1:]))

    def test_rank_error(self):
        X = np.outer(np.arange(5.0), np.ones(4))  # centered rank 1
        with pytest.raises(ValueError):
            baselines.pca_fit(list(X), 3)


class TestDct:
    def test_constant_vector_dc_only(self):
        p = np.full(16, 3.5)
        pairs = baselines.dct_compress(p, 1)
        assert pairs[0][0] == 0
        rec = baselines.dct_decompress(pairs, 16)
        np.testing.assert_allclose(rec, p, atol=1e-12)

    def test_full_spectrum_exact(self):
        rng = np.random.default_rng(11)
        p = rng.normal(size=12)
        rec = baselines.dct_decompress(baselines.dct_compress(p, 12), 12)
        assert np.max(np.abs(rec - p)) <= 1e-9

    def test_orthonormality(self):
        n = 16
        basis = np.stack([
            baselines.dct_decompress([(i, 1.0)], n) for i in range(n)
        ])  # rows = inverse transform of unit spectra = DCT basis vectors
        np.testing.assert_allclose(basis @ basis.T, np.eye(n), atol=1e-9)

    def test_parseval(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            p = rng.normal(size=20)
            pairs = baselines.dct_compress(p, 20)
            energy = sum(c * c for _, c in pairs)
            assert abs(energy - float(np.sum(p**2))) <= 1e-9

    def test_matches_cosine_sum_oracle(self):
        rng = np.random.default_rng(13)
        n = 10
        p = rng.normal(size=n)
        pairs = dict(baselines.dct_compress(p, n))
        for j in range(n):
            scale = math.sqrt(1.0 / n) if j == 0 else math.sqrt(2.0 / n)
            oracle = scale * sum(p[i] * math.cos(math.pi * j * (2 * i + 1) / (2 * n)) for i in range(n))
            assert pairs[j] == pytest.approx(oracle, abs=1e-12)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            baselines.dct_compress(np.zeros(4), 5)
        with pytest.raises(ValueError):
            baselines.dct_compress(np.zeros(4), 0)

    def test_batch_rejects_vector_and_bad_indices(self):
        with pytest.raises(ValueError, match=r"\(B, n\)"):
            baselines.dct_compress_batch(np.zeros(4), 2)
        with pytest.raises(FormatError, match="index 16"):
            baselines.dct_decompress([(3, 1.0), (16, 1.0)], 16)
        with pytest.raises(FormatError, match="index -1"):
            baselines.dct_decompress_batch(np.array([[0, 1], [-1, 2]]), np.ones((2, 2)), 4)
