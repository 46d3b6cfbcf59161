"""Unit tests for the bit-accurate quantized operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capsnet.hwops import (
    HardwareLuts,
    QuantizedFormats,
    SaturationCounter,
    StagedWeights,
    _chunked_accumulation,
    hw_norm,
    hw_relu,
    hw_softmax,
    hw_squash,
    quantized_conv2d,
    quantized_matmul,
    saturating_matmul,
)
from repro.capsnet.ops import conv2d, softmax, squash
from repro.fixedpoint.formats import QFormat
from repro.fixedpoint.quantize import from_raw, to_raw


@pytest.fixture(scope="module")
def fmts():
    return QuantizedFormats()


@pytest.fixture(scope="module")
def luts(fmts):
    return HardwareLuts.build(fmts)


class TestQuantizedMatmul:
    def test_matches_int_matmul(self, fmts, rng):
        acc_fmt = fmts.acc(fmts.caps_data, fmts.classcaps_weight)
        a = rng.integers(-100, 100, size=(5, 7))
        b = rng.integers(-100, 100, size=(7, 3))
        out = quantized_matmul(a, b, acc_fmt)
        assert np.array_equal(out, a @ b)

    def test_saturation_counted(self, fmts, rng):
        acc_fmt = fmts.acc(fmts.caps_data, fmts.classcaps_weight)
        a = np.full((1, 4000), 127, dtype=np.int64)
        b = np.full((4000, 1), 127, dtype=np.int64)
        counter = SaturationCounter()
        out = quantized_matmul(a, b, acc_fmt, counter, site="big")
        assert out[0, 0] == acc_fmt.raw_max
        assert counter.events == 1
        assert counter.sites["big"] == 1

    def test_counter_rate(self):
        counter = SaturationCounter()
        counter.record("x", np.array([0, 1, 10**9]), QuantizedFormats().logits)
        assert counter.rate == pytest.approx(1 / 3)


@st.composite
def matmul_cases(draw):
    """A ``saturating_matmul`` case; ``edge`` puts every row's bound
    ``rowsum * max|w|`` exactly at ``limit`` (0) or one past it (1)."""
    signed = draw(st.booleans())
    edge = draw(st.sampled_from([None, 0, 1]))
    acc_bits = draw(st.integers(4, 14) if edge is not None else st.integers(4, 26))
    acc_fmt = QFormat(acc_bits, 0, signed=signed)
    stacked = draw(st.booleans())
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    lead, m, n = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    chunk_rows = draw(st.integers(1, 5))
    limit = min(acc_fmt.raw_max, -acc_fmt.raw_min)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w_shape = ((lead,) if stacked else ()) + (0, n)
    if edge is None:
        k = draw(st.integers(1, 12))
        data = rng.integers(-128, 128, size=(lead, m, k))
        weights = rng.integers(-128, 128, size=w_shape[:-2] + (k, n))
    else:
        # max|w| = 1 and every row's magnitudes sum to limit + edge.
        target = limit + edge
        k = max(-(-target // 127), 1) + draw(st.integers(0, 3))
        row = np.zeros(k, dtype=np.int64)
        for index in range(target):
            row[index % k] += 1
        signs = rng.choice([-1, 1], size=(lead, m, k))
        data = row * signs
        weights = rng.integers(-1, 2, size=w_shape[:-2] + (k, n))
        weights.reshape(-1)[0] = 1
    return data.astype(dtype), weights.astype(dtype), acc_fmt, chunk_rows


class TestSaturatingMatmul:
    @given(case=matmul_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_int64_chunked_reference(self, case):
        data, weights, acc_fmt, chunk_rows = case
        staged = StagedWeights(weights, acc_fmt)
        expected = _chunked_accumulation(
            data.astype(np.int64), weights.astype(np.int64), acc_fmt, chunk_rows
        )
        # The format's static bound, an exact row sum, and none at all; on
        # the integer codes and on a copy already in the tile's float dtype.
        k = data.shape[-1]
        for operand in (data, data.astype(staged.float.dtype)):
            for rowsum in (None, k * 128, np.abs(data).sum(axis=-1).max()):
                got = saturating_matmul(operand, staged, acc_fmt, chunk_rows, rowsum)
                assert got.dtype == staged.raw.dtype
                assert got.shape == expected.shape
                assert np.array_equal(got, expected)

    def test_float_data_past_its_exact_range_is_refused(self):
        # One chunk sums (2**24 + 1) - 2**24 = 1; float32 rounds the first
        # code to 2**24, so the chunk loop would read 0 from a float copy.
        acc_fmt = QFormat(25, 0)
        staged = StagedWeights(np.ones((2, 1), dtype=np.int32), acc_fmt)
        assert staged.float.dtype == np.float32
        codes = np.array([[2**24 + 1, -(2**24)]])
        assert saturating_matmul(codes, staged, acc_fmt, chunk_rows=2)[0, 0] == 1
        with pytest.raises(ValueError, match="exact integer range"):
            saturating_matmul(codes.astype(np.float32), staged, acc_fmt, chunk_rows=2)

    def test_int32_codes_stay_int32(self):
        weights = np.ones((3, 2), dtype=np.int32)
        assert StagedWeights(weights, QFormat(25, 0)).raw.dtype == np.int32
        assert StagedWeights(weights, QFormat(40, 0)).raw.dtype == np.int64
        assert StagedWeights(weights.astype(np.int64), QFormat(25, 0)).raw.dtype == np.int64


class TestQuantizedConv:
    def test_matches_float_conv_on_grid(self, fmts, rng):
        # Values on the exact fixed-point grid convolve identically.
        x = from_raw(rng.integers(-50, 50, size=(2, 6, 6)), fmts.conv1_out)
        w = from_raw(rng.integers(-30, 30, size=(3, 2, 3, 3)), fmts.primary_weight)
        acc_fmt = fmts.acc(fmts.conv1_out, fmts.primary_weight)
        raw_out = quantized_conv2d(
            to_raw(x, fmts.conv1_out),
            to_raw(w, fmts.primary_weight),
            None,
            stride=1,
            acc_fmt=acc_fmt,
        )
        expected = conv2d(x, w, None, stride=1)
        assert np.allclose(from_raw(raw_out, acc_fmt), expected)

    def test_bias_in_acc_format(self, fmts, rng):
        acc_fmt = fmts.acc(fmts.conv1_out, fmts.primary_weight)
        x_raw = rng.integers(-20, 20, size=(1, 4, 4))
        w_raw = rng.integers(-20, 20, size=(2, 1, 3, 3))
        bias_raw = np.array([100, -100])
        with_bias = quantized_conv2d(x_raw, w_raw, bias_raw, 1, acc_fmt)
        without = quantized_conv2d(x_raw, w_raw, None, 1, acc_fmt)
        assert np.array_equal(with_bias - without, np.broadcast_to(
            bias_raw[:, np.newaxis, np.newaxis], with_bias.shape))


class TestHwRelu:
    def test_zeroes_negative_codes(self):
        assert list(hw_relu(np.array([-5, 0, 5]))) == [0, 0, 5]


class TestHwNorm:
    def test_norm_close_to_float(self, fmts, luts, rng):
        vec = rng.uniform(-1.5, 1.5, size=(20, 8))
        vec_raw = to_raw(vec, fmts.primary_preact)
        norm_raw, _ = hw_norm(vec_raw, fmts.primary_preact, luts, fmts)
        got = from_raw(norm_raw, fmts.norm)
        exact = np.linalg.norm(from_raw(vec_raw, fmts.primary_preact), axis=-1)
        exact = np.minimum(exact, fmts.norm.max_value)
        assert np.max(np.abs(got - exact)) < 0.2

    def test_zero_vector(self, fmts, luts):
        vec_raw = np.zeros((1, 16), dtype=np.int64)
        norm_raw, sumsq = hw_norm(vec_raw, fmts.primary_preact, luts, fmts)
        assert norm_raw[0] == 0
        assert sumsq[0] == 0

    def test_sumsq_monotonic_in_magnitude(self, fmts, luts):
        small = to_raw(np.full((1, 4), 0.25), fmts.caps_data)
        large = to_raw(np.full((1, 4), 0.75), fmts.caps_data)
        _, sumsq_small = hw_norm(small, fmts.caps_data, luts, fmts)
        _, sumsq_large = hw_norm(large, fmts.caps_data, luts, fmts)
        assert sumsq_large[0] > sumsq_small[0]


class TestHwSquash:
    def test_close_to_float_squash(self, fmts, luts, rng):
        vec = rng.uniform(-1.0, 1.0, size=(30, 8))
        vec_raw = to_raw(vec, fmts.primary_preact)
        out_raw = hw_squash(vec_raw, fmts.primary_preact, luts, fmts)
        got = from_raw(out_raw, fmts.caps_data)
        exact = squash(from_raw(vec_raw, fmts.primary_preact), axis=-1)
        assert np.max(np.abs(got - exact)) < 0.15

    def test_output_bounded(self, fmts, luts, rng):
        vec_raw = to_raw(rng.uniform(-6, 6, size=(50, 16)), fmts.primary_preact)
        out = from_raw(
            hw_squash(vec_raw, fmts.primary_preact, luts, fmts), fmts.caps_data
        )
        # Squashed components stay strictly inside (-1, 1) up to quantization.
        assert np.abs(out).max() <= 1.0 + fmts.caps_data.resolution

    def test_zero_maps_to_zero(self, fmts, luts):
        out = hw_squash(np.zeros((2, 8), dtype=np.int64), fmts.primary_preact, luts, fmts)
        assert np.all(out == 0)


class TestHwSoftmax:
    def test_rows_sum_close_to_one(self, fmts, luts, rng):
        logits_raw = rng.integers(-60, 60, size=(40, 10))
        c_raw = hw_softmax(logits_raw, luts, fmts, axis=1)
        sums = from_raw(c_raw, fmts.coupling).sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 0.08

    def test_uniform_for_zero_logits(self, fmts, luts):
        c_raw = hw_softmax(np.zeros((3, 8), dtype=np.int64), luts, fmts, axis=1)
        expected = round((1 / 8) * (1 << fmts.coupling.frac_bits))
        assert np.all(np.abs(c_raw - expected) <= 1)

    def test_close_to_float_softmax(self, fmts, luts, rng):
        logits = rng.uniform(-3, 3, size=(20, 10))
        logits_raw = to_raw(logits, fmts.logits)
        got = from_raw(hw_softmax(logits_raw, luts, fmts, axis=1), fmts.coupling)
        exact = softmax(from_raw(logits_raw, fmts.logits), axis=1)
        assert np.max(np.abs(got - exact)) < 0.08

    def test_shift_invariance(self, fmts, luts):
        logits = np.array([[0, 16, 32]], dtype=np.int64)
        shifted = logits + 40
        assert np.array_equal(
            hw_softmax(logits, luts, fmts, axis=1),
            hw_softmax(shifted, luts, fmts, axis=1),
        )


class TestFormats:
    def test_acc_format_alignment(self, fmts):
        acc = fmts.acc(fmts.input, fmts.conv1_weight)
        assert acc.total_bits == 25
        assert acc.frac_bits == fmts.input.frac_bits + fmts.conv1_weight.frac_bits

    def test_paper_bit_widths(self, fmts):
        assert fmts.input.total_bits == 8
        assert fmts.caps_data.total_bits == 8
        assert fmts.squash_in.total_bits == 6
        assert fmts.norm.total_bits == 5
        assert fmts.square_in.total_bits == 12
        assert fmts.logits.total_bits == 8
        assert fmts.acc_bits == 25
