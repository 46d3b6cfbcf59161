"""Unit tests for the bit-accurate quantized operators."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.capsnet import hwops
from repro.capsnet.hwops import (
    Epilogue,
    HardwareLuts,
    QuantizedFormats,
    SaturationCounter,
    StagedWeights,
    _chunked_accumulation,
    by_kernel_row,
    channels_last_order,
    chunked_saturating_matmul,
    conv_matmul,
    hw_norm,
    hw_relu,
    hw_softmax,
    hw_squash,
    quantized_conv2d,
    quantized_matmul,
    saturating_matmul,
)
from repro.capsnet.ops import conv2d, im2col, softmax, squash
from repro.errors import ShapeError
from repro.fixedpoint.arith import requantize, saturate_raw
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


@st.composite
def routing_cases(draw):
    """A routing ``GROUPED_GEMM`` read from class-major ``u_hat`` panels.

    ``form`` is ``sum`` (each group's ``(K, M)`` panel read as its
    transpose) or ``update`` (``(M, K)`` panels read directly); ``edge``
    puts the coupling maximum at the largest the format's static bound
    ``K * 128 * max|w|`` keeps inside the float path (0), or one past it
    with a row of extreme codes, so the chunk loop must run (1).
    """
    form = draw(st.sampled_from(["sum", "update"]))
    edge = draw(st.sampled_from([0, 1]))
    batch, groups = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    k = draw(st.sampled_from([1, 2, 7, 16, 33, 1152]))
    m = draw(st.integers(1, 17))
    acc_fmt = QFormat(draw(st.integers(max(14, (k * 128).bit_length() + 2), 25)), 12)
    limit = min(acc_fmt.raw_max, -acc_fmt.raw_min, 2**24)
    top = limit // (k * 128) + edge
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.integers(-128, 128, size=(batch, groups, m, k))
    if edge:
        data[0, 0, 0] = -128
    weights = rng.integers(-top, top + 1, size=(batch, groups, k, 1))
    weights.reshape(-1)[0] = top
    reduce = draw(st.booleans())
    chunk_rows = draw(st.sampled_from([4, 16]))
    return form, edge, data.astype(np.int32), weights.astype(np.int32), acc_fmt, reduce, chunk_rows


class TestClassMajorGroupedProduct:
    @given(case=routing_cases(), into=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_chunked_integer_reference(self, case, into):
        form, edge, data, weights, acc_fmt, reduce, chunk_rows = case
        steps = ((acc_fmt, QFormat(8, 4), False),) if reduce else ()
        epilogue = Epilogue(acc_fmt, None, steps)
        acc = chunked_saturating_matmul(data, weights, acc_fmt, chunk_rows)
        expected = epilogue.finish(acc)
        staged = StagedWeights(weights, acc_fmt)
        # The panel the executor stages: contiguous per group, (K, M) for
        # the sum, (M, K) for the update.
        transposed = form == "sum"
        if transposed:
            operand = np.ascontiguousarray(data.swapaxes(-1, -2), dtype=np.float32).swapaxes(-1, -2)
        else:
            operand = np.ascontiguousarray(data, dtype=np.float32)
        out = np.empty(expected.shape[::-1], dtype=np.float32).T if into else None
        rowsum = data.shape[-1] * 128
        assert (rowsum * staged.max > staged.limit) == bool(edge)
        loop = mock.patch.object(
            hwops, "_chunked_accumulation", wraps=hwops._chunked_accumulation
        )
        with loop as chunked:
            got = saturating_matmul(
                operand, staged, acc_fmt, chunk_rows, rowsum, epilogue, out, transposed
            )
        assert chunked.called == bool(edge)
        assert got.dtype == np.int32
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)
        if out is not None:
            assert np.array_equal(out, expected)


def reference_epilogue(acc, bias, steps, acc_fmt):
    """Bias, saturation and reductions as separate integer instructions."""
    if bias is not None:
        acc = saturate_raw(acc + bias, acc_fmt)
    for in_fmt, out_fmt, relu in steps:
        acc = requantize(hw_relu(acc) if relu else acc, in_fmt, out_fmt)
    return acc


@st.composite
def conv_cases(draw):
    """A gathered conv: shapes on both sides of the per-kernel-row rule
    (``deep``), codes wide enough that narrow accumulators clip (the
    program-order fallback), biases up to the float32 exact range, and
    epilogues of a GEMM reduction and/or a fused ReLU or REQUANT."""
    deep = draw(st.booleans())
    stride = draw(st.integers(1, 2))
    if deep:
        kernel = draw(st.integers(2, 3))
        channels, n = draw(st.integers(24, 40)), draw(st.integers(2, 6))
        side = int(np.ceil(np.sqrt(hwops.SERIAL_GEMM_MACS / (kernel * channels * n))))
        height = (side - 1) * stride + kernel + draw(st.integers(0, 1))
    else:
        kernel = draw(st.integers(1, 4))
        channels, n = draw(st.integers(1, 5)), draw(st.integers(1, 8))
        height = kernel + draw(st.integers(0, 6))
    lead = draw(st.integers(1, 2))
    acc_fmt = QFormat(draw(st.sampled_from([12, 16, 25, 30])), draw(st.integers(0, 14)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    code = draw(st.sampled_from([1, 7, 128]))
    x = rng.integers(-code, code, size=(lead, channels, height, height)).astype(np.int32)
    w_code = draw(st.sampled_from([1, 3, 128]))
    tile = rng.integers(-w_code, w_code + 1, size=(channels * kernel**2, n)).astype(np.int32)
    bias = None
    if draw(st.booleans()):
        span = draw(st.sampled_from([100, 2**20, 2**24 - 2]))
        span = min(span, acc_fmt.raw_max)
        bias = rng.integers(-span, span + 1, size=n).astype(np.int32)
    out8 = QFormat(8, draw(st.integers(-2, 8)))
    steps = []
    if draw(st.booleans()):
        mid = QFormat(16, draw(st.integers(0, 12)))
        steps.append((acc_fmt, mid, False))
        steps.append((mid, out8, draw(st.booleans())))
    else:
        steps.append((acc_fmt, out8, draw(st.booleans())))
    chunk_rows = draw(st.sampled_from([4, 16]))
    return deep, x, tile, kernel, stride, acc_fmt, bias, tuple(steps), chunk_rows, code


#: A 1x1 conv whose Qs25.0 bias pushes the Qs8.6 reduction past float32's
#: exact range: the integer fallback needs 31 bits and must still return
#: int32 codes.
WIDENING_FALLBACK = (
    False,
    np.ones((1, 1, 1, 1), dtype=np.int32),
    np.ones((1, 1), dtype=np.int32),
    1,
    1,
    QFormat(25, 0),
    np.array([373678], dtype=np.int32),
    ((QFormat(25, 0), QFormat(8, 6), False),),
    4,
    1,
)


class TestConvMatmul:
    @given(case=conv_cases())
    @example(case=WIDENING_FALLBACK)
    @settings(max_examples=60, deadline=None)
    def test_matches_the_integer_reference(self, case):
        deep, x, tile, kernel, stride, acc_fmt, bias, steps, chunk_rows, code = case
        channels = x.shape[1]
        staged = StagedWeights(tile[channels_last_order(channels, kernel)], acc_fmt)
        patches = im2col(x.astype(np.int64), kernel, stride)
        acc = chunked_saturating_matmul(patches, tile, acc_fmt, chunk_rows)
        expected = reference_epilogue(acc, bias, steps, acc_fmt)
        epilogue = Epilogue(acc_fmt, bias, steps)
        static = len(tile) * code
        for rowsum in (None, static):
            plain = conv_matmul(x, staged, kernel, stride, acc_fmt, chunk_rows, rowsum)
            assert plain.dtype == staged.raw.dtype
            assert np.array_equal(plain, acc)
            got = conv_matmul(x, staged, kernel, stride, acc_fmt, chunk_rows, rowsum, epilogue)
            assert got.dtype == staged.raw.dtype
            assert np.array_equal(got, expected)

    def test_per_row_rule_follows_the_shapes(self):
        side = int(np.ceil(np.sqrt(hwops.SERIAL_GEMM_MACS / (2 * 24 * 6))))
        assert by_kernel_row(2, 24, side * side, 6)  # conv_cases' smallest deep case
        assert by_kernel_row(9, 256, 36, 256)  # MNIST PrimaryCaps
        assert not by_kernel_row(9, 1, 400, 256)  # MNIST Conv1: depth 9
        assert not by_kernel_row(5, 8, 4, 8)  # tiny PrimaryCaps: too small to split
        assert not by_kernel_row(1, 256, 400, 256)  # a 1x1 conv has one row

    def test_tile_of_the_wrong_depth_is_refused(self):
        staged = StagedWeights(np.ones((8, 2), dtype=np.int32), QFormat(25, 0))
        x = np.ones((1, 3, 4, 4), dtype=np.int32)
        with pytest.raises(ShapeError, match="tile of 8 rows"):
            conv_matmul(x, staged, 2, 1, QFormat(25, 0), 4)


def zoo_reductions():
    """Every (in, out, relu) width reduction a zoo GEMM epilogue runs."""
    from repro.compiler.executor import StreamExecutor
    from repro.compiler.zoo import get_network, zoo_names

    pairs = set()
    for name in zoo_names():
        net = get_network(name)
        stream = StreamExecutor(net.program, net.params, net.formats, luts=net.luts)
        for epilogue in stream._epilogues.values():
            pairs.update(epilogue.steps)
    return sorted(pairs, key=repr)


class TestFloatEpilogue:
    def test_every_code_of_every_zoo_reduction_matches_requantize(self):
        # All codes the float path may see: those whose rounding half
        # stays exact in float32, ties and negative codes included.
        reductions = zoo_reductions()
        assert reductions
        for in_fmt, out_fmt, relu in reductions:
            epilogue = Epilogue(in_fmt, None, ((in_fmt, out_fmt, relu),))
            shift = in_fmt.frac_bits - out_fmt.frac_bits
            top = 2**24 - (2 ** (shift - 1) if shift > 0 else 0)
            assert epilogue.exact(top, np.float32)
            assert not epilogue.exact(top + 1, np.float32)
            low, high = max(in_fmt.raw_min, -top), min(in_fmt.raw_max, top)
            for start in range(low, high + 1, 2**22):
                codes = np.arange(start, min(start + 2**22, high + 1), dtype=np.int32)
                expected = requantize(hw_relu(codes) if relu else codes, in_fmt, out_fmt)
                got = epilogue.finish_float(codes.astype(np.float32), top, np.int32)
                assert got.dtype == np.int32
                assert np.array_equal(got, expected), (in_fmt, out_fmt, relu, start)

    def test_the_chunk_loop_returns_register_codes(self):
        # Past the float bound the chunk loop runs; its widening Qs25.0 ->
        # Qs8.6 epilogue still hands back int32 codes.
        acc_fmt = QFormat(25, 0)
        epilogue = Epilogue(acc_fmt, None, ((acc_fmt, QFormat(8, 6), False),))
        tile = np.full((1100, 2), 127, dtype=np.int32)
        data = np.full((3, 1100), 127, dtype=np.int32)
        data[1] *= -1
        got = saturating_matmul(data, StagedWeights(tile, acc_fmt), acc_fmt, 16, epilogue=epilogue)
        assert got.dtype == np.int32
        expected = epilogue.finish(chunked_saturating_matmul(data, tile, acc_fmt, 16))
        assert np.array_equal(got, expected)

    def test_a_bound_past_the_exact_range_takes_the_integer_path(self):
        # 2**24 + 1 rounds to 2**24 in float32; the integer path sees it.
        fmt_in, fmt_out = QFormat(30, 0), QFormat(30, 0)
        epilogue = Epilogue(fmt_in, np.array([1], dtype=np.int32), ((fmt_in, fmt_out, False),))
        acc = np.array([[2.0**24]], dtype=np.float32)
        assert not epilogue.exact(2**24, np.float32)
        assert epilogue.finish_float(acc, 2**24, np.int32)[0, 0] == 2**24 + 1



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
