"""Unit tests for the concrete CapsAcc lookup tables and fixed sqrt."""

import math

import numpy as np
import pytest

from repro.fixedpoint import formats
from repro.fixedpoint.luts import (
    build_exp_lut,
    build_square_lut,
    build_squash_lut,
    fixed_sqrt,
    lut_inventory,
    squash_gain,
)
from repro.fixedpoint.formats import QFormat
from repro.fixedpoint.quantize import from_raw, to_raw


class TestSquashGain:
    def test_zero_norm_gain_zero(self):
        assert squash_gain(0.0) == 0.0

    def test_peak_at_one(self):
        assert squash_gain(1.0) == pytest.approx(0.5)
        assert squash_gain(0.9) < 0.5
        assert squash_gain(1.1) < 0.5

    def test_matches_formula(self):
        n = np.linspace(0, 8, 33)
        assert np.allclose(squash_gain(n), n / (1 + n * n))


class TestSquashLut:
    def test_paper_bit_widths(self):
        lut = build_squash_lut()
        assert lut.a_fmt.total_bits == 6
        assert lut.b_fmt.total_bits == 5
        assert lut.out_fmt.total_bits == 8

    def test_zero_norm_maps_to_zero(self):
        lut = build_squash_lut()
        data_codes = np.arange(lut.a_fmt.raw_min, lut.a_fmt.raw_max + 1)
        assert np.all(lut.lookup(data_codes, np.zeros_like(data_codes)) == 0)

    def test_bounded_error_on_grid(self):
        lut = build_squash_lut()
        rng = np.random.default_rng(0)
        data = rng.integers(lut.a_fmt.raw_min, lut.a_fmt.raw_max + 1, size=500)
        norm = rng.integers(0, lut.b_fmt.raw_max + 1, size=500)
        exact = from_raw(data, lut.a_fmt) * squash_gain(from_raw(norm, lut.b_fmt))
        # The ROM clamps to the squash function's true range before the
        # output format clip.
        exact = np.clip(exact, -1.0, 1.0)
        exact = np.clip(exact, lut.out_fmt.min_value, lut.out_fmt.max_value)
        got = from_raw(lut.lookup(data, norm), lut.out_fmt)
        assert np.max(np.abs(got - exact)) <= lut.out_fmt.resolution / 2 + 1e-12

    def test_entries_bounded_by_one(self):
        lut = build_squash_lut()
        data = np.arange(lut.a_fmt.raw_min, lut.a_fmt.raw_max + 1)
        for norm in range(lut.b_fmt.raw_max + 1):
            out = from_raw(lut.lookup(data, np.full_like(data, norm)), lut.out_fmt)
            assert np.abs(out).max() <= 1.0 + lut.out_fmt.resolution

    def test_odd_symmetry_in_data(self):
        lut = build_squash_lut()
        norm = np.full(10, 8)
        data = np.arange(1, 11)
        plus = from_raw(lut.lookup(data, norm), lut.out_fmt)
        minus = from_raw(lut.lookup(-data, norm), lut.out_fmt)
        assert np.allclose(plus, -minus)


class TestSquareLut:
    def test_paper_bit_widths(self):
        lut = build_square_lut()
        assert lut.in_fmt.total_bits == 12
        assert lut.out_fmt.total_bits == 8

    def test_non_negative_output(self):
        lut = build_square_lut()
        codes = np.arange(lut.in_fmt.raw_min, lut.in_fmt.raw_max + 1)
        assert lut.lookup(codes).min() >= 0

    def test_small_values_exact(self):
        lut = build_square_lut()
        for value in (0.0, 0.25, 0.5, 1.0, 1.5):
            raw = to_raw(value, lut.in_fmt)
            got = from_raw(lut.lookup(raw), lut.out_fmt)
            assert got == pytest.approx(value * value, abs=lut.out_fmt.resolution)

    def test_large_values_saturate(self):
        lut = build_square_lut()
        raw = to_raw(7.0, lut.in_fmt)
        assert lut.lookup(raw) == lut.out_fmt.raw_max


class TestExpLut:
    def test_paper_bit_width(self):
        lut = build_exp_lut()
        assert lut.in_fmt.total_bits == 8
        assert lut.out_fmt.total_bits == 8

    def test_exp_zero_is_one(self):
        lut = build_exp_lut()
        assert from_raw(lut.lookup(to_raw(0.0, lut.in_fmt)), lut.out_fmt) == pytest.approx(
            1.0, abs=lut.out_fmt.resolution
        )

    def test_monotonic_on_negative_domain(self):
        lut = build_exp_lut()
        codes = np.arange(lut.in_fmt.raw_min, 1)
        outputs = lut.lookup(codes)
        assert np.all(np.diff(outputs.astype(np.int64)) >= 0)

    def test_very_negative_underflows_to_zero(self):
        lut = build_exp_lut()
        assert lut.lookup(lut.in_fmt.raw_min) == 0


class TestFixedSqrt:
    def test_exact_squares(self):
        fmt_in = QFormat(16, 0, signed=False)
        fmt_out = QFormat(8, 0, signed=False)
        values = np.array([0, 1, 4, 9, 16, 144, 255 * 255])
        roots = fixed_sqrt(values, fmt_in, fmt_out)
        assert list(roots) == [0, 1, 2, 3, 4, 12, 255]

    def test_rounds_to_nearest(self):
        fmt_in = QFormat(16, 0, signed=False)
        fmt_out = QFormat(8, 0, signed=False)
        # sqrt(8) = 2.828 -> 3; sqrt(6) = 2.449 -> 2
        assert fixed_sqrt(np.array([8]), fmt_in, fmt_out)[0] == 3
        assert fixed_sqrt(np.array([6]), fmt_in, fmt_out)[0] == 2

    def test_fractional_formats(self):
        fmt_in = QFormat(16, 6, signed=False)
        fmt_out = formats.NORM5
        value = 2.25  # sqrt = 1.5, exactly representable at frac 3
        raw = to_raw(value, fmt_in)
        assert from_raw(fixed_sqrt(raw, fmt_in, fmt_out), fmt_out) == 1.5

    def test_matches_float_sqrt_within_half_ulp(self):
        fmt_in = QFormat(14, 6, signed=False)
        fmt_out = formats.NORM5
        rng = np.random.default_rng(1)
        raw = rng.integers(0, 900, size=300)
        got = from_raw(fixed_sqrt(raw, fmt_in, fmt_out), fmt_out)
        exact = np.sqrt(from_raw(raw, fmt_in))
        clipped = np.minimum(exact, fmt_out.max_value)
        assert np.max(np.abs(got - clipped)) <= fmt_out.resolution / 2 + 1e-9

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            fixed_sqrt(np.array([-1]), QFormat(8, 0), formats.NORM5)

    def test_scalar_input_returns_scalar_shape(self):
        out = fixed_sqrt(4, QFormat(8, 0, signed=False), QFormat(8, 0, signed=False))
        assert out.shape == ()
        assert int(out) == 2


def _isqrt_reference(codes, in_fmt: QFormat, out_fmt: QFormat) -> list[int]:
    """Round-to-nearest integer square root via :func:`math.isqrt`, saturated."""
    shift = 2 * out_fmt.frac_bits - in_fmt.frac_bits
    roots = []
    for code in codes:
        operand = int(code) << shift if shift >= 0 else int(code) >> -shift
        root = math.isqrt(operand)
        root += operand - root * root > root
        roots.append(min(root, out_fmt.raw_max))
    return roots


class TestFixedSqrtMatchesIsqrt:
    """The vectorized root equals ``math.isqrt`` on every operand it accepts."""

    def test_every_norm_unit_operand(self):
        # Every SQUARE_OUT8 code, and every sum of 16 of them: all the
        # operands the norm unit can feed it.
        codes = np.arange(16 * formats.SQUARE_OUT8.raw_max + 1)
        got = fixed_sqrt(codes, formats.SQUARE_OUT8, formats.NORM5)
        assert got.tolist() == _isqrt_reference(codes, formats.SQUARE_OUT8, formats.NORM5)

    @pytest.mark.parametrize(
        "in_fmt, out_fmt",
        [
            (QFormat(63, 0, signed=False), QFormat(40, 0, signed=False)),  # shift 0
            (QFormat(40, 6, signed=False), QFormat(20, 5, signed=False)),  # shift 4
            (QFormat(50, 12, signed=False), QFormat(30, 3, signed=False)),  # shift -6
            (QFormat(40, 6, signed=False), formats.NORM5),  # saturating
        ],
    )
    def test_random_operands_up_to_2_62(self, in_fmt, out_fmt):
        rng = np.random.default_rng(7)
        shift = 2 * out_fmt.frac_bits - in_fmt.frac_bits
        top = (1 << 62) >> max(shift, 0)
        codes = np.concatenate([
            rng.integers(0, top, size=2000, endpoint=True),
            rng.integers(0, 1 << 20, size=500),
            [0, 1, top - 1, top],
        ]).astype(np.int64)
        got = fixed_sqrt(codes, in_fmt, out_fmt)
        assert got.tolist() == _isqrt_reference(codes, in_fmt, out_fmt)

    def test_rounding_midpoints(self):
        # r^2 + r rounds down to r, r^2 + r + 1 up to r + 1; the squares
        # either side of them pin the floor.
        in_fmt = QFormat(63, 0, signed=False)
        out_fmt = QFormat(40, 0, signed=False)
        rng = np.random.default_rng(3)
        roots = np.concatenate([
            np.arange(1, 3000),
            rng.integers(3000, 2**31 - 1, size=3000),
            [2**26 - 1, 2**26, 2**31 - 2, 2**31 - 1],
        ]).astype(np.int64)
        codes = np.concatenate([
            roots * roots + roots,
            roots * roots + roots + 1,
            roots * roots,
            roots * roots - 1,
        ])
        got = fixed_sqrt(codes, in_fmt, out_fmt)
        assert got.tolist() == _isqrt_reference(codes, in_fmt, out_fmt)
        half = len(roots)
        assert np.array_equal(got[:half], roots)
        assert np.array_equal(got[half : 2 * half], roots + 1)

    def test_negative_input_still_rejected(self):
        with pytest.raises(ValueError):
            fixed_sqrt(np.array([4, -1]), formats.SQUARE_OUT8, formats.NORM5)

    def test_scalar_input_still_returns_a_0d_array(self):
        out = fixed_sqrt(np.int64(200), formats.SQUARE_OUT8, formats.NORM5)
        assert isinstance(out, np.ndarray) and out.shape == ()
        assert int(out) == _isqrt_reference([200], formats.SQUARE_OUT8, formats.NORM5)[0]


class TestInventory:
    def test_inventory_matches_paper_addressing(self):
        inv = lut_inventory()
        assert inv["squash"] == (2**6) * (2**5) * 8
        assert inv["square"] == (2**12) * 8
        assert inv["exp"] == (2**8) * 8
