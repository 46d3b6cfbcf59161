"""Lookup tables of the activation datapath: generic builders + CapsAcc ROMs.

The CapsAcc activation unit implements squash, exp and square with ROM
lookup tables (paper Figures 11e-11g).  :class:`LookupTable` models a
single-input ROM; :class:`LookupTable2D` models the two-input squash ROM
whose address is the concatenation of the data and norm buses.  Tables are
materialized as numpy arrays indexed by the *unsigned* reading of the raw
input bus, exactly as a hardware ROM would be addressed, and report their
storage footprint for the synthesis model.

The concrete ROM instances:

* **squash** (Fig 11e): 6-bit data and 5-bit norm in, 8-bit out.  Computes
  one output component ``v_d = s_d * ||s|| / (1 + ||s||^2)`` given the
  component ``s_d`` and the vector norm ``||s||`` (the norm arrives from the
  norm unit, so it is not recomputed inside the squash unit).
* **square** (inside the norm unit, Fig 11f): 12-bit in, 8-bit out.
* **exp** (inside the softmax unit, Fig 11g): 8-bit in, 8-bit out.

The norm unit's final square root (Fig 11f) is an exact integer square root
(:func:`fixed_sqrt`), bit-reproducible across platforms.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.fixedpoint import formats
from repro.fixedpoint.arith import NARROW_BITS, saturate_raw
from repro.fixedpoint.formats import QFormat
from repro.fixedpoint.quantize import Rounding, from_raw, to_raw


def _address(raw: np.ndarray, fmt: QFormat) -> np.ndarray:
    """Unsigned ROM address for a (possibly signed) raw bus value, in
    the codes' own integer width (``int64`` for anything else)."""
    mask = (1 << fmt.total_bits) - 1
    arr = np.asarray(raw)
    if arr.dtype.kind not in "iu":
        arr = arr.astype(np.int64)
    return arr & mask


def _rom(codes: np.ndarray, out_fmt: QFormat) -> np.ndarray:
    """ROM words as ``int32`` when ``out_fmt`` fits the narrow registers,
    so lookups on the executor's ``int32`` registers stay ``int32``."""
    return codes.astype(np.int32) if out_fmt.total_bits <= NARROW_BITS else codes


def _all_raw_codes(fmt: QFormat) -> np.ndarray:
    """Every raw code of ``fmt`` ordered by its unsigned address."""
    addresses = np.arange(fmt.num_codes, dtype=np.int64)
    if not fmt.signed:
        return addresses
    # Addresses above raw_max encode negative values in two's complement.
    return np.where(addresses > fmt.raw_max, addresses - fmt.num_codes, addresses)


class LookupTable:
    """A single-input ROM mapping ``in_fmt`` raw codes to ``out_fmt`` codes.

    Parameters
    ----------
    func:
        Vectorized real-valued function the ROM approximates.
    in_fmt / out_fmt:
        Input and output bus formats.
    rounding:
        Rounding used when building table entries.
    name:
        Identifier used by the synthesis model and reports.
    """

    def __init__(
        self,
        func: Callable[[np.ndarray], np.ndarray],
        in_fmt: QFormat,
        out_fmt: QFormat,
        rounding: Rounding = Rounding.NEAREST,
        name: str = "lut",
    ) -> None:
        self.in_fmt = in_fmt
        self.out_fmt = out_fmt
        self.name = name
        codes = _all_raw_codes(in_fmt)
        values = func(from_raw(codes, in_fmt))
        self._table = _rom(to_raw(values, out_fmt, rounding=rounding), out_fmt)

    @property
    def num_entries(self) -> int:
        """Number of ROM words."""
        return self.in_fmt.num_codes

    @property
    def storage_bits(self) -> int:
        """ROM size in bits (words x output width)."""
        return self.num_entries * self.out_fmt.total_bits

    def lookup(self, raw_in: np.ndarray | int) -> np.ndarray:
        """Raw output codes for raw input codes (vectorized)."""
        return self._table.take(_address(raw_in, self.in_fmt))

    def lookup_real(self, values: np.ndarray | float) -> np.ndarray:
        """Convenience: quantize real inputs, look up, return real outputs."""
        raw_in = to_raw(values, self.in_fmt)
        return from_raw(self.lookup(raw_in), self.out_fmt)


class LookupTable2D:
    """A two-input ROM addressed by the concatenation ``{a_bus, b_bus}``.

    Models the squashing LUT of Figure 11e: a 6-bit data input and a 5-bit
    norm input form an 11-bit address into an 8-bit-wide ROM.
    """

    def __init__(
        self,
        func: Callable[[np.ndarray, np.ndarray], np.ndarray],
        a_fmt: QFormat,
        b_fmt: QFormat,
        out_fmt: QFormat,
        rounding: Rounding = Rounding.NEAREST,
        name: str = "lut2d",
    ) -> None:
        self.a_fmt = a_fmt
        self.b_fmt = b_fmt
        self.out_fmt = out_fmt
        self.name = name
        a_codes = _all_raw_codes(a_fmt)
        b_codes = _all_raw_codes(b_fmt)
        a_grid, b_grid = np.meshgrid(a_codes, b_codes, indexing="ij")
        values = func(from_raw(a_grid, a_fmt), from_raw(b_grid, b_fmt))
        self._table = _rom(to_raw(values, out_fmt, rounding=rounding), out_fmt)

    @property
    def num_entries(self) -> int:
        """Number of ROM words."""
        return self.a_fmt.num_codes * self.b_fmt.num_codes

    @property
    def storage_bits(self) -> int:
        """ROM size in bits (words x output width)."""
        return self.num_entries * self.out_fmt.total_bits

    def lookup(self, a_raw: np.ndarray | int, b_raw: np.ndarray | int) -> np.ndarray:
        """Raw output codes for a pair of raw input buses (vectorized)."""
        row = _address(a_raw, self.a_fmt) << self.b_fmt.total_bits
        return self._table.reshape(-1).take(row | _address(b_raw, self.b_fmt))

    def lookup_real(self, a: np.ndarray | float, b: np.ndarray | float) -> np.ndarray:
        """Convenience: quantize real inputs, look up, return real outputs."""
        a_raw = to_raw(a, self.a_fmt)
        b_raw = to_raw(b, self.b_fmt)
        return from_raw(self.lookup(a_raw, b_raw), self.out_fmt)


def squash_gain(norm: np.ndarray) -> np.ndarray:
    """The scalar factor applied to each component by the squash function.

    ``squash(s) = s * ||s|| / (1 + ||s||^2) / 1`` per component can be
    written ``v_d = s_d * g(||s||)`` with ``g(n) = n / (1 + n^2)``.
    """
    n = np.asarray(norm, dtype=np.float64)
    return n / (1.0 + n * n)


def build_squash_lut(
    data_fmt: QFormat = formats.SQUASH_IN6,
    norm_fmt: QFormat = formats.NORM5,
    out_fmt: QFormat = formats.SQUASH_OUT8,
) -> LookupTable2D:
    """Build the two-input squashing ROM of Figure 11e.

    Entries are clamped to [-1, 1]: squashed components are mathematically
    bounded by 1, but address pairs where the norm input was saturated
    upstream (large vectors clamp in the square LUT) would otherwise
    tabulate an overestimated gain.  The clamp keeps the hardware output
    inside the function's true range for every reachable address.
    """

    def entry(s_d: np.ndarray, norm: np.ndarray) -> np.ndarray:
        return np.clip(s_d * squash_gain(norm), -1.0, 1.0)

    return LookupTable2D(entry, data_fmt, norm_fmt, out_fmt, name="squash")


def build_square_lut(
    in_fmt: QFormat = formats.SQUARE_IN12,
    out_fmt: QFormat = formats.SQUARE_OUT8,
) -> LookupTable:
    """Build the square ROM used by the norm unit (Figure 11f)."""
    return LookupTable(lambda x: x * x, in_fmt, out_fmt, name="square")


def build_exp_lut(
    in_fmt: QFormat = formats.EXP_IN8,
    out_fmt: QFormat = formats.EXP_OUT8,
) -> LookupTable:
    """Build the exponential ROM used by the softmax unit (Figure 11g).

    The softmax control logic subtracts the running maximum before the
    lookup, so only non-positive inputs occur in operation; the table is
    nevertheless defined (with saturation) over the full input range.
    """

    def entry(x: np.ndarray) -> np.ndarray:
        return np.minimum(np.exp(x), out_fmt.max_value)

    return LookupTable(entry, in_fmt, out_fmt, name="exp")


#: Operands below this bound take the vectorized square root: their
#: float64 root is within one of the integer root, and every square the
#: correction forms fits int64.
_EXACT_OPERAND = 1 << 62


def _round_isqrt(operand: int) -> int:
    """``round(sqrt(operand))``, ties up, for a Python integer."""
    root = math.isqrt(operand)
    # Round to nearest: bump when operand >= (root + 0.5)^2, i.e. when
    # the integer remainder operand - root^2 exceeds root.
    return root + (operand - root * root > root)


def fixed_sqrt(
    raw: np.ndarray | int,
    in_fmt: QFormat,
    out_fmt: QFormat = formats.NORM5,
) -> np.ndarray:
    """Exact fixed-point square root of non-negative raw codes.

    Computes ``round(sqrt(value))`` in ``out_fmt``: the input raw code is
    rescaled so that the integer square root of the shifted operand lands
    directly on the output grid, then rounded to nearest by comparing the
    remainder against the midpoint.  The root starts from the float64
    square root and takes an exact integer correction of at most one
    either way, so it equals :func:`math.isqrt` on every operand.
    Operands whose root saturates ``out_fmt`` are clamped first; the rare
    operand past int64's exact range otherwise takes Python's ``isqrt``.

    Negative inputs (which cannot reach a hardware norm unit) raise
    ``ValueError``.
    """
    arr = np.atleast_1d(np.asarray(raw, dtype=np.int64))
    if arr.size and arr.min() < 0:
        raise ValueError("fixed_sqrt requires non-negative input codes")
    # value = raw * 2^-f_in; out_raw = round(sqrt(value) * 2^f_out)
    #       = round(sqrt(raw * 2^(2*f_out - f_in)))
    shift = 2 * out_fmt.frac_bits - in_fmt.frac_bits
    # Every operand at or above (raw_max + 1)^2 saturates to raw_max.
    saturating = (out_fmt.raw_max + 1) ** 2 <= _EXACT_OPERAND
    cap = (out_fmt.raw_max + 1) ** 2 if saturating else _EXACT_OPERAND
    if shift >= 0:
        over = arr > (cap - 1) >> shift
        operand = np.minimum(arr, (cap - 1) >> shift) << shift
    else:
        operand = arr >> -shift
        over = operand >= cap
        operand = np.minimum(operand, cap - 1)
    root = np.sqrt(operand.astype(np.float64)).astype(np.int64)
    root -= root * root > operand
    root += (root + 1) * (root + 1) <= operand
    root += operand - root * root > root
    if saturating:
        root[over] = out_fmt.raw_max
    else:
        for index in np.flatnonzero(over):
            code = int(arr.flat[index])
            exact = _round_isqrt(code << shift if shift >= 0 else code >> -shift)
            root.flat[index] = min(exact, out_fmt.raw_max)
    result = saturate_raw(root, out_fmt)
    if np.isscalar(raw) or np.asarray(raw).ndim == 0:
        return result.reshape(())
    return result


def lut_inventory() -> dict[str, int]:
    """Storage (bits) of every ROM in the default configuration.

    Used by the synthesis model to size the activation unit.
    """
    squash = build_squash_lut()
    square = build_square_lut()
    exp = build_exp_lut()
    return {
        "squash": squash.storage_bits,
        "square": square.storage_bits,
        "exp": exp.storage_bits,
    }
