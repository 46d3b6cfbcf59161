"""Saturating raw-integer arithmetic mirroring the CapsAcc datapath.

Every function operates on *raw* integer arrays tagged with a
:class:`~repro.fixedpoint.formats.QFormat`, computed in ``int64``.
:func:`saturate_raw` and :func:`requantize` keep an ``int32`` input in
``int32`` when every intermediate fits :data:`NARROW_BITS` (the compiled
executor's registers; see :func:`requantize_bits`).  This is the layer the
bit-accurate hardware simulator computes with: the multiplier inside a
processing element is :func:`fx_mul`, the 25-bit partial-sum adder is
:func:`fx_add` with saturation, and the 25-to-8-bit reduction in front of the
activation unit is :func:`requantize`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import QFormatError
from repro.fixedpoint.formats import QFormat
from repro.fixedpoint.quantize import Rounding


def product_format(a: QFormat, b: QFormat) -> QFormat:
    """Exact format of the product of values in formats ``a`` and ``b``.

    An ``n x m`` bit multiplier produces ``n + m`` bits; fraction bits add.
    The product is signed if either operand is signed.
    """
    return QFormat(
        total_bits=a.total_bits + b.total_bits,
        frac_bits=a.frac_bits + b.frac_bits,
        signed=a.signed or b.signed,
    )


#: Widest code, in bits, an ``int32`` array keeps through the saturating
#: ops.  The spare bit holds the sum of two such codes or a rounding carry.
NARROW_BITS = 30


def requantize_bits(in_fmt: QFormat, out_fmt: QFormat) -> int:
    """Widest intermediate, in bits, of :func:`requantize` from ``in_fmt``.

    A left shift by ``k`` widens the input by ``k`` bits; a right shift by
    ``s`` adds a rounding constant below ``2**(s - 1)``.
    """
    shift = in_fmt.frac_bits - out_fmt.frac_bits
    return max(in_fmt.total_bits - min(shift, 0), shift, out_fmt.total_bits)


def register_codes(raw, bits: int = 0) -> np.ndarray:
    """``raw`` in the register width that holds ``bits``-bit intermediates.

    ``int32`` codes stay ``int32`` when ``bits`` fits :data:`NARROW_BITS`
    (0, the default, for an op that never widens); anything else is held
    in ``int64``.  Every width decision of the datapath goes through here.
    """
    arr = np.asarray(raw)
    if arr.dtype == np.int32 and bits <= NARROW_BITS:
        return arr
    return arr.astype(np.int64, copy=False)


def saturate_raw(
    raw: np.ndarray | int, fmt: QFormat, in_place: bool = False
) -> np.ndarray:
    """Clamp raw codes into the representable range of ``fmt``.

    ``in_place`` clamps ``raw`` itself when it is already an array of the
    register width — for a caller that owns it, saving an allocation.
    """
    codes = register_codes(raw, fmt.total_bits)
    # Two ufuncs skip the per-call bound checks np.clip does in Python,
    # which dominate on the small tensors of a batch's routing loop.
    low = np.maximum(codes, fmt.raw_min, out=codes if in_place and codes.ndim else None)
    if isinstance(low, np.ndarray):
        return np.minimum(low, fmt.raw_max, out=low)
    return np.minimum(low, fmt.raw_max)


def fx_mul(a_raw: np.ndarray, a_fmt: QFormat, b_raw: np.ndarray, b_fmt: QFormat):
    """Exact fixed-point multiply.

    Returns
    -------
    tuple
        ``(raw_product, product_fmt)`` where the product is exact (no
        rounding, no saturation) as produced by a full-width multiplier.
    """
    out_fmt = product_format(a_fmt, b_fmt)
    product = np.asarray(a_raw, dtype=np.int64) * np.asarray(b_raw, dtype=np.int64)
    return product, out_fmt


def align_raw(raw: np.ndarray, from_fmt: QFormat, to_frac_bits: int) -> np.ndarray:
    """Shift raw codes so they carry ``to_frac_bits`` fraction bits.

    Left shifts are exact.  Right shifts truncate toward negative infinity,
    matching a two's-complement arithmetic shift in hardware.
    """
    arr = np.asarray(raw, dtype=np.int64)
    shift = to_frac_bits - from_fmt.frac_bits
    if shift >= 0:
        return arr << shift
    return arr >> (-shift)


def fx_add(
    a_raw: np.ndarray,
    a_fmt: QFormat,
    b_raw: np.ndarray,
    b_fmt: QFormat,
    out_fmt: QFormat,
    saturate: bool = True,
) -> np.ndarray:
    """Fixed-point add with binary-point alignment into ``out_fmt``.

    Operands are aligned to ``out_fmt.frac_bits`` with arithmetic shifts and
    summed; the result saturates to ``out_fmt`` (hardware clamp) unless
    ``saturate`` is false, in which case overflow raises via
    :func:`check_fits`.
    """
    total = align_raw(a_raw, a_fmt, out_fmt.frac_bits) + align_raw(
        b_raw, b_fmt, out_fmt.frac_bits
    )
    if saturate:
        return saturate_raw(total, out_fmt)
    check_fits(total, out_fmt)
    return total


def check_fits(raw: np.ndarray, fmt: QFormat) -> None:
    """Raise :class:`QFormatError` when any raw code overflows ``fmt``."""
    arr = np.asarray(raw)
    if arr.size and (arr.min() < fmt.raw_min or arr.max() > fmt.raw_max):
        raise QFormatError(f"raw value overflows {fmt.describe()}")


def fx_mac(
    acc_raw: np.ndarray,
    acc_fmt: QFormat,
    data_raw: np.ndarray,
    data_fmt: QFormat,
    weight_raw: np.ndarray,
    weight_fmt: QFormat,
) -> np.ndarray:
    """One multiply-accumulate step of a processing element.

    Computes ``acc + data * weight`` where the product is exact and the sum
    saturates at the accumulator width (the paper's 25-bit partial sum).
    Requires the product fraction to align with the accumulator fraction,
    which holds for the shipped formats by construction.
    """
    product, prod_fmt = fx_mul(data_raw, data_fmt, weight_raw, weight_fmt)
    if prod_fmt.frac_bits != acc_fmt.frac_bits:
        product = align_raw(product, prod_fmt, acc_fmt.frac_bits)
    total = np.asarray(acc_raw, dtype=np.int64) + product
    return saturate_raw(total, acc_fmt)


def requantize(
    raw: np.ndarray,
    in_fmt: QFormat,
    out_fmt: QFormat,
    rounding: Rounding = Rounding.NEAREST,
) -> np.ndarray:
    """Reduce raw codes from ``in_fmt`` to ``out_fmt`` (round then saturate).

    This models the width reduction between the accumulator (25 bits) and
    the activation unit input (8 bits) described in Section IV-C.
    """
    arr = register_codes(raw, requantize_bits(in_fmt, out_fmt))
    shift = in_fmt.frac_bits - out_fmt.frac_bits
    if shift <= 0:
        return saturate_raw(arr << (-shift), out_fmt, in_place=True)
    if rounding is Rounding.NEAREST:
        # Ties away from zero: ``(a + h) >> s`` for ``a >= 0`` and
        # ``-((-a + h) >> s) == (a + h - 1) >> s`` for ``a < 0``; the
        # sign shift ``a >> (bits - 1)`` is the -1 for negative codes.
        shifted = arr >> (8 * arr.dtype.itemsize - 1)
        shifted += arr
        shifted += 1 << (shift - 1)
        shifted >>= shift
    elif rounding is Rounding.FLOOR:
        shifted = arr >> shift
    elif rounding is Rounding.ZERO:
        shifted = np.where(arr >= 0, arr >> shift, -((-arr) >> shift))
    else:
        raise ValueError(f"unknown rounding mode {rounding!r}")
    return saturate_raw(shifted, out_fmt, in_place=True)
