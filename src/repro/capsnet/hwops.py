"""Bit-accurate quantized operators mirroring the CapsAcc datapath.

These functions are the *golden model* of what the accelerator hardware
computes: integer GEMMs with 25-bit accumulation, the norm unit (square LUT,
accumulate, integer square root), the squash LUT, and the softmax unit (max
subtraction, exp LUT, accumulate, integer division).  The cycle-level
simulator in :mod:`repro.hw` must agree with these functions bit-for-bit —
that equivalence is the reproduction of the paper's functional-compliance
claim and is asserted by the integration tests.

All values are raw integer codes (``int64`` numpy arrays, or ``int32``
ones in the compiled executor's narrow registers) tagged by the formats in
:class:`QuantizedFormats`.  The activation ROMs hold ``int32`` words, so
the norm, squash and softmax units return ``int32`` codes whenever every
intermediate fits :data:`~repro.fixedpoint.arith.NARROW_BITS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.capsnet.ops import im2col
from repro.errors import ShapeError
from repro.fixedpoint import formats as F
from repro.fixedpoint.arith import register_codes, requantize, saturate_raw
from repro.fixedpoint.luts import LookupTable, LookupTable2D
from repro.fixedpoint.luts import build_exp_lut, build_square_lut, build_squash_lut, fixed_sqrt
from repro.fixedpoint.formats import QFormat


@dataclass(frozen=True)
class QuantizedFormats:
    """Binary-point assignments for every tensor in the quantized network.

    Bit widths follow the paper (8-bit data/weights, 25-bit accumulators,
    6+5-bit squash LUT inputs, 12-bit square LUT input, 8-bit exp LUT);
    binary-point positions are the design choice documented in
    :mod:`repro.fixedpoint.formats`.
    """

    input: QFormat = QFormat(8, 7)
    conv1_weight: QFormat = F.WEIGHT8
    conv1_out: QFormat = QFormat(8, 4)
    primary_weight: QFormat = F.WEIGHT8
    primary_preact: QFormat = QFormat(8, 4)
    caps_data: QFormat = QFormat(8, 6)
    classcaps_weight: QFormat = F.WEIGHT8
    coupling: QFormat = F.WEIGHT8
    logits: QFormat = F.EXP_IN8
    squash_in: QFormat = F.SQUASH_IN6
    norm: QFormat = F.NORM5
    square_in: QFormat = F.SQUARE_IN12
    square_out: QFormat = F.SQUARE_OUT8
    exp_out: QFormat = F.EXP_OUT8
    acc_bits: int = 25

    def acc(self, data_fmt: QFormat, weight_fmt: QFormat) -> QFormat:
        """Accumulator format for a data/weight product chain."""
        return QFormat(self.acc_bits, data_fmt.frac_bits + weight_fmt.frac_bits)


@dataclass
class HardwareLuts:
    """The three activation ROMs, built once per format configuration."""

    squash: LookupTable2D
    square: LookupTable
    exp: LookupTable

    @classmethod
    def build(cls, fmts: QuantizedFormats | None = None) -> "HardwareLuts":
        """Construct the ROM set for a format configuration."""
        fmts = fmts if fmts is not None else QuantizedFormats()
        return cls(
            squash=build_squash_lut(fmts.squash_in, fmts.norm, fmts.caps_data),
            square=build_square_lut(fmts.square_in, fmts.square_out),
            exp=build_exp_lut(fmts.logits, fmts.exp_out),
        )


@dataclass
class SaturationCounter:
    """Diagnostic counter of values clipped by requantization/saturation."""

    events: int = 0
    total: int = 0
    sites: dict = field(default_factory=dict)

    def record(self, site: str, raw: np.ndarray, fmt: QFormat) -> None:
        """Count how many raw codes in ``raw`` lie outside ``fmt``."""
        arr = np.asarray(raw)
        clipped = int(np.count_nonzero((arr < fmt.raw_min) | (arr > fmt.raw_max)))
        self.events += clipped
        self.total += arr.size
        if clipped:
            self.sites[site] = self.sites.get(site, 0) + clipped

    @property
    def rate(self) -> float:
        """Fraction of processed values that saturated."""
        return self.events / self.total if self.total else 0.0


def quantized_matmul(
    data_raw: np.ndarray,
    weight_raw: np.ndarray,
    acc_fmt: QFormat,
    counter: SaturationCounter | None = None,
    site: str = "matmul",
) -> np.ndarray:
    """Integer GEMM ``data @ weight`` with saturation at the accumulator width.

    Products are exact in ``int64``; the final sums saturate to ``acc_fmt``
    (the 25-bit partial-sum clamp at accumulator readout).
    """
    acc = np.asarray(data_raw, dtype=np.int64) @ np.asarray(weight_raw, dtype=np.int64)
    if counter is not None:
        counter.record(site, acc, acc_fmt)
    return saturate_raw(acc, acc_fmt)


#: Multiply-accumulates up to which OpenBLAS (numpy's BLAS) runs a GEMM on
#: the calling thread; a larger call is split over BLAS's thread pool.  On
#: a 2-vCPU host whose other core is busy (a serving event loop, another
#: array thread) a split call ran 2-4x slower than serial, with a heavy
#: tail.  :func:`saturating_matmul` therefore merges the leading matrices
#: of a shared-tile GEMM into products of at most this size when each
#: matrix alone would run serially; a matrix already above it is threaded
#: anyway, so those go out as one product.
SERIAL_GEMM_MACS = 2**18


def exact_integers(dtype) -> int:
    """Magnitude up to which the float ``dtype`` holds every integer."""
    return 2 ** (np.finfo(dtype).nmant + 1)


class StagedWeights:
    """A GEMM weight operand staged for :func:`saturating_matmul`.

    Holds the integer codes, their largest magnitude and a float copy for
    BLAS.  Integers of magnitude up to ``2**24`` (``2**53``) are exact in
    float32 (float64), and so is every sum of them that stays inside that
    bound.  ``limit`` is the largest per-row bound the float copy may
    take: the accumulator's clip limit (0 for an unsigned accumulator, so
    only an all-zero product skips the chunk loop), capped by the float
    dtype's exact range.  The codes are held in the register width of the
    accumulator format (:func:`~repro.fixedpoint.arith.register_codes`),
    and the accumulator comes back in that dtype too.  A caller that
    reuses the weights stages them once instead of converting them on
    every call.
    """

    __slots__ = ("raw", "max", "float", "limit")

    def __init__(self, raw: np.ndarray, acc_fmt: QFormat) -> None:
        self.raw = register_codes(raw, acc_fmt.total_bits)
        self.max = int(np.abs(self.raw).max(initial=0))
        clip = min(acc_fmt.raw_max, -acc_fmt.raw_min)
        dtype = np.float32 if clip <= exact_integers(np.float32) else np.float64
        self.float = self.raw.astype(dtype)
        self.limit = min(clip, exact_integers(dtype))


def code_max(fmt: QFormat) -> int:
    """Largest magnitude of a raw code of ``fmt``."""
    return max(-fmt.raw_min, fmt.raw_max)


class Epilogue:
    """What a GEMM's accumulator goes through on its way to a register.

    The bias add with accumulator saturation (when there is a bias), then
    each width reduction of ``steps``: ``(in_fmt, out_fmt, relu)`` runs
    :func:`~repro.fixedpoint.arith.requantize` from ``in_fmt`` to
    ``out_fmt``, after :func:`hw_relu` when ``relu``.  :meth:`finish` is
    the integer reference; :meth:`finish_float` runs the same steps in
    place on a float product whose every intermediate a bound proves an
    integer the float dtype holds exactly.
    """

    __slots__ = ("acc_fmt", "bias", "steps", "_bias_float", "_bias_max", "_plan", "_exact")

    def __init__(
        self, acc_fmt: QFormat, bias: np.ndarray | None = None, steps: tuple = ()
    ) -> None:
        self.acc_fmt = acc_fmt
        self.bias = bias
        self.steps = tuple(steps)
        self._bias_max = 0 if bias is None else int(np.abs(bias).max(initial=0))
        self._bias_float = None
        if bias is not None:
            exact32 = self._bias_max <= exact_integers(np.float32)
            self._bias_float = bias.astype(np.float32 if exact32 else np.float64)
        #: Per step: (shift, scale, whether negative codes round down by
        #: a whole step, clip low, clip high, whether its rounding leaves
        #: a fraction to truncate).
        self._plan = tuple(
            (
                in_fmt.frac_bits - out_fmt.frac_bits,
                2.0 ** (out_fmt.frac_bits - in_fmt.frac_bits),
                in_fmt.frac_bits > out_fmt.frac_bits and not relu,
                max(out_fmt.raw_min, 0) if relu else out_fmt.raw_min,
                out_fmt.raw_max,
                in_fmt.frac_bits > out_fmt.frac_bits,
            )
            for in_fmt, out_fmt, relu in self.steps
        )
        #: (bound, float dtype) -> :meth:`exact`, memoized: GEMM bounds
        #: repeat from batch to batch.
        self._exact: dict[tuple, bool] = {}

    def finish(self, acc: np.ndarray) -> np.ndarray:
        """The steps on an integer accumulator."""
        if self.bias is not None:
            acc = saturate_raw(acc + self.bias, self.acc_fmt)
        for in_fmt, out_fmt, relu in self.steps:
            acc = requantize(hw_relu(acc) if relu else acc, in_fmt, out_fmt)
        return acc

    def exact(self, bound: float, dtype) -> bool:
        """Whether :meth:`finish_float` is exact on a ``dtype`` product
        with ``|acc| <= bound``.

        Adding the bias, scaling by a power of two and clipping are exact
        on integers the dtype holds.  A right shift by ``s`` first adds a
        half, ``(x +- 2**(s-1)) * 2**-s``, exact while the integer
        ``|x| + 2**(s-1)`` is.  Every clip constant is below the bound
        that reaches it, so it is held exactly too.
        """
        key = (float(bound), np.dtype(dtype))
        known = self._exact.get(key)
        if known is None:
            known = self._exact[key] = self._check(key[0], exact_integers(dtype))
        return known

    def _check(self, bound: float, top: int) -> bool:
        bound += self._bias_max
        if bound > top:
            return False
        if self.bias is not None:
            bound = min(bound, code_max(self.acc_fmt))
        for (shift, scale, *_), (_, out_fmt, _) in zip(self._plan, self.steps):
            if shift > 0:
                bound += 2 ** (shift - 1)
            if bound > top or bound * scale > top:
                return False
            bound = min(bound * scale, code_max(out_fmt))
        return True

    def finish_float(
        self, acc: np.ndarray, bound: float, dtype, keep: bool = False
    ) -> np.ndarray:
        """:meth:`finish` of the float product ``acc`` (``|acc| <= bound``),
        returned as ``dtype`` codes (in ``acc``'s memory layout).

        When :meth:`exact` holds, the steps run in place on ``acc`` and the
        codes come out of one conversion: rounding half away from zero is
        ``trunc(x * 2**-s + copysign(0.5, x))``, its last truncation the
        conversion's own, and a ReLU folds into the clip of the reduction
        after it.  Otherwise ``acc`` is converted first and :meth:`finish`
        runs on the codes.  ``keep`` leaves ``acc`` holding the codes too.
        """
        if not self.exact(bound, acc.dtype):
            # A widening reduction's codes still fit the register dtype.
            codes = self.finish(acc.astype(dtype)).astype(dtype, copy=False)
            if keep:
                np.copyto(acc, codes)
            return codes
        if self.bias is not None:
            acc += self._bias_float
            np.clip(acc, self.acc_fmt.raw_min, self.acc_fmt.raw_max, out=acc)
        last = len(self._plan) - 1
        for index, (shift, scale, signed, low, high, truncate) in enumerate(self._plan):
            # After a ReLU a negative x rounds to at most 0 either way.
            negative = acc < 0 if signed else None
            if shift:
                acc *= scale
            if shift > 0:
                acc += 0.5
            if signed:
                acc -= negative  # copysign(0.5, x), without its slow ufunc
            np.clip(acc, low, high, out=acc)
            if truncate and (keep or index < last):
                np.trunc(acc, out=acc)
        return acc.astype(dtype)


def saturating_matmul(
    data: np.ndarray,
    weights: StagedWeights,
    acc_fmt: QFormat,
    chunk_rows: int,
    rowsum=None,
    epilogue: Epilogue | None = None,
    out: np.ndarray | None = None,
    transposed: bool = False,
) -> np.ndarray:
    """Integer GEMM with per-K-chunk saturation, batched over leading axes.

    Reproduces the systolic array's accumulation order exactly: the K axis
    is split into chunks of ``chunk_rows`` (one weight tile's worth of
    rows); each chunk's partial product saturates to ``acc_fmt`` at the
    accumulator entry, and the running sum saturates again after every
    chunk.  ``data`` is ``(..., M, K)``; 2-D weights are shared by every
    leading index, stacked ones broadcast.  The accumulator has the staged
    codes' integer dtype (``weights.raw.dtype``).

    Every prefix of the chunked accumulation is bounded per element by
    ``rowsum(|data|) * max|w|``.  When that bound is within
    ``weights.limit`` no clip can trigger and every partial sum is an
    integer the float dtype holds exactly, so one BLAS product is
    bit-identical to the chunk loop, which runs otherwise.  ``rowsum``
    is any upper bound on every row's sum of magnitudes the caller
    already knows: ``K * max|code|`` of the data's Q-format, fixed when
    the program is staged, or exact window sums.  Only when it is absent
    or too loose to prove exactness are the row sums taken, on the float
    copy: rounding is monotone and the summands are non-negative, so a
    computed sum inside the dtype's exact range proves every element and
    partial sum was exact.  ``data`` may already be in the float dtype,
    as long as its codes are exact there: the chunk loop reads them back
    as integers, so when the loop is needed, float data reaching
    :func:`exact_integers` (where a rounded code may sit) raises
    :class:`ValueError`.  An ``epilogue`` is applied to the accumulator
    before it is returned, on the BLAS float result
    (:meth:`Epilogue.finish_float`) when the bound allows.

    Two arguments choose only where the work lands, never a bit of the
    result.  ``out``, a float array of the result's shape in any memory
    layout, receives the codes as well: the float product is computed
    into it, and the returned codes share its layout.  ``transposed``
    issues the float product as ``(w.T @ data.T).T``, for ``data`` that
    is the transposed view of contiguous ``(..., K, M)`` panels: BLAS then
    reads every panel in memory order.  Inside the bound every partial
    sum is exact, so no summation order can change the result.
    """
    operand = data.astype(weights.float.dtype, copy=False)
    if rowsum is None or float(rowsum) * weights.max > weights.limit:
        rowsum = np.abs(operand).sum(axis=-1).max(initial=0)
    if float(rowsum) * weights.max > weights.limit:
        if data.dtype.kind == "f" and np.abs(data).max(initial=0) >= exact_integers(data.dtype):
            raise ValueError(
                f"{data.dtype} data past its exact integer range; pass the integer codes"
            )
        acc = _chunked_accumulation(
            np.asarray(data, dtype=np.int64), weights.raw, acc_fmt, chunk_rows
        ).astype(weights.raw.dtype, copy=False)
        if epilogue is not None:
            acc = epilogue.finish(acc).astype(weights.raw.dtype, copy=False)
        if out is not None:
            np.copyto(out, acc)
        return acc
    product = _float_product(operand, weights, out, transposed)
    if epilogue is None:
        return product.astype(weights.raw.dtype)
    bound = float(rowsum) * weights.max
    return epilogue.finish_float(product, bound, weights.raw.dtype, keep=out is not None)


def _float_product(
    operand: np.ndarray,
    weights: StagedWeights,
    out: np.ndarray | None = None,
    transposed: bool = False,
) -> np.ndarray:
    """``operand @ weights.float`` as :func:`saturating_matmul` issues it."""
    if transposed:
        into = None if out is None else out.swapaxes(-1, -2)
        product = np.matmul(weights.float.swapaxes(-1, -2), operand.swapaxes(-1, -2), out=into)
        return product.swapaxes(-1, -2)
    if out is not None:
        return np.matmul(operand, weights.float, out=out)
    if weights.float.ndim == 2:
        # Stream the leading matrices' rows through the shared tile: in
        # one BLAS call, or, when that would turn serial per-matrix
        # products threaded, in equal serial-sized groups that numpy
        # still issues from one stacked call.
        k, n = weights.float.shape
        rows = operand.reshape(-1, k)
        matrix_rows = operand.shape[-2]
        count = len(rows) // max(matrix_rows, 1)
        per_call = SERIAL_GEMM_MACS // max(matrix_rows * k * n, 1)
        group = max(min(per_call, count) if per_call else count, 1)
        while count % group:
            group -= 1
        out = rows.reshape(count // group, group * matrix_rows, k) @ weights.float
        return out.reshape(operand.shape[:-1] + (n,))
    return operand @ weights.float


def _chunked_accumulation(
    data: np.ndarray, weights: np.ndarray, acc_fmt: QFormat, chunk_rows: int
) -> np.ndarray:
    """The clipped chunk-by-chunk accumulation, in float64 when exact."""
    max_d = int(np.abs(data).max(initial=0))
    if chunk_rows * max_d * int(np.abs(weights).max(initial=0)) < 2**53:
        data, weights = data.astype(np.float64), weights.astype(np.float64)
    out_shape = np.broadcast_shapes(data.shape[:-2], weights.shape[:-2]) + (
        data.shape[-2],
        weights.shape[-1],
    )
    acc = np.zeros(out_shape, dtype=np.int64)
    for lo in range(0, data.shape[-1], chunk_rows):
        partial = np.asarray(
            data[..., :, lo : lo + chunk_rows] @ weights[..., lo : lo + chunk_rows, :],
            dtype=np.int64,
        )
        np.clip(partial, acc_fmt.raw_min, acc_fmt.raw_max, out=partial)
        acc += partial
        np.clip(acc, acc_fmt.raw_min, acc_fmt.raw_max, out=acc)
    return acc


def chunked_saturating_matmul(
    data_raw: np.ndarray,
    weight_raw: np.ndarray,
    acc_fmt: QFormat,
    chunk_rows: int,
) -> np.ndarray:
    """:func:`saturating_matmul` on unstaged operands.

    ``data_raw`` is ``(..., M, K)`` and ``weight_raw`` is ``(K, N)`` or
    ``(..., K, N)`` — leading axes broadcast, so one call executes a whole
    batch of independent products (the grouped-GEMM path of the batched
    execution engine).
    """
    data = np.asarray(data_raw, dtype=np.int64)
    weights = np.asarray(weight_raw, dtype=np.int64)
    if data.shape[-1] != weights.shape[-2]:
        raise ShapeError(
            f"GEMM shapes inconsistent: data {data.shape}, weights {weights.shape}"
        )
    return saturating_matmul(data, StagedWeights(weights, acc_fmt), acc_fmt, chunk_rows)


def channels_last_order(channels: int, kernel: int) -> np.ndarray:
    """Program tile row held at each channels-last row.

    A conv tile's program rows run ``(c, kh, kw)``; staged for
    channels-last windows, row ``(kh, kw, c)`` holds program row
    ``c * kernel**2 + kh * kernel + kw``.
    """
    return np.arange(channels * kernel * kernel).reshape(channels, -1).T.ravel()


def by_kernel_row(kernel: int, channels: int, positions: int, n: int) -> bool:
    """Whether :func:`conv_matmul` runs one GEMM per kernel row.

    Accumulating ``kernel`` partial ``(positions, N)`` products costs
    passes over the output; skipping the patch matrix saves a copy of
    ``kernel * C`` codes per output row each.  So a conv splits when its
    per-row depth ``kernel * C`` is at least ``N`` and each image's
    kernel-row GEMM has BLAS-sized work, :data:`SERIAL_GEMM_MACS` or more
    (MNIST PrimaryCaps: depth 2304 vs 256; Conv1, depth 9, and the tiny
    network's convs stay on one patch matrix).
    """
    depth = kernel * channels
    return kernel > 1 and depth >= n and positions * depth * n >= SERIAL_GEMM_MACS


def conv_matmul(
    x: np.ndarray,
    weights: StagedWeights,
    kernel: int,
    stride: int,
    acc_fmt: QFormat,
    chunk_rows: int,
    rowsum=None,
    epilogue: Epilogue | None = None,
) -> np.ndarray:
    """:func:`saturating_matmul` of the convolution windows of ``x``.

    ``x`` is ``(..., C, H, W)`` codes; ``weights`` holds the ``(C*k*k, N)``
    tile with its rows channels-last, row ``(kh, kw, c)`` meeting window
    element ``(kh, kw, c)``.  Returns ``(..., positions, N)``, each output
    position's window contracted with the tile as the array would in
    program row order ``(c, kh, kw)``.

    The row bound is ``rowsum`` (the data format's ``K * max|code|``) or,
    when that is too loose, the window sums of the channel-summed
    magnitudes, taken without building patches.  Once it proves the
    product exact, the windows are read channels-last in the tile's float
    dtype: as one patch matrix, or, when :func:`by_kernel_row` says so,
    as one GEMM per kernel row against that row's block of the tile,
    the partial products accumulating in the float dtype (every partial
    sum stays inside the bound, so it is exact).  Otherwise the array's
    K-chunk clipping depends on row order, and the chunk loop runs over
    program-order patches.
    """
    *lead, channels, height, width = x.shape
    k_rows, n = weights.raw.shape
    if k_rows != channels * kernel * kernel:
        raise ShapeError(f"tile of {k_rows} rows for {channels}x{kernel}x{kernel} windows")
    bound = rowsum
    if bound is None or float(bound) * weights.max > weights.limit:
        magnitude = np.abs(x).sum(axis=-3, keepdims=True, dtype=np.float64)
        bound = im2col(magnitude, kernel, stride).sum(axis=-1).max(initial=0.0)
    if float(bound) * weights.max > weights.limit:
        order = np.argsort(channels_last_order(channels, kernel))
        program = StagedWeights(weights.raw[order], acc_fmt)
        patches = im2col(x, kernel, stride)
        return saturating_matmul(patches, program, acc_fmt, chunk_rows, bound, epilogue)
    dtype = weights.float.dtype
    out_h = (height - kernel) // stride + 1
    out_w = (width - kernel) // stride + 1
    depth = kernel * channels
    if not by_kernel_row(kernel, channels, out_h * out_w, n):
        patches = im2col(x.astype(dtype), kernel, stride, channels_last=True)
        return saturating_matmul(patches, weights, acc_fmt, chunk_rows, bound, epilogue)
    pixels = np.moveaxis(x, -3, -1).astype(dtype, order="C")
    *lead_strides, s_h, s_w, s_c = pixels.strides
    window = np.empty(tuple(lead) + (out_h, out_w, depth), dtype=dtype)
    rows = window.reshape(-1, depth)
    acc = part = None
    for kh in range(kernel):
        # Kernel row kh of every window: k*C contiguous codes per position.
        view = np.lib.stride_tricks.as_strided(
            pixels[..., kh:, :, :],
            window.shape,
            (*lead_strides, s_h * stride, s_w * stride, s_c),
            writeable=False,
        )
        np.copyto(window, view)
        block = weights.float[kh * depth : (kh + 1) * depth]
        if acc is None:
            acc = rows @ block
            part = np.empty_like(acc)
        else:
            np.matmul(rows, block, out=part)
            acc += part
    acc = acc.reshape(tuple(lead) + (out_h * out_w, n))
    if epilogue is None:
        return acc.astype(weights.raw.dtype)
    return epilogue.finish_float(acc, float(bound) * weights.max, weights.raw.dtype)


def quantized_conv2d(
    x_raw: np.ndarray,
    weight_raw: np.ndarray,
    bias_raw: np.ndarray | None,
    stride: int,
    acc_fmt: QFormat,
    counter: SaturationCounter | None = None,
    site: str = "conv",
) -> np.ndarray:
    """Integer valid convolution; returns accumulator-format raw values.

    ``x_raw`` is ``(C, H, W)``, ``weight_raw`` is ``(O, C, K, K)``; the bias
    must already be expressed in ``acc_fmt``.
    """
    out_channels = weight_raw.shape[0]
    kernel_size = weight_raw.shape[2]
    if weight_raw.shape[2] != weight_raw.shape[3]:
        raise ShapeError("only square kernels are supported")
    patches = im2col(np.asarray(x_raw, dtype=np.int64), kernel_size, stride)
    wmat = np.asarray(weight_raw, dtype=np.int64).reshape(out_channels, -1)
    acc = patches @ wmat.T
    if bias_raw is not None:
        acc = acc + np.asarray(bias_raw, dtype=np.int64)
    if counter is not None:
        counter.record(site, acc, acc_fmt)
    acc = saturate_raw(acc, acc_fmt)
    from repro.capsnet.config import conv_output_size

    out_h = conv_output_size(x_raw.shape[1], kernel_size, stride)
    out_w = conv_output_size(x_raw.shape[2], kernel_size, stride)
    return acc.T.reshape(out_channels, out_h, out_w)


def hw_relu(raw: np.ndarray) -> np.ndarray:
    """ReLU on raw codes (sign is preserved by two's complement), in
    their register width (:func:`~repro.fixedpoint.arith.register_codes`)."""
    return np.maximum(register_codes(raw), 0)


def hw_norm(
    vec_raw: np.ndarray,
    in_fmt: QFormat,
    luts: HardwareLuts,
    fmts: QuantizedFormats,
) -> tuple[np.ndarray, np.ndarray]:
    """The norm unit (paper Fig 11f) over the last axis of ``vec_raw``.

    Each component is requantized onto the square-LUT input grid, squared via
    the LUT, accumulated in an internal register, and square-rooted into the
    5-bit norm format.  Returns ``(norm_raw, sum_of_squares_raw)``; the sum
    of squares is in ``square_out`` format summed exactly (register width
    exceeds 8 bits) and is also used directly for classification, where the
    monotonicity of x^2 makes the square root unnecessary.
    """
    square_in = requantize(vec_raw, in_fmt, fmts.square_in)
    squares = luts.square.lookup(square_in)
    bits = fmts.square_out.total_bits + squares.shape[-1].bit_length()
    squares = register_codes(squares, bits)
    sumsq = np.sum(squares, axis=-1, dtype=squares.dtype)
    norm = fixed_sqrt(sumsq, fmts.square_out, fmts.norm).astype(squares.dtype, copy=False)
    return norm, sumsq


def hw_squash(
    vec_raw: np.ndarray,
    in_fmt: QFormat,
    luts: HardwareLuts,
    fmts: QuantizedFormats,
) -> np.ndarray:
    """The squash unit (paper Fig 11e) over the last axis of ``vec_raw``.

    The norm arrives from the norm unit; each component is requantized onto
    the 6-bit LUT grid and looked up against the 5-bit norm, producing 8-bit
    capsule components.
    """
    norm, _ = hw_norm(vec_raw, in_fmt, luts, fmts)
    squash_in = requantize(vec_raw, in_fmt, fmts.squash_in)
    norm_b = np.broadcast_to(np.expand_dims(norm, -1), squash_in.shape)
    return luts.squash.lookup(squash_in, norm_b)


def hw_softmax(
    logits_raw: np.ndarray,
    luts: HardwareLuts,
    fmts: QuantizedFormats,
    axis: int = -1,
) -> np.ndarray:
    """The softmax unit (paper Fig 11g) along ``axis``.

    The control logic subtracts the running maximum (keeping exp-LUT inputs
    non-positive), looks up ``exp``, accumulates the denominator in a
    register, and divides with round-to-nearest integer division.  The
    output lands in the coupling-coefficient format so it can feed the
    weight port of the systolic array directly.
    """
    # Codes of at most NARROW_BITS bits: their differences fit int32.
    logits = register_codes(logits_raw)
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    shifted = saturate_raw(shifted, fmts.logits, in_place=True)
    scale = 1 << fmts.coupling.frac_bits
    # Round-to-nearest integer division: (2*n*scale + d) // (2*d), whose
    # operands stay within 2 * (scale + count) * max(exp).
    largest = 2 * max(fmts.exp_out.raw_max, 1) * (scale + logits.shape[axis])
    exps = register_codes(luts.exp.lookup(shifted), largest.bit_length() + 1)
    denom = np.sum(exps, axis=axis, keepdims=True, dtype=exps.dtype)
    numer = exps * (2 * scale)
    numer += denom
    coupling = numer // (2 * denom)
    # Unsigned exp codes give 0 <= e <= d, so the quotient lies in
    # [0, scale]: the clip can only bite when scale exceeds the format.
    if luts.exp.out_fmt.signed or scale > fmts.coupling.raw_max:
        coupling = saturate_raw(coupling, fmts.coupling, in_place=True)
    return coupling
