"""Q-format machinery and the concrete CapsAcc datapath formats.

A :class:`QFormat` describes a fixed-point representation by its total bit
width, the number of fractional bits and its signedness.  The *raw* integer
``r`` represents the real value ``r * 2**-frac_bits``.

The module-level constants are the concrete formats of the CapsAcc
datapath (paper Section IV).  The paper fixes the bit *widths*; the
binary-point positions are a design choice the paper leaves implicit.  The
positions below are chosen so that

* products of data and weights align exactly with the accumulator format
  (``DATA8.frac_bits + WEIGHT8.frac_bits == ACC25.frac_bits``),
* capsule activations (bounded by 1 after squashing) keep maximum precision,
* the norm input of the squash LUT covers the dynamic range observed for
  ``||s_j||`` on the MNIST CapsuleNet.

Changing these constants is supported everywhere (the bit-width ablation
sweeps them); the defaults reproduce the paper's widths.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import QFormatError


@dataclass(frozen=True)
class QFormat:
    """A fixed-point number format.

    Parameters
    ----------
    total_bits:
        Total width of the representation in bits, including the sign bit
        for signed formats.  Must be at least 1 (at least 2 when signed).
    frac_bits:
        Number of fractional bits.  May exceed ``total_bits`` (a format with
        only sub-unit resolution) and may be negative (a coarse format whose
        step is larger than 1); both occur in intermediate datapath values.
    signed:
        Whether the format is two's-complement signed.
    """

    total_bits: int
    frac_bits: int
    signed: bool = True

    def __post_init__(self) -> None:
        if self.total_bits < 1:
            raise QFormatError(f"total_bits must be >= 1, got {self.total_bits}")
        if self.signed and self.total_bits < 2:
            raise QFormatError("signed formats need at least 2 bits")

    @property
    def int_bits(self) -> int:
        """Number of integer (non-fractional, non-sign) bits."""
        sign = 1 if self.signed else 0
        return self.total_bits - self.frac_bits - sign

    @property
    def raw_min(self) -> int:
        """Smallest representable raw integer."""
        if self.signed:
            return -(1 << (self.total_bits - 1))
        return 0

    @property
    def raw_max(self) -> int:
        """Largest representable raw integer."""
        if self.signed:
            return (1 << (self.total_bits - 1)) - 1
        return (1 << self.total_bits) - 1

    @property
    def resolution(self) -> float:
        """Real-valued step between adjacent representable numbers."""
        return 2.0 ** (-self.frac_bits)

    @property
    def min_value(self) -> float:
        """Smallest representable real value."""
        return self.raw_min * self.resolution

    @property
    def max_value(self) -> float:
        """Largest representable real value."""
        return self.raw_max * self.resolution

    @property
    def num_codes(self) -> int:
        """Number of distinct representable values (LUT addressing size)."""
        return 1 << self.total_bits

    def contains_raw(self, raw: int) -> bool:
        """Whether ``raw`` fits in this format without saturation."""
        return self.raw_min <= raw <= self.raw_max

    def wrap_raw(self, raw: int) -> int:
        """Two's-complement wrap of ``raw`` into this format's range.

        Used for LUT address decoding, where the hardware simply takes the
        low ``total_bits`` bits of the bus.
        """
        mask = (1 << self.total_bits) - 1
        value = raw & mask
        if self.signed and value > self.raw_max:
            value -= 1 << self.total_bits
        return value

    def describe(self) -> str:
        """Human-readable ``Qm.n`` style description."""
        kind = "s" if self.signed else "u"
        return (
            f"Q{kind}{self.int_bits}.{self.frac_bits}"
            f" ({self.total_bits} bits, range [{self.min_value:g}, {self.max_value:g}],"
            f" step {self.resolution:g})"
        )


#: 8-bit data entering a processing element (activations, predictions).
DATA8 = QFormat(total_bits=8, frac_bits=4)

#: 8-bit weights entering a processing element (also coupling coefficients).
WEIGHT8 = QFormat(total_bits=8, frac_bits=6)

#: 25-bit partial sums inside the systolic array and accumulator.  The
#: fractional part equals the product alignment of DATA8 x WEIGHT8.
ACC25 = QFormat(total_bits=25, frac_bits=DATA8.frac_bits + WEIGHT8.frac_bits)

#: 6-bit data input of the squashing LUT (components of s_j).
SQUASH_IN6 = QFormat(total_bits=6, frac_bits=3)

#: 5-bit norm input of the squashing LUT (||s_j|| is non-negative).  The
#: range [0, 3.875] covers the pre-squash norms observed on the CapsuleNet;
#: larger norms saturate, where the squash gain n/(1+n^2) is already flat.
NORM5 = QFormat(total_bits=5, frac_bits=3, signed=False)

#: 8-bit output of the squashing LUT; squashed components lie in (-1, 1).
SQUASH_OUT8 = QFormat(total_bits=8, frac_bits=6)

#: 12-bit input of the square LUT inside the norm unit.
SQUARE_IN12 = QFormat(total_bits=12, frac_bits=8)

#: 8-bit output of the square LUT (squares are non-negative).  The fine
#: 1/64 step preserves classification precision for capsule outputs
#: (|v| <= 1, so squares never saturate); pre-squash elements beyond |s| = 2
#: clamp, where the squash gain is insensitive to the exact norm.
SQUARE_OUT8 = QFormat(total_bits=8, frac_bits=6, signed=False)

#: 8-bit input of the exponential LUT inside the softmax unit.  The control
#: logic subtracts the row maximum first, so inputs are <= 0 and the output
#: lies in (0, 1].
EXP_IN8 = QFormat(total_bits=8, frac_bits=4)

#: 8-bit output of the exponential LUT.
EXP_OUT8 = QFormat(total_bits=8, frac_bits=7, signed=False)
