"""Mid-tread saturating quantizer.

The scalar quantizer maps chi to the integer cell index psi with
(2 psi - 1)/2 <= chi < (2 psi + 1)/2 for chi >= -1/2 and mirrors for
chi < -1/2 (so cells are left-closed on the positive side, right-closed on
the negative side; the overlap at chi = -1/2 resolves to 0).  Saturation
at |chi| >= (2R+1)/2 clamps to +-range_level and raises a flag instead of
an error: whether a saturated sample invalidates a run is the
orchestrator's call.

One integer rule decides every cell, on chi = n/d with integer n and d > 0,
so callers that hold values as integer numerators over a common denominator
quantize them without building a Fraction.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .exactmat import as_ratio
from .records import Record


class QuantizerSpec(Record, frozen=True):
    """range_level is the largest representable cell index (R >= 1)."""

    range_level: int

    def __post_init__(self):
        if self.range_level < 1:
            raise ValueError("range_level must be >= 1")


def quantize_scalar(chi, spec: Optional[QuantizerSpec] = None):
    """Quantize one value; returns (integer, saturated).

    `spec=None` means an unbounded quantizer (used by the scheme that
    assumes infinite range).  Accepts int/float/Fraction; floats convert
    exactly, so cell decisions are deterministic.
    """
    (psi,), sat = quantize_vector((chi,), spec)
    return psi, sat


def quantize_vector(values: Sequence, spec: Optional[QuantizerSpec] = None,
                    den: int = 1):
    """Elementwise quantization of values[i]/den (den > 0); flag is the OR
    of element flags.  Each cell is decided here, in one loop, on
    chi = n/d: an integer value is its own numerator n over d = den, so
    integer values need integer arithmetic only and no call per entry."""
    out, sat = [], False
    edge = None if spec is None else 2 * spec.range_level + 1  # |chi| >= edge/2 saturates
    for v in values:
        if isinstance(v, int):
            n, d = v, den
        else:
            n, d = as_ratio(v)
            d *= den
        mirrored = 2 * n < -d  # chi < -1/2: the cell of -chi, negated
        a = -2 * n if mirrored else 2 * n
        if edge is not None and a >= edge * d:
            psi, sat = spec.range_level, True
        else:
            psi = (a + d) // (2 * d)  # mid-tread: floor(a/(2d) + 1/2)
        out.append(-psi if mirrored else psi)
    return out, sat
