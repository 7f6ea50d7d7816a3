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


def _cell(n: int, d: int, spec: Optional[QuantizerSpec]):
    """(psi, saturated) for chi = n/d, d > 0."""
    if 2 * n < -d:
        psi, sat = _cell(-n, d, spec)
        return -psi, sat
    # unsaturated mid-tread for chi >= -1/2: psi = floor(chi + 1/2)
    psi = (2 * n + d) // (2 * d)
    if spec is not None and 2 * abs(n) >= (2 * spec.range_level + 1) * d:
        return min(psi, spec.range_level), True
    return psi, False


def quantize_scalar(chi, spec: Optional[QuantizerSpec] = None):
    """Quantize one value; returns (integer, saturated).

    `spec=None` means an unbounded quantizer (used by the scheme that
    assumes infinite range).  Accepts int/float/Fraction; floats convert
    exactly, so cell decisions are deterministic.
    """
    return _cell(*as_ratio(chi), spec)


def quantize_vector(values: Sequence, spec: Optional[QuantizerSpec] = None,
                    den: int = 1):
    """Elementwise quantization of values[i]/den (den > 0); flag is the OR
    of element flags.  With integer values this is integer arithmetic only."""
    out = []
    sat = False
    for v in values:
        n, d = as_ratio(v)
        psi, s = _cell(n, d * den, spec)
        out.append(psi)
        sat = sat or s
    return out, sat
