"""Mid-tread saturating quantizer.

The scalar quantizer maps chi to the integer cell index psi with
(2 psi - 1)/2 <= chi < (2 psi + 1)/2 for chi >= -1/2 and mirrors for
chi < -1/2 (so cells are left-closed on the positive side, right-closed on
the negative side; the overlap at chi = -1/2 resolves to 0).  Saturation
clamps to +-range_level and raises a flag instead of an error: whether a
saturated sample invalidates a run is the orchestrator's call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exactmat import as_fraction


@dataclass(frozen=True)
class QuantizerSpec:
    """range_level is the largest representable cell index (R >= 1)."""

    range_level: int

    def __post_init__(self):
        if self.range_level < 1:
            raise ValueError("range_level must be >= 1")

    @property
    def half_range(self) -> Fraction:
        """Saturation threshold (2R+1)/2: inputs at or beyond it saturate."""
        return Fraction(2 * self.range_level + 1, 2)


def _cell_index(chi: Fraction) -> int:
    # unsaturated mid-tread for chi >= -1/2: psi = floor(chi + 1/2)
    return (2 * chi.numerator + chi.denominator) // (2 * chi.denominator)


def quantize_scalar(chi, spec: Optional[QuantizerSpec] = None):
    """Quantize one value; returns (integer, saturated).

    `spec=None` means an unbounded quantizer (used by the scheme that
    assumes infinite range).  Accepts int/float/Fraction; floats convert
    exactly, so cell decisions are deterministic.
    """
    chi = as_fraction(chi)
    if chi < Fraction(-1, 2):
        psi, sat = quantize_scalar(-chi, spec)
        return -psi, sat
    psi = _cell_index(chi)
    if spec is not None and abs(chi) >= spec.half_range:
        return min(psi, spec.range_level), True
    return psi, False


def quantize_vector(x: Sequence, spec: Optional[QuantizerSpec] = None):
    """Elementwise quantization; flag is the OR of element flags."""
    out = []
    sat = False
    for chi in x:
        psi, s = quantize_scalar(chi, spec)
        out.append(psi)
        sat = sat or s
    return out, sat
