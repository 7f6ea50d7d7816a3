"""Built-in scenarios.

`batch_reactor` is the classic two-input batch reactor discretized at 0.1 s
together with a stabilizing output-feedback controller from the encrypted
control literature.  The published observer gain is a 4-decimal printing of an
exactly deadbeat rational gain; `batch_reactor` carries the printed matrix and
`batch_reactor_exact_observer` the exact companion: the minimal-index deadbeat
design, which rounded to 4 decimals reproduces the printed gain digit for
digit.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .exactmat import RationalMatrix, as_fraction, fraction_to_str
from .planner import (
    ControllerModel,
    DeadbeatDesign,
    PlantModel,
    deadbeat_companion,
)
from .records import Record


class Scenario(Record, frozen=True):
    name: str
    plant: PlantModel
    ctrl: ControllerModel
    reference: RationalMatrix        # constant reference, n_r x 1
    x_p0: tuple                      # exact initial plant state (Fractions)
    L_published: Optional[RationalMatrix] = None

    def __post_init__(self):
        if self.reference.shape != (self.ctrl.n_r, 1):
            raise ValueError(f"reference has {self.reference.rows} entries; "
                             f"the controller takes {self.ctrl.n_r}")
        if len(self.x_p0) != self.plant.n:
            raise ValueError(f"x_p0 has {len(self.x_p0)} entries; "
                             f"the plant has {self.plant.n} states")
        # every plan sizes q and the quantizer range from the bound, not x_p0
        worst = max(self.x_p0, key=abs, default=0)
        if abs(worst) > self.plant.x_p0_bound:
            raise ValueError(f"x_p0 entry {fraction_to_str(as_fraction(worst))} exceeds "
                             f"x_p0_bound {fraction_to_str(self.plant.x_p0_bound)}")


@lru_cache(maxsize=None)
def batch_reactor() -> Scenario:
    A = RationalMatrix.from_rows([
        ["1.18", "0", "0.51", "-0.4"],
        ["-0.05", "0.66", "-0.01", "0.06"],
        ["0.08", "0.34", "0.56", "0.38"],
        ["0", "0.34", "0.09", "0.85"],
    ])
    B = RationalMatrix.from_rows([["0"], ["0.47"], ["0.21"], ["0.21"]])
    C = RationalMatrix.from_rows([
        ["1", "0", "1", "-1"],
        ["0", "1", "0", "0"],
    ])
    F = RationalMatrix.from_rows([
        ["0.26", "-0.03", "-0.29", "0.31"],
        ["-0.32", "1.24", "1.4", "-3.05"],
        ["-0.45", "0.02", "0.87", "-0.75"],
        ["-0.05", "-0.04", "0.72", "-0.51"],
    ])
    G = RationalMatrix.from_rows([
        ["-0.52", "-0.03"],
        ["5.46", "1.25"],
        ["2.32", "-0.01"],
        ["2.28", "-0.08"],
    ])
    H = RationalMatrix.from_rows([["1.02", "-2.65", "-2.65", "6.28"]])
    J = RationalMatrix.from_rows([["-11.3", "-4.09"]])
    R = RationalMatrix.identity(4)
    S = RationalMatrix.from_rows([["1", "1", "1", "1"]])
    L = RationalMatrix.from_rows([
        ["2.0879", "0.0705"],
        ["-0.0024", "1.4954"],
        ["1.2623", "15.4110"],
        ["1.5956", "14.5017"],
    ])
    plant = PlantModel(A=A, B=B, C=C, x_p0_bound=Fraction(2))
    ctrl = ControllerModel(F=F, G=G, R_ref=R, H=H, J=J, S=S,
                           x0=RationalMatrix.zeros(4, 1))
    reference = RationalMatrix.column(["1.1", "5.2", "3.5", "6.7"])
    x_p0 = tuple(Fraction(1) for _ in range(4))
    return Scenario("batch-reactor", plant, ctrl, reference, x_p0, L_published=L)


@lru_cache(maxsize=None)
def batch_reactor_exact_observer() -> DeadbeatDesign:
    """Exact deadbeat companion of the published 4-decimal observer gain."""
    sc = batch_reactor()
    design = deadbeat_companion(sc.plant.A, sc.plant.C, sc.L_published)
    if design is None:
        raise RuntimeError("the published gain is not a rounding of the deadbeat design")
    return design


@lru_cache(maxsize=None)
def coupled_tanks() -> Scenario:
    """Small two-state demo loop that the direct conversion route accepts:
    the output feedback deadbeats the plant block and F is nilpotent, so the
    closed loop contracts well below F's integerizing scale."""
    A = RationalMatrix.from_rows([["0.2", "0.1"], ["0", "0.25"]])
    B = RationalMatrix.identity(2)
    C = RationalMatrix.identity(2)
    F = RationalMatrix.from_rows([["0", "0.5"], ["0", "0"]])
    G = RationalMatrix.from_rows([["0.2", "0"], ["0", "0.2"]])
    H = RationalMatrix.from_rows([["0.1", "0"], ["0", "0.1"]])
    J = RationalMatrix.from_rows([["-0.2", "-0.1"], ["0", "-0.25"]])
    R = RationalMatrix.from_rows([["0.5"], ["0"]])
    S = RationalMatrix.from_rows([["0"], ["0.5"]])
    plant = PlantModel(A=A, B=B, C=C, x_p0_bound=Fraction(1))
    ctrl = ControllerModel(F=F, G=G, R_ref=R, H=H, J=J, S=S,
                           x0=RationalMatrix.column(["0.5", "-0.5"]))
    reference = RationalMatrix.column(["0.3"])
    x_p0 = (Fraction(1, 2), Fraction(-1, 2))
    return Scenario("coupled-tanks", plant, ctrl, reference, x_p0)


FIXTURES = {
    "batch-reactor": batch_reactor,
    "coupled-tanks": coupled_tanks,
}
