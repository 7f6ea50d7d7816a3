"""Scheme parameter synthesis.

Two conversion routes for a pre-given controller:

* preliminary: feasible only when the closed loop contracts faster than the
  coarsest integerizing scale of F (rho_c < s_F); the zoom factor omega then
  doubles as the matrix divisor and a finite modulus exists.

* main: a deadbeat observer decouples omega from the closed-loop rate, so an
  integerizing omega always exists; the modulus and quantizer range come from
  worst-case bounds on the transmitted increments.  The caller supplies the
  observer gain (`MainPlanOptions.L`: a published gain, or the exact
  minimal-index deadbeat design of `design_deadbeat_observer`, which
  `deadbeat_companion` accepts when the published gain is its rounding), and
  the observer-error bound C_e is a finite sum up to the gain's nilpotency
  index (`compute_Ce(..., deadbeat_index)`).

Each scale is the largest integerizing one (`exactmat.max_integer_scale`);
each zoom (omega, l0) is the largest power of ten that passes its checks.
Everything that gates an exact property (integrality, nilpotency) is computed
in rational arithmetic; series bounds and spectra run in floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .exactmat import (
    DimensionMismatchError,
    RationalMatrix,
    ZeroMatrixError,
    as_fraction,
    block,
    block_closed_loop,
    fraction_to_str,
    hstack,
    inf_norm,
    is_integer_after_scale,
    matrix_to_json,
    max_integer_scale,
    spectral_radius,
    vstack,
)


class PlannerError(Exception):
    pass


class AssumptionViolatedError(PlannerError):
    """The pre-given closed loop is not contractive (rho_c >= 1)."""


class InfeasibleError(PlannerError):
    pass


class DivergentError(PlannerError):
    pass


class NotObservableError(PlannerError):
    pass


class PinError(PlannerError):
    """A value pinned in `MainPlanOptions` fails a check that the planner's
    own choice of that value always passes."""


# -- models --------------------------------------------------------------


@dataclass(frozen=True)
class PlantModel:
    A: RationalMatrix
    B: RationalMatrix
    C: RationalMatrix
    x_p0_bound: Fraction = Fraction(0)

    def __post_init__(self):
        n = self.A.rows
        if self.A.cols != n or self.B.rows != n or self.C.cols != n:
            raise DimensionMismatchError("inconsistent plant dimensions")
        object.__setattr__(self, "x_p0_bound", as_fraction(self.x_p0_bound))
        if self.x_p0_bound < 0:
            raise ValueError("x_p0_bound must be nonnegative")

    @property
    def n(self):
        return self.A.rows

    @property
    def w(self):
        return self.B.cols

    @property
    def v(self):
        return self.C.rows


@dataclass(frozen=True)
class ControllerModel:
    F: RationalMatrix
    G: RationalMatrix
    R_ref: RationalMatrix
    H: RationalMatrix
    J: RationalMatrix
    S: RationalMatrix
    x0: RationalMatrix  # n_x x 1

    def __post_init__(self):
        n_x = self.F.rows
        if (
            self.F.cols != n_x
            or self.G.rows != n_x
            or self.R_ref.rows != n_x
            or self.H.cols != n_x
            or self.x0.rows != n_x
            or self.x0.cols != min(1, n_x)
            or self.H.rows != self.J.rows
            or self.J.rows != self.S.rows
            or self.G.cols != self.J.cols
            or self.R_ref.cols != self.S.cols
        ):
            raise DimensionMismatchError("inconsistent controller dimensions")

    @property
    def n_x(self):
        return self.F.rows

    @property
    def n_r(self):
        return self.R_ref.cols

    @property
    def w(self):
        return self.H.rows


# -- feasibility of the preliminary route ---------------------------------


@dataclass(frozen=True)
class FeasibilityReport:
    rho_c: float
    s_F: Fraction
    feasible: bool
    reason: str


def _contractive_rho_c(plant: PlantModel, ctrl: ControllerModel) -> float:
    """rho_c, the spectral radius of the pre-given closed loop, which both
    routes assume below 1."""
    rho_c = spectral_radius(block_closed_loop(plant, ctrl))
    if rho_c >= 1.0:
        raise AssumptionViolatedError(
            f"closed loop is not contractive: rho_c = {rho_c:.6f} >= 1"
        )
    return rho_c


def check_prelim_feasible(plant: PlantModel, ctrl: ControllerModel) -> FeasibilityReport:
    rho_c = _contractive_rho_c(plant, ctrl)
    s_F = max_integer_scale(ctrl.F)  # the controller's own granularity
    feasible = rho_c < float(s_F)
    reason = "" if feasible else (
        f"rho_c = {rho_c:.4f} >= s_F = {fraction_to_str(s_F)}: no zoom factor "
        "can both outrun the closed loop and integerize F"
    )
    return FeasibilityReport(rho_c, s_F, feasible, reason)


class PrelimInfeasibleError(InfeasibleError):
    """The preliminary route is infeasible; carries the feasibility report."""

    def __init__(self, report: FeasibilityReport):
        super().__init__(report.reason)
        self.report = report


# -- increment-magnitude bound for the preliminary route ------------------


def _coupling_blocks(plant: PlantModel, ctrl: ControllerModel):
    """A_cl and the noise-injection block [[BJ, B, BS], [G, 0, R]]."""
    A_cl = block_closed_loop(plant, ctrl)
    Bbar = block(
        [
            [plant.B @ ctrl.J, plant.B, plant.B @ ctrl.S],
            [ctrl.G, RationalMatrix.zeros(ctrl.n_x, plant.w), ctrl.R_ref],
        ]
    )
    return A_cl, Bbar


def stacked_error_bound(v: int, w: int, n_r: int, omega) -> float:
    """2-norm bound on the stacked quantization-error differences driving the
    one-step state-difference recursion: sqrt(v+w+n_r) (1/2 + 1/(2 omega))."""
    return math.sqrt(v + w + n_r) * (0.5 + 0.5 / float(as_fraction(omega)))


MIN_Q = 4  # the smallest plaintext modulus a plan or a q override may set
M_SERIES_RTOL = 1e-12
M_SERIES_MAX_TERMS = 20000


def compute_M(plant: PlantModel, ctrl: ControllerModel, omega,
              delta0_bound: float) -> float:
    """Uniform bound on the stacked one-step state differences delta(t).

    delta obeys delta(t+1) = (A_cl/omega) delta(t) + (Bbar/omega) e(t) with
    ||e(t)||_2 <= sqrt(v+w+n_r) (1/2 + 1/(2 omega)); the bound is the seeded
    transient supremum plus the geometric series of 2-norm power terms,
    truncated once terms fall below M_SERIES_RTOL of the partial sum.
    """
    omega = as_fraction(omega)
    A_cl, Bbar = _coupling_blocks(plant, ctrl)
    P = A_cl.to_floats() / float(omega)
    rho = spectral_radius(A_cl) / float(omega)
    if rho >= 1.0 - 1e-12:
        raise DivergentError(
            f"rho(A_cl/omega) = {rho:.6f} >= 1: one-step differences are unbounded"
        )
    Bw = Bbar.to_floats() / float(omega)
    e_max = stacked_error_bound(plant.v, plant.w, ctrl.n_r, omega)
    b2 = float(np.linalg.norm(Bw, 2)) if Bw.size else 0.0
    Pk = np.eye(P.shape[0])
    series = 0.0
    transient = 0.0
    for k in range(M_SERIES_MAX_TERMS):
        nk = float(np.linalg.norm(Pk, 2))
        transient = max(transient, nk * delta0_bound)
        term = nk * b2 * e_max
        series += term
        if k > 0 and term <= M_SERIES_RTOL * series:
            break
        Pk = Pk @ P
    else:
        raise DivergentError("series did not converge within the term budget")
    return transient + series


# -- preliminary plan ------------------------------------------------------


@dataclass(frozen=True)
class PrelimPlan:
    omega: Fraction
    s1: Fraction
    s2: Fraction
    l0: Fraction
    q: int
    M_bound: float
    window_bound: float  # sound per-step recovery window requirement
    u0_bound: float
    certificates: dict
    rho_c: float
    s_F: Fraction

    @property
    def q_log2(self) -> float:
        return math.log2(self.q)

    def to_json(self):
        return {
            "scheme": "prelim",
            "omega": fraction_to_str(self.omega),
            "s1": fraction_to_str(self.s1),
            "s2": fraction_to_str(self.s2),
            "l0": fraction_to_str(self.l0),
            "q": str(self.q),
            "q_log2": self.q_log2,
            "M_bound": self.M_bound,
            "window_bound": self.window_bound,
            "u0_bound": self.u0_bound,
            "rho_c": self.rho_c,
            "s_F": fraction_to_str(self.s_F),
            "certificates": _certificates_json(self.certificates),
        }


def _certificates_json(certs: dict) -> dict:
    return {name: {"scale": fraction_to_str(cert.scale), "shape": [cert.rows, cert.cols]}
            for name, cert in certs.items()}


def _common_scale(*mats: RationalMatrix) -> Fraction:
    """`max_integer_scale` of the matrices, or 1 when every entry is zero."""
    try:
        return max_integer_scale(*mats)
    except ZeroMatrixError:
        return Fraction(1)


def _largest_power_of_ten(ks, passes) -> Optional[Fraction]:
    """The largest 10^-k over k in ks that passes the check, or None."""
    return next((x for x in (Fraction(1, 10**k) for k in ks) if passes(x)), None)


def _largest_decimal_l0(vectors, floor=0) -> Fraction:
    """Largest 10^-k (0 <= k <= 24) of at least `floor` that divides the given
    exact vectors entrywise."""
    l0 = _largest_power_of_ten(range(25), lambda l0: l0 >= floor and all(
        (x / l0).denominator == 1 for vec in vectors for x in vec))
    if l0 is None:
        raise InfeasibleError("no decimal initial zoom l0 satisfies the exactness constraints")
    return l0


def _modulus_above(x: float) -> int:
    """Smallest power of two strictly exceeding x (for finite x >= 0), and at
    least MIN_Q."""
    return max(MIN_Q, 1 << math.floor(x).bit_length())


def plan_preliminary(plant: PlantModel, ctrl: ControllerModel, *,
                     reference_bound=0) -> PrelimPlan:
    """Select (omega, s1, s2, l0, q) for the direct conversion route."""
    report = check_prelim_feasible(plant, ctrl)
    if not report.feasible:
        raise PrelimInfeasibleError(report)
    omega = report.s_F  # largest admissible divisor of F in (rho_c, s_F]
    s2 = _common_scale(ctrl.H)
    s1 = _common_scale(ctrl.G.scale(1 / omega), ctrl.R_ref.scale(1 / omega),
                       ctrl.J.scale(1 / s2), ctrl.S.scale(1 / s2))

    certs = {}
    for name, mat, scale in [
        ("F/omega", ctrl.F, omega),
        ("G/(s1*omega)", ctrl.G, s1 * omega),
        ("R/(s1*omega)", ctrl.R_ref, s1 * omega),
        ("H/s2", ctrl.H, s2),
        ("J/(s1*s2)", ctrl.J, s1 * s2),
        ("S/(s1*s2)", ctrl.S, s1 * s2),
    ]:
        ok, cert = is_integer_after_scale(mat, scale, source=name)
        if not ok:
            raise InfeasibleError(f"{name} is not an integer matrix")
        certs[name] = cert

    # x0/(s1*l0) must be an integer vector
    x0_scaled = [x / s1 for x in ctrl.x0.data]
    l0 = _largest_decimal_l0([x0_scaled])

    # initial magnitudes (used to seed the difference bound and to cover the
    # zero-prior recovery at the first step)
    r_bound = as_fraction(reference_bound)
    nC = float(inf_norm(plant.C))
    ybar0 = nC * float(plant.x_p0_bound / l0)
    rbar0 = float(r_bound / l0)
    xbar0 = float(inf_norm(ctrl.x0) / l0)
    xpbar0 = float(plant.x_p0_bound / l0)
    nH, nJ, nS = (float(inf_norm(m)) for m in (ctrl.H, ctrl.J, ctrl.S))
    ubar0 = nH * xbar0 + nJ * (ybar0 + 0.5) + nS * (rbar0 + 0.5)
    u0_bound = ubar0 / float(s1 * s2)

    w = float(omega)
    nA = float(inf_norm(plant.A - RationalMatrix.identity(plant.n)))
    nB = float(inf_norm(plant.B))
    nF = float(inf_norm(ctrl.F - RationalMatrix.identity(ctrl.n_x)))
    nG, nR = float(inf_norm(ctrl.G)), float(inf_norm(ctrl.R_ref))
    dp1 = (nA * xpbar0 + nB * ubar0) / w
    dx1 = (nF * xbar0 + nG * (ybar0 + 0.5) + nR * (rbar0 + 0.5)) / w
    seed = math.sqrt(plant.n + ctrl.n_x) * max(dp1, dx1)

    M = compute_M(plant, ctrl, omega, seed)

    # per-step recovery window: [JC H] delta plus the quantization-error and
    # scaling cross terms the coarse bound glosses over
    JC_H = hstack(ctrl.J @ plant.C, ctrl.H)
    base = float(inf_norm(JC_H)) * M
    cross = (nJ + nS) * 0.5 * (1.0 + 1.0 / w)
    window = (base + cross) / float(s1 * s2)
    q = _modulus_above(2.0 * max(base, window, u0_bound))

    return PrelimPlan(
        omega=omega, s1=s1, s2=s2, l0=l0, q=q, M_bound=M,
        window_bound=window, u0_bound=u0_bound, certificates=certs,
        rho_c=report.rho_c, s_F=report.s_F,
    )


# -- deadbeat observer design ----------------------------------------------


@dataclass(frozen=True)
class DeadbeatDesign:
    L: RationalMatrix              # exact rational gain, rho(A - L C) = 0
    nilpotency_index: int          # smallest mu with (A - L C)^mu = 0
    rho_eig_float: float           # what a double-precision eigensolver reports


def observability_matrix(A: RationalMatrix, C: RationalMatrix) -> RationalMatrix:
    blocks = [C]
    for _ in range(A.rows - 1):
        blocks.append(blocks[-1] @ A)
    return vstack(*blocks)


def _nilpotency_index(N: RationalMatrix) -> Optional[int]:
    P = RationalMatrix.identity(N.rows)
    for k in range(1, N.rows + 1):
        P = P @ N
        if P.is_zero():
            return k
    return None


def design_deadbeat_observer(A: RationalMatrix, C: RationalMatrix) -> DeadbeatDesign:
    """Exact rational gain L with A - L C nilpotent of the least index, the
    largest observability index of (A, C), verified exactly.

    Luenberger's block-companion form of the dual pair (A^T, C^T).  The rows
    c_j A^k are taken in crate order (the power k outer, the output j inner);
    a chain ends at its first row that depends on those taken before, so
    chain j has length nu_j, the j-th observability index (0 for a dependent
    row of C).  Stacked chain by chain, the rows form an invertible O; q_j is
    the column of O^-1 at the last row of chain j.  In the coordinates
    T = [q_j^T (A^T)^k], k < nu_j, the feedback K_c = B_m^-1 A_m zeroes each
    chain's free row and leaves shift blocks of sizes nu_j.  Transposed,
    with P = [A^(nu_j - 1) q_j] and E selecting the outputs that have a
    chain:  L = (K_c T)^T = A P (E C P)^-1 E, which is 0 on the others.
    """
    n, v = A.rows, C.rows
    chains = [[] for _ in range(v)]
    taken = []
    live = list(range(v))
    while live:
        for j in list(live):
            row = chains[j][-1] @ A if chains[j] else RationalMatrix(1, n, C.row(j))
            if vstack(*taken, row).rank() > len(taken):
                taken.append(row)
                chains[j].append(row)
            else:
                live.remove(j)
    if len(taken) < n:
        raise NotObservableError("(A, C) is not observable")
    active = [j for j in range(v) if chains[j]]
    O_inv = vstack(*(row for j in active for row in chains[j])).inverse()
    P_cols, last = [], -1
    for j in active:
        last += len(chains[j])
        q = RationalMatrix(n, 1, [O_inv[(i, last)] for i in range(n)])
        P_cols.append(A.matpow(len(chains[j]) - 1) @ q)
    P = hstack(*P_cols)
    E = RationalMatrix(len(active), v, [Fraction(int(j == k)) for j in active
                                        for k in range(v)])
    L = A @ P @ (E @ C @ P).inverse() @ E
    N = A - L @ C
    index = _nilpotency_index(N)
    if index != max(len(chain) for chain in chains):
        raise PlannerError("deadbeat construction failed exact verification")
    return DeadbeatDesign(L=L, nilpotency_index=index, rho_eig_float=spectral_radius(N))


def deadbeat_companion(A: RationalMatrix, C: RationalMatrix,
                       L_published: RationalMatrix) -> Optional[DeadbeatDesign]:
    """The minimal-index design when `L_published` is a rounding of it, else
    None.  A rounding lies within half a unit of the published resolution:
    |L - L_published| <= 1/(2 lcm of L_published's denominators) entrywise."""
    design = design_deadbeat_observer(A, C)
    half_unit = Fraction(1, 2 * L_published.denominator_lcm())
    if all(abs(x) <= half_unit for x in (design.L - L_published).data):
        return design
    return None


# -- observer-error bound ---------------------------------------------------


@dataclass(frozen=True)
class CeResult:
    value: float
    tail_sound: bool       # True when the tail beyond the horizon provably vanishes
    truncation_index: int
    terms: tuple


def compute_Ce(A: RationalMatrix, C: RationalMatrix, L: RationalMatrix, omega,
               e0_bound: float, deadbeat_index: int) -> CeResult:
    """Upper bound on the scaled observer error driven by quantization noise.

    C_e = max(1/2, max_{k<mu} ||Abar^k|| e0 + sum_{k<mu} ||Abar^k Lbar||/2)
    with Abar = (A - L C)/omega, Lbar = L/omega and mu = deadbeat_index, a
    finite sum.  The tail is sound when (A - L C)^mu is exactly zero, so
    that everything discarded vanishes; for a gain that is only
    approximately nilpotent (e.g. a decimal rounding) tail_sound reports
    whether the tail contracts (rho(Abar) < 1) or vanishes in floats.
    """
    w = float(as_fraction(omega))
    N = A - L @ C
    Nf = N.to_floats() / w
    Lf = L.to_floats() / w
    terms, series, transient = [], 0.0, e0_bound
    Pk = np.eye(Nf.shape[0])
    for k in range(deadbeat_index):          # Pk = Abar^k
        if k:
            transient = max(transient, float(np.linalg.norm(Pk, np.inf)) * e0_bound)
        terms.append(0.5 * float(np.linalg.norm(Pk @ Lf, np.inf)))
        series += terms[-1]
        Pk = Pk @ Nf
    tail_sound = N.matpow(deadbeat_index).is_zero()
    if not tail_sound:
        tail_sound = spectral_radius(N) / w < 1.0 or float(np.linalg.norm(Pk @ Lf, np.inf)) == 0.0
    return CeResult(value=max(0.5, transient + series),
                    tail_sound=tail_sound,
                    truncation_index=deadbeat_index, terms=tuple(terms))


# -- modulus bound -----------------------------------------------------------


def q_bound_terms(L: RationalMatrix, C: RationalMatrix, R_ref: RationalMatrix,
                  S: RationalMatrix, s1, s2, omega, C_e: float) -> tuple:
    """The four modulus-bound terms: observer increment, state increment,
    output increment, and the sensor reconstruction window."""
    s1, s2, omega = as_fraction(s1), as_fraction(s2), as_fraction(omega)
    if min(s1, s2, omega) <= 0:
        raise ValueError("scales must be positive")
    w = float(omega)
    t1 = 2.0 * C_e * float(inf_norm(hstack(L @ C, L))) / w
    t2 = float(inf_norm(hstack(R_ref.scale(1 / omega), -R_ref))) / (w * w)
    t3 = float(inf_norm(hstack(S.scale(1 / omega), -S))) / (float(s2) * w)
    t4 = 2.0 * float(inf_norm(C.scale(1 / s1))) * C_e
    return t1, t2, t3, t4


def q_bound_main(L: RationalMatrix, C: RationalMatrix, R_ref: RationalMatrix,
                 S: RationalMatrix, s1, s2, omega, C_e: float) -> float:
    """Four-term maximum that the modulus must strictly exceed."""
    return max(q_bound_terms(L, C, R_ref, S, s1, s2, omega, C_e))


# -- main plan ----------------------------------------------------------------


@dataclass(frozen=True)
class MainPlanOptions:
    L: RationalMatrix                           # runtime gain (certified)
    L_exact: Optional[RationalMatrix] = None    # exact companion, for the spectral report
    reference: Optional[RationalMatrix] = None  # constant reference (n_r x 1)
    omega: Optional[Fraction] = None            # pinned zoom factor; chosen when None
    l0: Optional[Fraction] = None               # pinned initial zoom; chosen when None


@dataclass(frozen=True)
class MainPlan:
    L: RationalMatrix
    omega: Fraction
    s1: Fraction
    s2: Fraction
    l0: Fraction
    q: int
    q_bound: float
    C_e: float
    range_level: int
    certificates: dict
    rho_observer: float          # 0.0 when exact nilpotency is certified
    rho_observer_eig: float      # double-precision eigensolver report
    rho_observer_grid: Optional[float]  # spectral radius of the certified gain, if distinct
    deadbeat_index: int
    tail_sound: bool
    bootstrap_bound: float
    dims: dict

    @property
    def q_log2(self) -> float:
        return math.log2(self.q)

    def to_json(self, include_integer_matrices: bool = False):
        out = {
            "scheme": "main",
            "omega": fraction_to_str(self.omega),
            "s1": fraction_to_str(self.s1),
            "s2": fraction_to_str(self.s2),
            "l0": fraction_to_str(self.l0),
            "q": str(self.q),
            "q_log2": self.q_log2,
            "q_bound": self.q_bound,
            "q_bound_log2": math.log2(self.q_bound) if self.q_bound > 0 else None,
            "C_e": self.C_e,
            "range_level": str(self.range_level),
            "rho_observer": self.rho_observer,
            "rho_observer_eig": self.rho_observer_eig,
            "rho_observer_grid": self.rho_observer_grid,
            "deadbeat_index": self.deadbeat_index,
            "tail_sound": self.tail_sound,
            "bootstrap_bound": self.bootstrap_bound,
            "dims": dict(self.dims),
            "L": matrix_to_json(self.L),
            "certificates": _certificates_json(self.certificates),
        }
        if include_integer_matrices:
            out["integer_matrices"] = {name: cert.int_rows()
                                       for name, cert in self.certificates.items()}
        return out


def _main_integer_targets(plant, ctrl, L, s2):
    """The seven matrices that omega must integerize (1/omega handled via 1x1 [1])."""
    return {
        "A/omega": plant.A,
        "s2B/omega": plant.B.scale(s2),
        "L/omega": L,
        "F/omega": ctrl.F,
        "GC/omega": ctrl.G @ plant.C,
        "R/omega": ctrl.R_ref,
        "1/omega": RationalMatrix.from_rows([[1]]),
    }


def _find_omega(targets: dict) -> Fraction:
    """Largest 10^-k (1 <= k <= 12) that integerizes every target, else
    1/lcm of all their denominators and 2, which always does."""
    omega = _largest_power_of_ten(range(1, 13), lambda omega: all(
        is_integer_after_scale(m, omega)[0] for m in targets.values()))
    if omega is None:
        omega = Fraction(1, math.lcm(2, *(m.denominator_lcm() for m in targets.values())))
    return omega


def plan_main(plant: PlantModel, ctrl: ControllerModel, options: MainPlanOptions) -> MainPlan:
    """Select (omega, s1, s2, l0, q, range_level) for the observer gain
    `options.L`.

    A pinned omega or l0 replaces the planner's choice; everything downstream
    (certificates, C_e, q, bootstrap_bound, range_level) is derived from it
    as from a chosen one.  A pin that fails a check raises PinError."""
    n = plant.n
    _contractive_rho_c(plant, ctrl)
    if observability_matrix(plant.A, plant.C).rank() < n:
        raise NotObservableError("(A, C) is not observable")

    # observer report: the spectrum of the exact companion when given, else of
    # the runtime gain; the C_e sum runs to the runtime gain's nilpotency index,
    # or to n when it is not nilpotent (a grid-rounded gain)
    L = options.L
    L_best = options.L_exact if options.L_exact is not None else L
    rho_eig = spectral_radius(plant.A - L_best @ plant.C)
    rho_observer = 0.0 if _nilpotency_index(plant.A - L_best @ plant.C) else rho_eig
    rho_grid = spectral_radius(plant.A - L @ plant.C) if L != L_best else None
    deadbeat_index = _nilpotency_index(plant.A - L @ plant.C) or n

    # scales
    s1 = max_integer_scale(plant.C)
    JC = ctrl.J @ plant.C
    s2 = _common_scale(ctrl.H, JC, ctrl.S)

    targets = _main_integer_targets(plant, ctrl, L, s2)
    omega = options.omega
    if omega is None:
        omega = _find_omega(targets)
    elif not 0 < omega < 1:
        raise PinError(f"pinned omega = {fraction_to_str(omega)} does not lie in (0, 1)")

    certs = {}
    for name, mat, scale in [("C/s1", plant.C, s1), ("H/s2", ctrl.H, s2),
                             ("JC/s2", JC, s2), ("S/s2", ctrl.S, s2)]:
        ok, cert = is_integer_after_scale(mat, scale, source=name)
        if not ok:
            raise InfeasibleError(f"{name} failed integrality")
        certs[name] = cert
    for name, mat in targets.items():
        ok, cert = is_integer_after_scale(mat, omega, source=name)
        if not ok:
            # _find_omega checks these very targets, so only a pin fails here
            raise PinError(f"{name} fails integrality at the pinned omega = "
                           f"{fraction_to_str(omega)}")
        certs[name] = cert

    # initial zoom: exact division of x0 (and the reference when it is exact
    # decimal data), plus enough headroom that the scaled reference error
    # respects its 1/(2 omega) envelope from the first step
    ref = options.reference
    ref_norm = Fraction(0)
    if ref is not None:
        ref_norm = max((abs(x) for x in ref.data), default=Fraction(0))
    floor_l0 = 2 * as_fraction(omega) * ref_norm
    l0 = options.l0
    if l0 is not None:
        pinned = f"pinned l0 = {fraction_to_str(l0)}"
        if l0 <= 0:
            raise PinError(f"{pinned} is not positive")
        if l0 < floor_l0:
            raise PinError(f"{pinned} is below 2*omega*|r|_inf = {fraction_to_str(floor_l0)}")
        if any((x / l0).denominator != 1 for x in ctrl.x0.data):
            raise PinError(f"x0/l0 is not integral at the {pinned}")
    else:
        try:
            # prefer an l0 that also divides the reference exactly: the scaled
            # reference error then extinguishes after one step
            vectors = [ctrl.x0.data] + ([ref.data] if ref is not None else [])
            l0 = _largest_decimal_l0(vectors, floor_l0)
        except InfeasibleError:
            l0 = _largest_decimal_l0([ctrl.x0.data], floor_l0)

    # observer-error bound and the modulus
    e0 = float(plant.x_p0_bound / l0)
    ce = compute_Ce(plant.A, plant.C, L, omega, e0, deadbeat_index)

    bound = q_bound_main(L, plant.C, ctrl.R_ref, ctrl.S, s1, s2, omega, ce.value)

    # start-up magnitudes under the zero-memory convention: the first two
    # transmitted state increments carry x0/l0 and x0/(omega l0), and the first
    # reference-output increment carries the unshrunk initial reference error
    b1 = float(inf_norm(ctrl.x0) / l0)
    w = float(omega)
    g1 = float(inf_norm(ctrl.S.scale(1 / s2))) * (float(ref_norm / l0) + 0.5) / w
    bootstrap = max(b1, b1 / w, g1)

    q = _modulus_above(max(bound, 2.0 * bootstrap))

    # quantizer range: (2R+1)/2 must strictly exceed both saturation drivers
    sat = max(float(inf_norm(plant.C)) * ce.value, 1.0 / (2.0 * w))
    range_level = max(1, math.floor(sat - 0.5) + 1)

    return MainPlan(
        L=L, omega=omega, s1=s1, s2=s2, l0=l0, q=q, q_bound=bound,
        C_e=ce.value, range_level=range_level, certificates=certs,
        rho_observer=rho_observer, rho_observer_eig=rho_eig,
        rho_observer_grid=rho_grid, deadbeat_index=deadbeat_index,
        tail_sound=ce.tail_sound, bootstrap_bound=bootstrap,
        dims={"n": plant.n, "w": plant.w, "v": plant.v,
              "n_x": ctrl.n_x, "n_r": ctrl.n_r},
    )
