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

Each scale is the largest integerizing one (`exactmat.max_integer_scale`, 1
for all-zero matrices), and each route certifies its scaled matrices in one
step (`_certify`); each zoom (omega, l0) is the largest power of ten that
passes its checks.  A plan's JSON report is its fields (`_Plan.to_json`).
Every decision is exact: integrality and nilpotency in rational
arithmetic, and each stability gate (rho_c < 1, rho_c < s_F, rho(A_cl/omega)
< 1, and the contraction of a non-nilpotent observer tail) by the Schur-Cohn
test on an exact characteristic polynomial
(`exactmat.spectral_radius_below`).  The bounds are exact too, from integer
powers: `compute_M` of A_cl/omega, and `compute_Ce` of A - L C (`_powers`).
q is the least power of two above Fractions, and a plan reports each bound
rounded to a float.  Float spectral radii (`exactmat.spectral_radius`) feed
only the reported fields and error messages.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .exactmat import (
    DimensionMismatchError,
    IntegralityCertificate,
    RationalMatrix,
    as_fraction,
    block,
    block_closed_loop,
    fraction_to_str,
    hstack,
    identity_rows,
    inf_norm,
    inf_norm_rows,
    integer_rows,
    is_integer_after_scale,
    matrix_to_json,
    matmul_rows,
    max_integer_scale,
    spectral_radius,
    spectral_radius_below,
    vstack,
)
from .records import Record, fields


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


class PlantModel(Record, frozen=True):
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


class ControllerModel(Record, frozen=True):
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
            or self.x0.cols not in (min(1, n_x), 1)  # no state: 0x0 or 0x1
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


class FeasibilityReport(Record, frozen=True):
    rho_c: float
    s_F: Fraction
    feasible: bool
    reason: str


def _require_contractive(A_cl: RationalMatrix) -> None:
    """Both routes assume the pre-given closed loop A_cl contracts:
    rho_c < 1, decided exactly."""
    if not spectral_radius_below(A_cl, 1):
        raise AssumptionViolatedError(
            f"closed loop is not contractive: rho_c = {spectral_radius(A_cl):.6f} >= 1"
        )


def check_prelim_feasible(plant: PlantModel, ctrl: ControllerModel) -> FeasibilityReport:
    return _feasibility(block_closed_loop(plant, ctrl), ctrl.F)


def _feasibility(A_cl: RationalMatrix, F: RationalMatrix) -> FeasibilityReport:
    """The prelim route's feasibility for the closed loop A_cl and the
    controller's F.  Its three readings of A_cl's spectrum share A_cl's one
    characteristic polynomial."""
    _require_contractive(A_cl)
    s_F = max_integer_scale(F)  # the controller's own granularity
    feasible = spectral_radius_below(A_cl, s_F)
    rho_c = spectral_radius(A_cl)
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


def _noise_block(plant: PlantModel, ctrl: ControllerModel) -> RationalMatrix:
    """The noise-injection block [[BJ, B, BS], [G, 0, R]]."""
    return block(
        [
            [plant.B @ ctrl.J, plant.B, plant.B @ ctrl.S],
            [ctrl.G, RationalMatrix.zeros(ctrl.n_x, plant.w), ctrl.R_ref],
        ]
    )


MIN_Q = 4  # the smallest plaintext modulus a plan or a q override may set
M_MAX_POWER = 500  # compute_M tries the powers of A_cl/omega up to this one


def compute_M(plant: PlantModel, ctrl: ControllerModel, omega, delta0_bound) -> Fraction:
    """`_certified_M` of the plant and controller's closed loop A_cl and
    noise-injection block Bbar."""
    return _certified_M(block_closed_loop(plant, ctrl), _noise_block(plant, ctrl),
                        omega, delta0_bound)


def _certified_M(A_cl: RationalMatrix, Bbar: RationalMatrix, omega, delta0_bound) -> Fraction:
    """Certified bound on ||delta(t)||_inf, the stacked one-step state
    differences.

    delta(t+1) = P delta(t) + Bbar' e(t), with P = A_cl/omega,
    Bbar' = Bbar/omega, |e_i(t)| <= eps = 1/2 + 1/(2 omega) and
    ||delta(0)||_inf <= delta0_bound.  For any k with ||P^k||_inf < 1, cutting
    t into blocks of k steps bounds ||delta(t)||_inf by
    T delta0_bound + eps max(r) / (1 - ||P^k||_inf), where T = max_{j<k}
    ||P^j||_inf and r = sum_{j<k} |P^j Bbar'| 1, row by row.  M is the least
    of these over k up to the first ||P^k||_inf <= 1/2, or M_MAX_POWER, all
    in integers and Fractions.  Refused with DivergentError when rho(P) < 1
    fails (decided exactly) or no power up to M_MAX_POWER has a norm below 1.
    """
    omega = as_fraction(omega)
    if not spectral_radius_below(A_cl, omega):
        raise DivergentError(
            f"rho(A_cl/omega) = {spectral_radius(A_cl) / omega:.6f} >= 1: "
            "one-step differences are unbounded"
        )
    N, d = integer_rows(A_cl.scale(1 / omega))  # P = N/d
    W, e = integer_rows(Bbar.scale(1 / omega))  # Bbar' = W/e
    eps = Fraction(1, 2) + 1 / (2 * omega)
    delta0 = as_fraction(delta0_bound)
    Pk, dk = identity_rows(len(N)), 1  # P^(k-1) = Pk/dk at the top of the loop
    T, R, best = Fraction(0), [0] * len(N), None
    for _ in range(M_MAX_POWER):
        T = max(T, Fraction(inf_norm_rows(Pk), dk))
        R = [x * d + sum(map(abs, row)) for x, row in zip(R, matmul_rows(Pk, W))]  # r = R/(dk e)
        Pk, dk = matmul_rows(Pk, N), dk * d
        norm = inf_norm_rows(Pk)  # ||P^k||_inf = norm/dk
        if norm < dk:
            M = T * delta0 + eps * max(R, default=0) * d / (e * (dk - norm))
            best = M if best is None else min(best, M)
            if 2 * norm <= dk:
                break
    if best is None:
        raise DivergentError(
            f"no power of A_cl/omega up to the {M_MAX_POWER}th has an infinity norm below 1"
        )
    return best


# -- preliminary plan ------------------------------------------------------


class _Plan(Record):
    """What both plans share: the JSON report, under each plan class's `scheme`."""

    def to_json(self, include_integer_matrices: bool = False) -> dict:
        """Every field of the plan, with the scheme and log2 q: Fractions as
        "p/q", `q` and `range_level` as decimal strings (q may exceed a JSON
        number's exact range), matrices row by row, each certificate as its
        scale and shape, and each certificate's integer matrix when asked."""
        out = {"scheme": self.scheme, "q_log2": math.log2(self.q)}
        for name in fields(self):
            value = getattr(self, name)
            out[name] = str(value) if name in ("q", "range_level") else _json_value(value)
        if include_integer_matrices:
            out["integer_matrices"] = {name: cert.int_rows()
                                       for name, cert in self.certificates.items()}
        return out


def _json_value(value):
    if isinstance(value, Fraction):
        return fraction_to_str(value)
    if isinstance(value, RationalMatrix):
        return matrix_to_json(value)
    if isinstance(value, IntegralityCertificate):
        return {"scale": fraction_to_str(value.scale), "shape": [value.rows, value.cols]}
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    return value


class PrelimPlan(_Plan, frozen=True):
    scheme = "prelim"  # a class attribute, not a field: it has no annotation
    omega: Fraction
    s1: Fraction
    s2: Fraction
    l0: Fraction
    q: int
    M_bound: float       # compute_M's certified bound on ||delta(t)||_inf, rounded to a float
    window_bound: float  # sound per-step recovery window requirement
    u0_bound: float
    certificates: dict
    rho_c: float
    s_F: Fraction


def _certify(triples) -> dict:
    """The integrality certificate of each (name, matrix, scale), by name,
    or None where the scale does not integerize the matrix.  A scale that
    `max_integer_scale` chose of the very matrices it scales always does."""
    return {name: is_integer_after_scale(mat, scale)[1] for name, mat, scale in triples}


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


def _modulus_above(x) -> int:
    """Smallest power of two strictly exceeding the exact x >= 0 (an int or
    a Fraction), and at least MIN_Q."""
    return max(MIN_Q, 1 << math.floor(x).bit_length())


def plan_preliminary(plant: PlantModel, ctrl: ControllerModel, *,
                     reference_bound=0) -> PrelimPlan:
    """Select (omega, s1, s2, l0, q) for the direct conversion route.  The
    feasibility check (`check_prelim_feasible`) and the bound M
    (`compute_M`) read one closed loop A_cl, so its spectrum's four readings
    share one characteristic polynomial."""
    A_cl = block_closed_loop(plant, ctrl)
    report = _feasibility(A_cl, ctrl.F)
    if not report.feasible:
        raise PrelimInfeasibleError(report)
    omega = report.s_F  # largest admissible divisor of F in (rho_c, s_F]
    s2 = max_integer_scale(ctrl.H)
    s1 = max_integer_scale(ctrl.G.scale(1 / omega), ctrl.R_ref.scale(1 / omega),
                           ctrl.J.scale(1 / s2), ctrl.S.scale(1 / s2))
    certs = _certify([
        ("F/omega", ctrl.F, omega),
        ("G/(s1*omega)", ctrl.G, s1 * omega),
        ("R/(s1*omega)", ctrl.R_ref, s1 * omega),
        ("H/s2", ctrl.H, s2),
        ("J/(s1*s2)", ctrl.J, s1 * s2),
        ("S/(s1*s2)", ctrl.S, s1 * s2),
    ])

    # x0/(s1*l0) must be an integer vector
    x0_scaled = [x / s1 for x in ctrl.x0.data]
    l0 = _largest_decimal_l0([x0_scaled])

    # initial magnitudes (used to seed the difference bound and to cover the
    # zero-prior recovery at the first step), exact
    half = Fraction(1, 2)
    xpbar0 = plant.x_p0_bound / l0
    ybar0 = inf_norm(plant.C) * xpbar0
    rbar0 = as_fraction(reference_bound) / l0
    xbar0 = inf_norm(ctrl.x0) / l0
    nH, nJ, nS = (inf_norm(m) for m in (ctrl.H, ctrl.J, ctrl.S))
    ubar0 = nH * xbar0 + nJ * (ybar0 + half) + nS * (rbar0 + half)
    u0_bound = ubar0 / (s1 * s2)

    nA = inf_norm(plant.A - RationalMatrix.identity(plant.n))
    nF = inf_norm(ctrl.F - RationalMatrix.identity(ctrl.n_x))
    dp1 = (nA * xpbar0 + inf_norm(plant.B) * ubar0) / omega
    dx1 = (nF * xbar0 + inf_norm(ctrl.G) * (ybar0 + half)
           + inf_norm(ctrl.R_ref) * (rbar0 + half)) / omega

    M = _certified_M(A_cl, _noise_block(plant, ctrl), omega, max(dp1, dx1))

    # per-step recovery window: [JC H] delta plus the quantization-error and
    # scaling cross terms the coarse bound glosses over
    base = inf_norm(hstack(ctrl.J @ plant.C, ctrl.H)) * M
    cross = (nJ + nS) * half * (1 + 1 / omega)
    window = (base + cross) / (s1 * s2)
    q = _modulus_above(2 * max(base, window, u0_bound))

    return PrelimPlan(
        omega=omega, s1=s1, s2=s2, l0=l0, q=q, M_bound=float(M),
        window_bound=float(window), u0_bound=float(u0_bound), certificates=certs,
        rho_c=report.rho_c, s_F=report.s_F,
    )


# -- deadbeat observer design ----------------------------------------------


class DeadbeatDesign(Record, frozen=True):
    L: RationalMatrix              # exact rational gain, rho(A - L C) = 0
    nilpotency_index: int          # smallest mu with (A - L C)^mu = 0


def observability_matrix(A: RationalMatrix, C: RationalMatrix) -> RationalMatrix:
    blocks = [C]
    for _ in range(A.rows - 1):
        blocks.append(blocks[-1] @ A)
    return vstack(*blocks)


def _powers(N: RationalMatrix, last: int) -> list:
    """The nonzero powers among N^0, ..., N^last as (rows, d^k), N^k = rows/d^k
    for N = rows/d, from one integer walk that a zero power ends (every later
    one vanishes): with last = N.rows, N is nilpotent exactly when at most
    N.rows powers are nonzero, and its index is their count."""
    rows, d = integer_rows(N)
    walk, Pk, dk = [], identity_rows(N.rows), 1
    while any(map(any, Pk)):
        walk.append((Pk, dk))
        if len(walk) > last:
            break
        Pk, dk = matmul_rows(Pk, rows), dk * d
    return walk


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
    index = len(_powers(A - L @ C, n))  # n + 1 when A - L C is not nilpotent
    if index != max(len(chain) for chain in chains):
        raise PlannerError("deadbeat construction failed exact verification")
    return DeadbeatDesign(L=L, nilpotency_index=index)


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


class CeResult(Record, frozen=True):
    value: Fraction
    tail_sound: bool       # True when the tail beyond the horizon provably vanishes


def compute_Ce(A: RationalMatrix, C: RationalMatrix, L: RationalMatrix, omega,
               e0_bound, deadbeat_index: int) -> CeResult:
    """Upper bound on the scaled observer error driven by quantization noise.

    C_e = max(1/2, max_{k<mu} ||Abar^k|| e0 + sum_{k<mu} ||Abar^k Lbar||/2)
    with Abar = (A - L C)/omega, Lbar = L/omega and mu = deadbeat_index, a
    finite sum, exact in integers and Fractions.  The tail is sound when
    (A - L C)^mu L is exactly zero (as for an exactly nilpotent gain), so
    that every discarded term vanishes; for a gain that is only
    approximately nilpotent (e.g. a decimal rounding) tail_sound reports
    whether the tail contracts (rho(Abar) < 1, decided exactly).
    """
    N = A - L @ C
    return _observer_bound(N, _powers(N, deadbeat_index), L, omega, e0_bound, deadbeat_index)


def _observer_bound(N: RationalMatrix, powers: list, L: RationalMatrix, omega,
                    e0_bound, mu: int) -> CeResult:
    """`compute_Ce` of N = A - L C from its nonzero powers to N^mu (`_powers`)."""
    omega, e0 = as_fraction(omega), as_fraction(e0_bound)
    Ln, dL = integer_rows(L)
    transient, series = e0, Fraction(0)
    for k, (Pk, dk) in enumerate(powers[:mu]):  # Abar^k = Pk/(dk omega^k)
        transient = max(transient, Fraction(inf_norm_rows(Pk), dk) * e0 / omega ** k)
        series += Fraction(inf_norm_rows(matmul_rows(Pk, Ln)), 2 * dk * dL) / omega ** (k + 1)
    tail_sound = (len(powers) <= mu or not any(map(any, matmul_rows(powers[mu][0], Ln)))
                  or spectral_radius_below(N, omega))
    return CeResult(value=max(Fraction(1, 2), transient + series), tail_sound=tail_sound)


# -- modulus bound -----------------------------------------------------------


def q_bound_terms(L: RationalMatrix, C: RationalMatrix, R_ref: RationalMatrix,
                  S: RationalMatrix, s1, s2, omega, C_e) -> tuple:
    """The four modulus-bound terms, as Fractions: observer increment, state
    increment, output increment, and the sensor reconstruction window."""
    s1, s2, omega, C_e = (as_fraction(x) for x in (s1, s2, omega, C_e))
    if min(s1, s2, omega) <= 0:
        raise ValueError("scales must be positive")
    t1 = 2 * C_e * inf_norm(hstack(L @ C, L)) / omega
    t2 = inf_norm(hstack(R_ref.scale(1 / omega), -R_ref)) / omega ** 2
    t3 = inf_norm(hstack(S.scale(1 / omega), -S)) / (s2 * omega)
    t4 = 2 * inf_norm(C.scale(1 / s1)) * C_e
    return t1, t2, t3, t4


def q_bound_main(L: RationalMatrix, C: RationalMatrix, R_ref: RationalMatrix,
                 S: RationalMatrix, s1, s2, omega, C_e) -> Fraction:
    """Four-term maximum that the modulus must strictly exceed."""
    return max(q_bound_terms(L, C, R_ref, S, s1, s2, omega, C_e))


# -- main plan ----------------------------------------------------------------


class MainPlanOptions(Record, frozen=True):
    L: RationalMatrix                           # runtime gain (certified)
    L_exact: Optional[RationalMatrix] = None    # exact companion, for the spectral report
    reference: Optional[RationalMatrix] = None  # constant reference (n_r x 1)
    omega: Optional[Fraction] = None            # pinned zoom factor; chosen when None
    l0: Optional[Fraction] = None               # pinned initial zoom; chosen when None


class MainPlan(_Plan, frozen=True):
    scheme = "main"
    L: RationalMatrix
    omega: Fraction
    s1: Fraction
    s2: Fraction
    l0: Fraction
    q: int
    q_bound: float               # q_bound_main's exact bound, rounded to a float
    C_e: float                   # compute_Ce's exact bound, rounded to a float
    range_level: int
    certificates: dict
    rho_observer: float          # rho_observer_eig, kept as its own JSON field
    rho_observer_eig: float      # spectral_radius: the float roots of the exact
                                 # characteristic polynomial, 0.0 for a nilpotent gain
    rho_observer_grid: Optional[float]  # spectral radius of the certified gain, if distinct
    deadbeat_index: int
    tail_sound: bool
    bootstrap_bound: float       # exact, rounded to a float
    dims: dict

    def to_json(self, include_integer_matrices: bool = False) -> dict:
        out = super().to_json(include_integer_matrices)
        out["q_bound_log2"] = math.log2(self.q_bound) if self.q_bound > 0 else None
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
    _require_contractive(block_closed_loop(plant, ctrl))
    if observability_matrix(plant.A, plant.C).rank() < n:
        raise NotObservableError("(A, C) is not observable")

    # observer report: the spectrum of the exact companion when given, else of
    # the runtime gain; the C_e sum runs to the runtime gain's nilpotency index,
    # or to n when it is not nilpotent (a grid-rounded gain), from one walk
    L = options.L
    L_best = options.L_exact if options.L_exact is not None else L
    N = plant.A - L @ plant.C
    powers = _powers(N, n)
    N_best = N if L == L_best else plant.A - L_best @ plant.C
    rho_eig = spectral_radius(N_best)  # exactly 0.0 for a nilpotent gain
    rho_grid = spectral_radius(N) if L != L_best else None
    deadbeat_index = min(len(powers), n)

    # scales
    s1 = max_integer_scale(plant.C)
    JC = ctrl.J @ plant.C
    s2 = max_integer_scale(ctrl.H, JC, ctrl.S)

    targets = _main_integer_targets(plant, ctrl, L, s2)
    omega = options.omega
    if omega is None:
        omega = _find_omega(targets)
    elif not 0 < omega < 1:
        raise PinError(f"pinned omega = {fraction_to_str(omega)} does not lie in (0, 1)")

    certs = _certify([("C/s1", plant.C, s1), ("H/s2", ctrl.H, s2), ("JC/s2", JC, s2),
                      ("S/s2", ctrl.S, s2), *((k, mat, omega) for k, mat in targets.items())])
    # _find_omega checks these very targets, so only a pin fails here
    failed = next((name for name in targets if certs[name] is None), None)
    if failed is not None:
        raise PinError(f"{failed} fails integrality at the pinned omega = "
                       f"{fraction_to_str(omega)}")

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

    # observer-error bound and the modulus, exact
    ce = _observer_bound(N, powers, L, omega, plant.x_p0_bound / l0, deadbeat_index)
    bound = q_bound_main(L, plant.C, ctrl.R_ref, ctrl.S, s1, s2, omega, ce.value)

    # start-up magnitudes under the zero-memory convention: the first two
    # transmitted state increments carry x0/l0 and x0/(omega l0), and the first
    # reference-output increment carries the unshrunk initial reference error
    b1 = inf_norm(ctrl.x0) / l0
    g1 = inf_norm(ctrl.S.scale(1 / s2)) * (ref_norm / l0 + Fraction(1, 2)) / omega
    bootstrap = max(b1, b1 / omega, g1)

    q = _modulus_above(max(bound, 2 * bootstrap))

    # quantizer range: (2R+1)/2 must strictly exceed both saturation drivers
    sat = max(inf_norm(plant.C) * ce.value, 1 / (2 * omega))
    range_level = max(1, math.floor(sat - Fraction(1, 2)) + 1)

    return MainPlan(
        L=L, omega=omega, s1=s1, s2=s2, l0=l0, q=q, q_bound=float(bound),
        C_e=float(ce.value), range_level=range_level, certificates=certs,
        rho_observer=rho_eig, rho_observer_eig=rho_eig,
        rho_observer_grid=rho_grid, deadbeat_index=deadbeat_index,
        tail_sound=ce.tail_sound, bootstrap_bound=float(bootstrap),
        dims={"n": plant.n, "w": plant.w, "v": plant.v,
              "n_x": ctrl.n_x, "n_r": ctrl.n_r},
    )
