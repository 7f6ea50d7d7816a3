import json
import math
import random
import time
from encloop import replace
from fractions import Fraction

import pytest

# numpy is the float reference here: without it the module is skipped
pytest.importorskip("numpy")

import numpy as np

from encloop import exactmat, planner
from encloop.exactmat import (
    DimensionMismatchError,
    RationalMatrix,
    block_closed_loop,
    hstack,
    inf_norm,
    is_integer_after_scale,
    spectral_radius,
    vstack,
)
from encloop.planner import (
    AssumptionViolatedError,
    ControllerModel,
    DivergentError,
    InfeasibleError,
    MainPlanOptions,
    NotObservableError,
    PinError,
    PlantModel,
    PrelimInfeasibleError,
    check_prelim_feasible,
    compute_Ce,
    compute_M,
    design_deadbeat_observer,
    plan_main,
    plan_preliminary,
    q_bound_main,
)

from conftest import random_main_system
from floatref import floats


def rmat(rows):
    return RationalMatrix.from_rows(rows)


def is_zero(m: RationalMatrix) -> bool:
    return m == RationalMatrix.zeros(m.rows, m.cols)


def round_to_decimal_grid(m: RationalMatrix, decimals: int) -> RationalMatrix:
    """Entrywise rounding to `decimals` places, half away from zero."""
    scale = 10**decimals
    vals = []
    for x in m.data:
        n2 = x.numerator * scale * 2
        d = x.denominator
        q_, r_ = divmod(abs(n2), 2 * d)
        rounded = q_ + (1 if r_ >= d else 0)
        vals.append(Fraction(rounded if n2 >= 0 else -rounded, scale))
    return RationalMatrix(m.rows, m.cols, vals)


def deadbeat_1d_fixture():
    """Scalar loop with closed-loop block [[ -1/2, 1/2 ], [ -1/2, 1/2 ]]:
    trace and determinant vanish, so rho_c = 0 while F = 1/2."""
    plant = PlantModel(A=rmat([["1/2"]]), B=rmat([[1]]), C=rmat([[1]]))
    ctrl = ControllerModel(
        F=rmat([["1/2"]]), G=rmat([["-1/2"]]), R_ref=rmat([[0]]),
        H=rmat([["1/2"]]), J=rmat([[-1]]), S=rmat([[0]]),
        x0=RationalMatrix.zeros(1, 1),
    )
    return plant, ctrl


@pytest.mark.parametrize("shapes,bound,error", [
    (((1, 1), (2, 1), (1, 1)), 0, DimensionMismatchError),  # B of another height
    (((1, 2), (1, 1), (1, 1)), 0, DimensionMismatchError),  # A not square
    (((1, 1), (1, 1), (1, 2)), 0, DimensionMismatchError),  # C of another width
    (((1, 1), (1, 1), (1, 1)), -1, ValueError),             # a negative x_p0 bound
], ids=["B-rows", "A-square", "C-cols", "x_p0_bound"])
def test_a_malformed_plant_is_refused(shapes, bound, error):
    A, B, C = (RationalMatrix.zeros(*shape) for shape in shapes)
    with pytest.raises(error):
        PlantModel(A=A, B=B, C=C, x_p0_bound=bound)


class TestFeasibility:
    def test_batch_reactor_infeasible(self, batch):
        rep = check_prelim_feasible(batch.plant, batch.ctrl)
        assert not rep.feasible
        assert rep.rho_c == pytest.approx(0.8655, abs=1e-3)
        assert rep.s_F == Fraction(1, 100)
        assert "s_F" in rep.reason

    def test_deadbeat_loop_feasible(self):
        plant, ctrl = deadbeat_1d_fixture()
        rep = check_prelim_feasible(plant, ctrl)
        assert rep.rho_c == pytest.approx(0.0, abs=1e-9)
        assert rep.s_F == Fraction(1, 2)
        assert rep.feasible

    def test_integer_F_with_slow_loop_feasible(self):
        # stable integer-F controller: s_F = 1 beats any contractive rho_c
        plant = PlantModel(A=rmat([["0.9"]]), B=rmat([[0]]), C=rmat([[1]]))
        ctrl = ControllerModel(
            F=rmat([[0, 1], [0, 0]]), G=RationalMatrix.zeros(2, 1),
            R_ref=RationalMatrix.zeros(2, 1), H=rmat([[0, 0]]),
            J=rmat([[0]]), S=rmat([[0]]),
            x0=RationalMatrix.zeros(2, 1),
        )
        rep = check_prelim_feasible(plant, ctrl)
        assert rep.feasible and rep.s_F == 1 and rep.rho_c == pytest.approx(0.9)

    def test_unstable_loop_raises(self):
        plant = PlantModel(A=rmat([[2]]), B=rmat([[0]]), C=rmat([[1]]))
        ctrl = ControllerModel(
            F=rmat([["1/2"]]), G=rmat([[0]]), R_ref=rmat([[0]]),
            H=rmat([[0]]), J=rmat([[0]]), S=rmat([[0]]),
            x0=RationalMatrix.zeros(1, 1),
        )
        with pytest.raises(AssumptionViolatedError):
            check_prelim_feasible(plant, ctrl)


def boundary_fixture(A):
    """A scalar plant A with B = 0, so that A is a mode of the closed loop,
    and a controller with nilpotent F (s_F = 1/2), G, H and J nonzero: the
    prelim route is feasible exactly when |A| < 1/2, and q then covers
    [J C, H] times M."""
    plant = PlantModel(A=rmat([[A]]), B=rmat([[0]]), C=rmat([[1]]), x_p0_bound=1)
    ctrl = ControllerModel(
        F=rmat([[0, "1/2"], [0, 0]]), G=rmat([["-0.1"], [0]]), R_ref=rmat([[0], [0]]),
        H=rmat([["0.1", 0]]), J=rmat([["-0.2"]]), S=rmat([[0]]),
        x0=RationalMatrix.zeros(2, 1),
    )
    return plant, ctrl


class TestTheBoundary:
    """The closed loop's radius within 10^-17 of s_F = 1/2, on each side,
    where its float radius reads 0.5 either way."""

    def test_just_below_s_F_plans(self):
        plant, ctrl = boundary_fixture("0.49999999999999999")
        rep = check_prelim_feasible(plant, ctrl)
        assert rep.feasible and rep.rho_c == 0.5
        plan = plan_preliminary(plant, ctrl)
        assert plan.q > planner.MIN_Q
        assert plan.q > 2 * float(inf_norm(hstack(ctrl.J @ plant.C, ctrl.H))) * plan.M_bound

    @pytest.mark.parametrize("A", ["0.5", "0.50000000000000001"])
    def test_at_or_above_s_F_is_infeasible(self, A):
        plant, ctrl = boundary_fixture(A)
        with pytest.raises(PrelimInfeasibleError, match="s_F = 1/2"):
            plan_preliminary(plant, ctrl)

    def test_a_jordan_block_at_s_F_is_refused(self):
        """A Jordan block at exactly s_F = 1/2 in the plant: the float radius
        of a repeated eigenvalue is good to about eps^(1/2) only."""
        _, ctrl = boundary_fixture("0")
        plant = PlantModel(A=rmat([["1/2", 1], [0, "1/2"]]), B=rmat([[0], [0]]),
                           C=rmat([[1, 0]]), x_p0_bound=1)
        assert not check_prelim_feasible(plant, ctrl).feasible
        with pytest.raises(PrelimInfeasibleError):
            plan_preliminary(plant, ctrl)


def test_stability_gates_read_one_exact_test(monkeypatch, batch, batch_companion,
                                             tanks, tanks_plan, sound_plan):
    """Every stability decision of the planners reads the exact
    `spectral_radius_below`, and the float `spectral_radius` only the
    reported radii: with the float radius reporting 2, both routes plan as
    before; with the exact test answering no, both routes refuse the closed
    loop with one message, `compute_M` refuses the difference recursion, and
    `compute_Ce` no longer calls a non-nilpotent gain's tail sound."""
    A, C, L = batch.plant.A, batch.plant.C, batch.L_published
    Ce = compute_Ce(A, C, L, Fraction(1, 10), 1.0, batch.plant.n)
    assert not is_zero((A - L @ C).matpow(batch.plant.n)) and Ce.tail_sound
    options = MainPlanOptions(L=batch_companion.L, L_exact=batch_companion.L,
                              reference=batch.reference)
    bound = max(abs(x) for x in tanks.reference.data)
    monkeypatch.setattr(planner, "spectral_radius", lambda m: 2.0)
    assert plan_preliminary(tanks.plant, tanks.ctrl, reference_bound=bound) == replace(
        tanks_plan, rho_c=2.0)
    assert plan_main(batch.plant, batch.ctrl, options) == replace(
        sound_plan, rho_observer=2.0, rho_observer_eig=2.0)
    monkeypatch.setattr(planner, "spectral_radius_below", lambda m, s: False)
    with pytest.raises(AssumptionViolatedError, match="^closed loop is not contractive"):
        check_prelim_feasible(tanks.plant, tanks.ctrl)
    with pytest.raises(AssumptionViolatedError, match="^closed loop is not contractive"):
        plan_main(batch.plant, batch.ctrl, options)
    with pytest.raises(DivergentError):
        compute_M(tanks.plant, tanks.ctrl, tanks_plan.omega, 0)
    assert not compute_Ce(A, C, L, Fraction(1, 10), 1.0, batch.plant.n).tail_sound


def test_a_prelim_plan_reads_one_closed_loop(monkeypatch, tanks, tanks_plan):
    """`plan_preliminary` builds the closed loop once, and its four readings
    of the spectrum (rho_c < 1, rho_c < s_F, the reported rho_c and
    rho(A_cl/omega) < 1 in `compute_M`) share one characteristic
    polynomial."""
    loops, polynomials = [], []
    closed_loop, faddeev_leverrier = planner.block_closed_loop, exactmat._faddeev_leverrier
    monkeypatch.setattr(planner, "block_closed_loop",
                        lambda *args: loops.append(args) or closed_loop(*args))
    monkeypatch.setattr(exactmat, "_faddeev_leverrier",
                        lambda N: polynomials.append(N) or faddeev_leverrier(N))
    bound = max(abs(x) for x in tanks.reference.data)
    assert plan_preliminary(tanks.plant, tanks.ctrl, reference_bound=bound) == tanks_plan
    assert (len(loops), len(polynomials)) == (1, 1)


@pytest.mark.parametrize("observer, gains", [("exact", 1), ("published", 2)])
def test_a_main_plan_walks_each_gain_once(monkeypatch, batch, batch_companion,
                                          sound_plan, published_plan, observer, gains):
    """`plan_main` forms A - L C once for each distinct gain, the runtime
    one and the exact companion: one when they are the same gain, two with
    the published gain.  It walks the powers of the runtime gain's alone,
    once; the companion's radius is read from its spectrum."""
    differences, walked = [], []
    sub, powers = RationalMatrix.__sub__, planner._powers
    monkeypatch.setattr(RationalMatrix, "__sub__",
                        lambda a, b: differences.append(b) or sub(a, b))
    monkeypatch.setattr(planner, "_powers", lambda N, last: walked.append(N) or powers(N, last))
    L = batch_companion.L if observer == "exact" else batch.L_published
    plan = plan_main(batch.plant, batch.ctrl, MainPlanOptions(
        L=L, L_exact=batch_companion.L, reference=batch.reference))
    assert plan == (sound_plan if observer == "exact" else published_plan)
    assert (len(differences), len(walked)) == (gains, 1)


def test_the_observer_radius_is_zero_exactly_for_a_nilpotent_gain():
    """The reported observer radius is the float spectral radius, which
    reads exactly 0.0 for a nilpotent A - L C and is nonzero otherwise, so
    `rho_observer` needs no walk of its own to say 0 for a deadbeat gain.
    On random systems with their deadbeat gains rounded to 1 decimal, many
    of them no longer nilpotent, both reported radii agree with the exact
    nilpotency test."""
    rng = random.Random(611)
    seen = {True: 0, False: 0}
    for _ in range(40):
        plant, ctrl, design, reference, _ = random_main_system(rng)
        L = RationalMatrix(design.L.rows, design.L.cols,
                           [Fraction(round(x * 10), 10) for x in design.L.data])
        plan = plan_main(plant, ctrl, MainPlanOptions(L=L, reference=reference))
        nilpotent = is_zero((plant.A - L @ plant.C).matpow(plant.n))
        assert plan.rho_observer == plan.rho_observer_eig
        assert (plan.rho_observer == 0.0) == nilpotent
        seen[nilpotent] += 1
    assert min(seen.values()) >= 8


class TestComputeM:
    @pytest.mark.parametrize("h,T", [("1/2", 1), ("1", 2)])
    def test_nilpotent_closed_form(self, h, T):
        """A_cl = [[0, h], [0, 0]] at omega = 1/2: P = A_cl/omega =
        [[0, 2h], [0, 0]] has norm 2h >= 1 and P^2 = 0, so k = 2 certifies,
        with T = max(||I||, ||P||) = max(1, 2h) and r = |B'| 1 + |P B'| 1 =
        (2, 0), where B' = Bbar/omega = [[0, 2, 0], [0, 0, 0]].  With
        eps = 1/2 + 1/(2 omega) = 3/2: M = T delta0 + eps max(r) / (1 - ||P^2||)
        = T delta0 + 3."""
        plant = PlantModel(A=rmat([[0]]), B=rmat([[1]]), C=rmat([[1]]))
        ctrl = ControllerModel(
            F=rmat([[0]]), G=rmat([[0]]), R_ref=rmat([[0]]),
            H=rmat([[h]]), J=rmat([[0]]), S=rmat([[0]]),
            x0=RationalMatrix.zeros(1, 1),
        )
        omega = Fraction(1, 2)
        assert compute_M(plant, ctrl, omega, delta0_bound=0) == 3
        assert compute_M(plant, ctrl, omega, delta0_bound=Fraction(5, 2)) == T * Fraction(5, 2) + 3

    def test_divergent_raises(self, batch):
        """rho(A_cl) = 0.8655 >= omega = 1/100: the exact test refuses it
        before any power is taken."""
        start = time.perf_counter()
        with pytest.raises(DivergentError, match="unbounded"):
            compute_M(batch.plant, batch.ctrl, Fraction(1, 100), 0)
        assert time.perf_counter() - start < 0.5

    def test_a_slow_contraction_certifies_at_the_first_power(self):
        """rho(A_cl) = ||A_cl||_inf = 0.9999 at omega = 1: k = 1 certifies,
        with T = 1, r = |Bbar| 1 = (1, 0) and eps = 1, so M = 1/(1 - 0.9999);
        no later power of a scalar mode does better."""
        plant = PlantModel(A=rmat([["0.9999"]]), B=rmat([[1]]), C=rmat([[1]]))
        zero = RationalMatrix.zeros(1, 1)
        ctrl = ControllerModel(F=zero, G=zero, R_ref=zero, H=zero, J=zero, S=zero, x0=zero)
        assert compute_M(plant, ctrl, 1, 0) == 10000

    def test_the_power_cap_refuses_a_strongly_non_normal_loop(self):
        """A Jordan block at 0.99 contracts (rho = 0.99 < omega = 1), but
        ||P^k||_inf = 0.99^k + k 0.99^(k-1) stays at 1 or above up to k = 644,
        beyond M_MAX_POWER: refused, and soon."""
        assert planner.M_MAX_POWER < 645
        plant = PlantModel(A=rmat([["0.99", 1], [0, "0.99"]]), B=rmat([[1], [0]]),
                           C=rmat([[1, 0]]))
        zero = RationalMatrix.zeros(1, 1)
        ctrl = ControllerModel(F=zero, G=zero, R_ref=zero, H=zero, J=zero, S=zero, x0=zero)
        start = time.perf_counter()
        with pytest.raises(DivergentError, match="infinity norm below 1"):
            compute_M(plant, ctrl, 1, 0)
        assert time.perf_counter() - start < 0.5

    def test_bound_dominates_worst_case_simulation(self, tanks, tanks_plan):
        # greedy sign-adversary drive of the difference recursion, measured in
        # the infinity norm that M bounds
        plant, ctrl = tanks.plant, tanks.ctrl
        omega = float(tanks_plan.omega)
        A_cl = floats(block_closed_loop(plant, ctrl)) / omega
        Bbar = np.block([
            [floats(plant.B) @ floats(ctrl.J), floats(plant.B),
             floats(plant.B) @ floats(ctrl.S)],
            [floats(ctrl.G), np.zeros((ctrl.n_x, plant.w)), floats(ctrl.R_ref)],
        ]) / omega
        emax = 0.5 + 0.5 / omega
        rng = np.random.default_rng(0)
        delta = np.zeros(A_cl.shape[0])
        mx = 0.0
        for _ in range(10**5):
            carried = A_cl @ delta
            signs = np.sign(Bbar.T @ carried)
            signs[signs == 0] = 1.0
            aligned = carried + Bbar @ (emax * signs)
            rnd = carried + Bbar @ (emax * rng.choice([-1.0, 1.0], Bbar.shape[1]))
            delta = aligned if np.max(np.abs(aligned)) >= np.max(np.abs(rnd)) else rnd
            mx = max(mx, float(np.max(np.abs(delta))))
        assert mx <= tanks_plan.M_bound <= 5 * mx

    def test_q_exceeds_delta_oracle(self, tanks, tanks_plan):
        # brute-force drive for 10^4 steps: 2 ||[JC H]|| max||delta|| < q
        plant, ctrl = tanks.plant, tanks.ctrl
        omega = float(tanks_plan.omega)
        A_cl = floats(block_closed_loop(plant, ctrl)) / omega
        Bbar = np.block([
            [floats(plant.B) @ floats(ctrl.J), floats(plant.B),
             floats(plant.B) @ floats(ctrl.S)],
            [floats(ctrl.G), np.zeros((ctrl.n_x, plant.w)), floats(ctrl.R_ref)],
        ]) / omega
        emax = 0.5 + 0.5 / omega
        rng = np.random.default_rng(1)
        delta = np.zeros(A_cl.shape[0])
        mx = 0.0
        for _ in range(10**4):
            delta = A_cl @ delta + Bbar @ (emax * rng.choice([-1.0, 1.0], Bbar.shape[1]))
            mx = max(mx, float(np.max(np.abs(delta))))
        jch = float(inf_norm(hstack(ctrl.J @ plant.C, ctrl.H)))
        assert 2 * jch * mx < tanks_plan.q


class TestPrelimPlan:
    def test_batch_reactor_rejected(self, batch):
        with pytest.raises(InfeasibleError):
            plan_preliminary(batch.plant, batch.ctrl)

    def test_coupled_tanks_plan(self, tanks, tanks_plan):
        plan = tanks_plan
        assert plan.omega == plan.s_F == Fraction(1, 2)
        assert plan.s2 == Fraction(1, 10)
        # all six certificates reproduce their sources exactly
        sources = {
            "F/omega": tanks.ctrl.F,
            "G/(s1*omega)": tanks.ctrl.G,
            "R/(s1*omega)": tanks.ctrl.R_ref,
            "H/s2": tanks.ctrl.H,
            "J/(s1*s2)": tanks.ctrl.J,
            "S/(s1*s2)": tanks.ctrl.S,
        }
        for name, mat in sources.items():
            assert plan.certificates[name].verify(mat), name
        # x0 scaling is exact
        for x in tanks.ctrl.x0.data:
            assert (x / (plan.s1 * plan.l0)).denominator == 1
        assert plan.q > 2 * float(inf_norm(hstack(tanks.ctrl.J @ tanks.plant.C,
                                                  tanks.ctrl.H))) * plan.M_bound
        assert plan.q & (plan.q - 1) == 0  # power of two

    def test_the_power_search_runs_to_one_half(self):
        """The scalar controller of the CLI run table: the bound at the
        first k with ||P^k||_inf < 1 gives q = 8192, as the 2-norm series
        did; the search on to the first ||P^k||_inf <= 1/2 gives q = 1024."""
        plant = PlantModel(A=rmat([["0.2"]]), B=rmat([[1]]), C=rmat([[1]]), x_p0_bound=1)
        ctrl = ControllerModel(
            F=rmat([["0.5"]]), G=rmat([["-0.1"]]), R_ref=rmat([[0]]),
            H=rmat([["0.1"]]), J=rmat([["-0.2"]]), S=rmat([[0]]),
            x0=RationalMatrix.zeros(1, 1),
        )
        assert plan_preliminary(plant, ctrl).q == 1024

    def test_scale_of_scaled_integer_matrix(self):
        # H = 0.05 * integer matrix => s2 = 1/20
        plant = PlantModel(A=rmat([["0.4"]]), B=rmat([[1]]), C=rmat([[1]]))
        ctrl = ControllerModel(
            F=rmat([["0", "1/2"], ["0", "0"]]),
            G=rmat([["0"], ["0"]]), R_ref=rmat([["0"], ["0"]]),
            H=rmat([["0.05", "0.15"]]), J=rmat([[0]]), S=rmat([[0]]),
            x0=RationalMatrix.zeros(2, 1),
        )
        plan = plan_preliminary(plant, ctrl)
        assert plan.s2 == Fraction(1, 20)


class TestDeadbeatObserver:
    def test_scalar(self):
        design = design_deadbeat_observer(rmat([[2]]), rmat([[1]]))
        assert design.L == rmat([[2]])
        assert design.nilpotency_index == 1
        assert spectral_radius(rmat([[2]]) - design.L @ rmat([[1]])) <= 1e-12

    def test_random_observable_3_state(self):
        rng = random.Random(17)
        for _ in range(10):
            A = RationalMatrix(3, 3, [Fraction(rng.randint(-20, 20), 10)
                                      for _ in range(9)])
            C = RationalMatrix.from_rows([[1, 0, 0], [0, rng.choice([1, -1]), 1]])
            from encloop.planner import observability_matrix
            if observability_matrix(A, C).rank() < 3:
                continue
            design = design_deadbeat_observer(A, C)
            N = A - design.L @ C
            # exact deadbeat: the certified radius is 0 and the cube vanishes
            assert is_zero(N.matpow(3))
            assert float(inf_norm(N.matpow(3))) <= 1e-4
            # the exact characteristic polynomial of a nilpotent matrix is
            # x^3, so the reported radius is exactly 0
            assert spectral_radius(N) == 0.0

    def test_index_is_the_largest_observability_index(self):
        """On seeded random observable pairs, a third or so with a row of C
        that depends on the others, the designed A - L C is exactly nilpotent
        and its index is the observability index of (A, C): the least k with
        rank [C; CA; ...; CA^(k-1)] = n."""
        rng = random.Random(2026)
        checked = dependent = 0
        while checked < 60:
            n, v = rng.randint(1, 5), rng.randint(1, 3)
            A = RationalMatrix(n, n, [Fraction(rng.randint(-20, 20), 10)
                                      for _ in range(n * n)])
            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(v)]
            if v > 1 and rng.random() < 0.4:
                rows[-1] = [a + b for a, b in zip(rows[0], rows[-2])]
            C = rmat(rows)
            O, k = C, 1
            while O.rank() < n and k < n:
                O, k = vstack(O, C @ A.matpow(k)), k + 1
            if O.rank() < n:
                continue
            design = design_deadbeat_observer(A, C)
            N = A - design.L @ C
            assert is_zero(N.matpow(n))
            index = next(m for m in range(1, n + 1) if is_zero(N.matpow(m)))
            assert index == design.nilpotency_index == k
            checked += 1
            dependent += C.rank() < v
        assert dependent >= 10

    def test_not_observable_raises(self):
        A = rmat([[1, 0], [0, 2]])
        C = rmat([[1, 0]])
        with pytest.raises(NotObservableError):
            design_deadbeat_observer(A, C)

    def test_batch_companion_recovery(self, batch, batch_companion):
        """The published 4-decimal gain is the rounding of an exact deadbeat
        gain with denominator 18400: the minimal-index design."""
        d = batch_companion
        N = batch.plant.A - d.L @ batch.plant.C
        assert is_zero(N @ N)
        assert d.nilpotency_index == 2
        assert d.L.denominator_lcm() == 18400
        assert round_to_decimal_grid(d.L, 4) == batch.L_published
        assert spectral_radius(N) == 0.0  # an eigensolver reports ~1e-8 (paper: 9e-7)


def Ce_sum(A, C, L, omega, e0, mu):
    """C_e's finite sum to mu, term by term on the RationalMatrix operations."""
    Abar, Lbar = (A - L @ C).scale(1 / omega), L.scale(1 / omega)
    transient = max(inf_norm(Abar.matpow(k)) * e0 for k in range(mu))
    series = sum(inf_norm(Abar.matpow(k) @ Lbar) / 2 for k in range(mu))
    return max(Fraction(1, 2), transient + series)


class TestComputeCe:
    def test_exact_nilpotent_truncates_at_index(self, batch, batch_companion):
        """(A - L C)^2 = 0: the sum has two terms, exactly, and a longer
        truncation adds nothing."""
        A, C, L, omega = batch.plant.A, batch.plant.C, batch_companion.L, Fraction(1, 460000)
        res = compute_Ce(A, C, L, omega, e0_bound=20, deadbeat_index=2)
        assert res.tail_sound
        assert res.value == Ce_sum(A, C, L, omega, 20, 2)
        assert compute_Ce(A, C, L, omega, 20, 4) == res

    def test_zero_observer(self):
        A = RationalMatrix.zeros(2, 2)
        C = RationalMatrix.identity(2)
        L = RationalMatrix.zeros(2, 2)
        res = compute_Ce(A, C, L, Fraction(1, 2), e0_bound=Fraction(1, 5), deadbeat_index=1)
        assert res.value == Fraction(1, 2)
        res2 = compute_Ce(A, C, L, Fraction(1, 2), e0_bound=7, deadbeat_index=1)
        assert res2.value == 7

    def test_batch_matches_published_scale(self, batch, published_plan):
        # ||C||_inf * C_e within a factor of 4 of 1.3594e13
        target = 1.3594e13
        got = float(inf_norm(batch.plant.C)) * published_plan.C_e
        assert target / 4 <= got <= target * 4

    def test_grid_gain_tail_flagged(self, batch):
        A, C, L, omega = batch.plant.A, batch.plant.C, batch.L_published, Fraction(1, 10000)
        res = compute_Ce(A, C, L, omega, e0_bound=1, deadbeat_index=4)
        assert not res.tail_sound
        assert res.value == Ce_sum(A, C, L, omega, 1, 4)


class TestQBound:
    def test_batch_within_published_window(self, published_plan):
        assert abs(math.log2(published_plan.q_bound) - 61.4955) <= 2.0

    def test_trivial_only_fourth_term(self):
        C = RationalMatrix.identity(2)
        Lz = RationalMatrix.zeros(2, 2)
        Rz = RationalMatrix.zeros(2, 1)
        Sz = RationalMatrix.zeros(1, 1)
        got = q_bound_main(Lz, C, Rz, Sz, 1, 1, Fraction(1, 2), C_e=0.5)
        assert got == pytest.approx(1.0)

    def test_terms_match_independent_recompute(self, batch, batch_companion):
        rng = random.Random(23)
        for _ in range(20):
            Ce = rng.uniform(0.5, 1e6)
            s1 = Fraction(1, rng.choice([1, 2, 5]))
            s2 = Fraction(1, rng.choice([10, 100]))
            w = Fraction(1, rng.choice([100, 460, 10000]))
            got = q_bound_main(batch_companion.L, batch.plant.C, batch.ctrl.R_ref,
                               batch.ctrl.S, s1, s2, w, Ce)
            L = floats(batch_companion.L)
            Cf = floats(batch.plant.C)
            Rf = floats(batch.ctrl.R_ref)
            Sf = floats(batch.ctrl.S)
            wf, s1f, s2f = float(w), float(s1), float(s2)
            t1 = 2 * Ce * np.linalg.norm(np.hstack([L @ Cf, L]), np.inf) / wf
            t2 = np.linalg.norm(np.hstack([Rf / wf, -Rf]), np.inf) / wf**2
            t3 = np.linalg.norm(np.hstack([Sf / wf, -Sf]), np.inf) / (s2f * wf)
            t4 = 2 * np.linalg.norm(Cf / s1f, np.inf) * Ce
            assert got == pytest.approx(max(t1, t2, t3, t4), rel=1e-9)

    def test_monotone_in_Ce(self, batch, batch_companion):
        args = (batch_companion.L, batch.plant.C, batch.ctrl.R_ref, batch.ctrl.S,
                1, Fraction(1, 100), Fraction(1, 460000))
        lo = q_bound_main(*args, C_e=1e3)
        hi = q_bound_main(*args, C_e=1e6)
        assert lo <= hi


class TestMainPlan:
    def test_batch_paper_parameters(self, batch, published_plan):
        plan = published_plan
        assert plan.s1 == 1
        assert plan.s2 == Fraction(1, 100)
        assert plan.omega == Fraction(1, 10000)
        assert plan.q == 2**62
        assert plan.rho_observer <= 1e-5
        assert len(plan.certificates) == 11
        JC = batch.ctrl.J @ batch.plant.C
        sources = {
            "C/s1": batch.plant.C, "H/s2": batch.ctrl.H, "JC/s2": JC,
            "S/s2": batch.ctrl.S, "A/omega": batch.plant.A,
            "s2B/omega": batch.plant.B.scale(plan.s2), "L/omega": plan.L,
            "F/omega": batch.ctrl.F, "GC/omega": batch.ctrl.G @ batch.plant.C,
            "R/omega": batch.ctrl.R_ref,
            "1/omega": RationalMatrix.from_rows([[1]]),
        }
        for name, mat in sources.items():
            assert plan.certificates[name].verify(mat), name

    def test_unobservable_plant_is_refused(self):
        """`plan_main` checks observability itself, whatever gain it is given
        (the CLI's deadbeat design refuses such a plant first)."""
        _, ctrl = deadbeat_1d_fixture()
        plant = PlantModel(A=rmat([["1/2", 0], [0, "1/3"]]), B=rmat([[1], [1]]),
                           C=rmat([[1, 0]]))
        with pytest.raises(NotObservableError):
            plan_main(plant, ctrl, MainPlanOptions(L=rmat([["1/2"], [0]])))

    def test_batch_exact_runtime_parameters(self, sound_plan):
        assert sound_plan.omega == Fraction(1, 460000)
        assert sound_plan.tail_sound
        assert sound_plan.deadbeat_index == 2
        assert sound_plan.q == 2**65
        assert (2 * sound_plan.range_level + 1) / 2 > max(
            3 * sound_plan.C_e, 230000)

    def test_all_integer_system_omega(self):
        # integer data: largest power of ten wins; omega = 1/2 is also admissible
        A = rmat([[0, 1], [0, 0]])
        B = rmat([[0], [1]])
        C = RationalMatrix.identity(2)
        ctrl = ControllerModel(
            F=rmat([[0]]), G=rmat([[0, 0]]), R_ref=rmat([[1]]),
            H=rmat([[0]]), J=rmat([[0, 0]]), S=rmat([[1]]),
            x0=RationalMatrix.zeros(1, 1),
        )
        plant = PlantModel(A=A, B=B, C=C, x_p0_bound=1)
        plan = plan_main(plant, ctrl, MainPlanOptions(L=A, L_exact=A))
        assert plan.omega == Fraction(1, 10)
        for name in ("A/omega", "s2B/omega", "L/omega", "F/omega",
                     "GC/omega", "R/omega", "1/omega"):
            src = plan.certificates[name]
            half = Fraction(1, 2)
            ok, _ = is_integer_after_scale(src.as_matrix().scale(plan.omega), half)
            assert ok  # omega = 1/2 would also certify (1/omega = 2 integer)

    def test_halving_omega_preserves_certificates(self, sound_plan, batch):
        half = sound_plan.omega / 2
        for name in ("A/omega", "s2B/omega", "L/omega", "F/omega",
                     "GC/omega", "R/omega", "1/omega"):
            cert = sound_plan.certificates[name]
            source = cert.as_matrix().scale(sound_plan.omega)
            ok, _ = is_integer_after_scale(source, half)
            assert ok, name

    def test_report_serialization_deterministic(self, published_plan):
        a = json.dumps(published_plan.to_json(), sort_keys=True)
        b = json.dumps(published_plan.to_json(), sort_keys=True)
        assert a == b

    def test_random_systems_plan_and_certify(self):
        rng = random.Random(99)
        for _ in range(5):
            plant, ctrl, design, reference, _ = random_main_system(rng)
            plan = plan_main(plant, ctrl, MainPlanOptions(
                L=design.L, L_exact=design.L, reference=reference))
            assert plan.tail_sound
            assert plan.rho_observer == 0.0
            assert plan.q & (plan.q - 1) == 0
            assert (1 / plan.omega).denominator == 1


class TestPins:
    def test_pinning_the_chosen_values_reproduces_the_plan(self, sound_plan, batch,
                                                           batch_companion):
        pinned = plan_main(batch.plant, batch.ctrl, MainPlanOptions(
            L=batch_companion.L, L_exact=batch_companion.L, reference=batch.reference,
            omega=sound_plan.omega, l0=sound_plan.l0))
        assert pinned == sound_plan

    def test_pinned_omega_must_integerize(self, batch, batch_companion):
        with pytest.raises(PinError, match="integrality"):
            plan_main(batch.plant, batch.ctrl, MainPlanOptions(
                L=batch_companion.L, omega=Fraction(1, 3)))

    @pytest.mark.parametrize("l0, check", [
        (Fraction(0), "not positive"),
        (Fraction(1, 2), "below"),          # floor 2 (1/10) 5 = 1
        (Fraction(3), "x0/l0"),
    ])
    def test_pinned_l0_checks(self, l0, check):
        A = rmat([[0, 1], [0, 0]])
        ctrl = ControllerModel(
            F=rmat([[0]]), G=rmat([[0, 0]]), R_ref=rmat([[1]]),
            H=rmat([[0]]), J=rmat([[0, 0]]), S=rmat([[1]]), x0=rmat([[2]]),
        )
        plant = PlantModel(A=A, B=rmat([[0], [1]]), C=RationalMatrix.identity(2))
        options = MainPlanOptions(L=A, L_exact=A, reference=rmat([[5]]), l0=l0)
        with pytest.raises(PinError, match=check):
            plan_main(plant, ctrl, options)
