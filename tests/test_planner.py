import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from encloop import planner
from encloop.exactmat import (
    RationalMatrix,
    block_closed_loop,
    hstack,
    inf_norm,
    is_integer_after_scale,
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
    check_prelim_feasible,
    compute_Ce,
    compute_M,
    design_deadbeat_observer,
    plan_main,
    plan_preliminary,
    q_bound_main,
    stacked_error_bound,
)

from conftest import random_main_system


def rmat(rows):
    return RationalMatrix.from_rows(rows)


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



def test_stability_gates_read_one_spectral_radius(monkeypatch, batch, batch_companion,
                                                  tanks, tanks_plan):
    """Every float stability decision of the planners reads
    `spectral_radius`: with it reporting 2, both routes refuse the closed
    loop with one message, `compute_M` refuses a divergent series, and
    `compute_Ce` no longer calls a non-nilpotent gain's tail sound."""
    A, C, L = batch.plant.A, batch.plant.C, batch.L_published
    Ce = compute_Ce(A, C, L, Fraction(1, 10), 1.0, batch.plant.n)
    assert not (A - L @ C).matpow(batch.plant.n).is_zero() and Ce.tail_sound
    monkeypatch.setattr(planner, "spectral_radius", lambda m: 2.0)
    with pytest.raises(AssumptionViolatedError, match="^closed loop is not contractive"):
        check_prelim_feasible(tanks.plant, tanks.ctrl)
    with pytest.raises(AssumptionViolatedError, match="^closed loop is not contractive"):
        plan_main(batch.plant, batch.ctrl, MainPlanOptions(
            L=batch_companion.L, L_exact=batch_companion.L, reference=batch.reference))
    with pytest.raises(DivergentError):
        compute_M(tanks.plant, tanks.ctrl, tanks_plan.omega, 0.0)
    assert not compute_Ce(A, C, L, Fraction(1, 10), 1.0, batch.plant.n).tail_sound

class TestComputeM:
    def test_stacked_error_bound_formula(self):
        assert stacked_error_bound(1, 1, 1, Fraction(1, 2)) == pytest.approx(
            math.sqrt(3) * 1.5)

    def test_nilpotent_closed_form(self):
        # A_cl = [[0, 1/2], [0, 0]] nilpotent; series has exactly two terms
        plant = PlantModel(A=rmat([[0]]), B=rmat([[1]]), C=rmat([[1]]))
        ctrl = ControllerModel(
            F=rmat([[0]]), G=rmat([[0]]), R_ref=rmat([[0]]),
            H=rmat([["1/2"]]), J=rmat([[0]]), S=rmat([[0]]),
            x0=RationalMatrix.zeros(1, 1),
        )
        omega = Fraction(1, 2)
        # Bbar = [[0, 1, 0], [0, 0, 0]], ||Bbar/omega||_2 = 2
        # ||(A_cl/omega)^0||=1, ||(A_cl/omega)^1||=1, then zero
        expect = (1 + 1) * 2 * stacked_error_bound(1, 1, 1, omega)
        got = compute_M(plant, ctrl, omega, delta0_bound=0.0)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_divergent_raises(self, batch):
        with pytest.raises(DivergentError):
            compute_M(batch.plant, batch.ctrl, Fraction(1, 100), 0.0)

    def test_bound_dominates_worst_case_simulation(self, tanks, tanks_plan):
        # greedy sign-adversary drive of the difference recursion
        plant, ctrl = tanks.plant, tanks.ctrl
        omega = float(tanks_plan.omega)
        A_cl = block_closed_loop(plant, ctrl).to_floats() / omega
        Bbar = np.block([
            [plant.B.to_floats() @ ctrl.J.to_floats(), plant.B.to_floats(),
             plant.B.to_floats() @ ctrl.S.to_floats()],
            [ctrl.G.to_floats(), np.zeros((ctrl.n_x, plant.w)), ctrl.R_ref.to_floats()],
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
            delta = aligned if np.linalg.norm(aligned) >= np.linalg.norm(rnd) else rnd
            mx = max(mx, float(np.linalg.norm(delta)))
        assert mx <= tanks_plan.M_bound <= 5 * mx

    def test_q_exceeds_delta_oracle(self, tanks, tanks_plan):
        # brute-force drive for 10^4 steps: 2 ||[JC H]|| max||delta|| < q
        plant, ctrl = tanks.plant, tanks.ctrl
        omega = float(tanks_plan.omega)
        A_cl = block_closed_loop(plant, ctrl).to_floats() / omega
        Bbar = np.block([
            [plant.B.to_floats() @ ctrl.J.to_floats(), plant.B.to_floats(),
             plant.B.to_floats() @ ctrl.S.to_floats()],
            [ctrl.G.to_floats(), np.zeros((ctrl.n_x, plant.w)), ctrl.R_ref.to_floats()],
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
        assert design.rho_eig_float <= 1e-12

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
            assert N.matpow(3).is_zero()
            assert float(inf_norm(N.matpow(3))) <= 1e-4
            # a double-precision eigensolver on an exactly nilpotent matrix
            # reports eps^(1/index)-level noise, not 0
            assert design.rho_eig_float <= 1e-3

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
            assert N.matpow(n).is_zero()
            index = next(m for m in range(1, n + 1) if N.matpow(m).is_zero())
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
        assert (N @ N).is_zero()
        assert d.nilpotency_index == 2
        assert d.L.denominator_lcm() == 18400
        assert round_to_decimal_grid(d.L, 4) == batch.L_published
        assert d.rho_eig_float <= 1e-5  # what an eigensolver reports (paper: 9e-7)


class TestComputeCe:
    def test_exact_nilpotent_truncates_at_index(self, batch, batch_companion):
        res = compute_Ce(batch.plant.A, batch.plant.C, batch_companion.L,
                         Fraction(1, 460000), e0_bound=20.0, deadbeat_index=2)
        assert res.truncation_index == 2 and res.tail_sound
        assert len(res.terms) == 2

    def test_zero_observer(self):
        A = RationalMatrix.zeros(2, 2)
        C = RationalMatrix.identity(2)
        L = RationalMatrix.zeros(2, 2)
        res = compute_Ce(A, C, L, Fraction(1, 2), e0_bound=0.2, deadbeat_index=1)
        assert res.value == 0.5
        res2 = compute_Ce(A, C, L, Fraction(1, 2), e0_bound=7.0, deadbeat_index=1)
        assert res2.value == 7.0

    def test_batch_matches_published_scale(self, batch, published_plan):
        # ||C||_inf * C_e within a factor of 4 of 1.3594e13
        target = 1.3594e13
        got = float(inf_norm(batch.plant.C)) * published_plan.C_e
        assert target / 4 <= got <= target * 4

    def test_grid_gain_tail_flagged(self, batch):
        res = compute_Ce(batch.plant.A, batch.plant.C, batch.L_published,
                         Fraction(1, 10000), e0_bound=1.0, deadbeat_index=4)
        assert not res.tail_sound
        assert res.truncation_index == 4


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
            L = batch_companion.L.to_floats()
            Cf = batch.plant.C.to_floats()
            Rf = batch.ctrl.R_ref.to_floats()
            Sf = batch.ctrl.S.to_floats()
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
