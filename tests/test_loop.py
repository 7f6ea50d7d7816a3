import copy
import gc
import hashlib
import json
import math
import random
import weakref
from encloop import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

# numpy is the float reference here: without it the module is skipped
pytest.importorskip("numpy")

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from encloop import cli, he, kernel, loop
from encloop.exactmat import RationalMatrix
from encloop.fixtures import Scenario
from encloop.loop import (
    CSV_COLUMNS_SUFFIX,
    MAIN_CERTIFICATES,
    IdealLoop,
    MainEncController,
    MainIntegerRecurrence,
    MainIntegerShadow,
    MainRecurrence,
    PlantSim,
    PrelimEncController,
    PrelimIntegerShadow,
    PrelimRecurrence,
    RunConfig,
    centered_mod_recover,
    lattice_params,
    noise_peak,
    noise_table,
    run_closed_loop_main,
    run_closed_loop_prelim,
    _diff_inf,
    _ratio_float,
    _scaled_integer_state,
)
from encloop.planner import (ControllerModel, MainPlan, MainPlanOptions, PlantModel,
                             design_deadbeat_observer, plan_main, plan_preliminary)

from conftest import random_main_system, random_prelim_system, recorded
from floatref import SevenProductLoop
from rings import CipherRing, FormRing, IntRing, function


def rmat(rows):
    return RationalMatrix.from_rows(rows)


def _vectors(result) -> tuple:
    """What a recurrence method returns, as a tuple of vectors."""
    return result if isinstance(result, tuple) else (result,)


def main_cfg(sc, plan, horizon, *, backend="mock", seed=0, q=None):
    q = q if q is not None else plan.q
    if backend == "mock":
        params = he.SchemeParams.mock(q)
    else:
        params = lattice_params(plan, horizon)
    return RunConfig(plant=sc.plant, ctrl=sc.ctrl, reference=sc.reference,
                     x_p0=sc.x_p0, horizon=horizon, params=params, seed=seed)


def route(request, scheme):
    """(scenario, plan, runner): the batch reactor on the main route, or the
    coupled tanks on the prelim route."""
    if scheme == "main":
        return (request.getfixturevalue("batch"),
                request.getfixturevalue("sound_plan"), run_closed_loop_main)
    return (request.getfixturevalue("tanks"),
            request.getfixturevalue("tanks_plan"), run_closed_loop_prelim)


@pytest.fixture(scope="module")
def scalar_main():
    """(scenario, main plan) of two scalar plants x <- x/5 + u, y = c x, under
    the controller F = 1/2, G = -1/20, H = 1/10, J = -1/5 with the exact
    deadbeat observer: c = 2, where G s1/omega = -1/2 is not integral, so
    `rebuild` keeps GC/omega and JC/s2 on xo; and c = 1/2, where s1 = 1/2
    and C has a denominator."""
    out = []
    for c in (Fraction(2), Fraction(1, 2)):
        plant = PlantModel(rmat([[Fraction(1, 5)]]), rmat([[1]]), rmat([[c]]),
                           x_p0_bound=Fraction(1))
        ctrl = ControllerModel(rmat([[Fraction(1, 2)]]), rmat([[Fraction(-1, 20)]]),
                               rmat([[0]]), rmat([[Fraction(1, 10)]]),
                               rmat([[Fraction(-1, 5)]]), rmat([[0]]),
                               RationalMatrix.column([0]))
        reference = RationalMatrix.column([0])
        L = design_deadbeat_observer(plant.A, plant.C).L
        plan = plan_main(plant, ctrl, MainPlanOptions(L=L, L_exact=L, reference=reference))
        out.append((Scenario(f"scalar-c={c}", plant, ctrl, reference, (Fraction(1),)), plan))
    return out


class TestCenteredRecover:
    def test_window_identity(self):
        assert centered_mod_recover([7], 0, 10) == [-3]

    def test_examples(self):
        # value within q/2 of the prior is recovered exactly
        x, prior, q = 123456789, 123456000, 10**6
        assert centered_mod_recover([x % q], prior, q) == [x]

    def test_rational_prior(self):
        q = 100
        x = -249
        assert centered_mod_recover([x % q], Fraction(-499, 2), q) == [x]

    def test_a_modulus_below_two_is_refused(self):
        with pytest.raises(ValueError, match="modulus must be >= 2"):
            centered_mod_recover([0], 0, 1)

    def test_a_list_of_priors_has_one_per_residue(self):
        assert centered_mod_recover([1, 2, 3], [0, 0, 0], 8) == [1, 2, 3]
        for prior in ([0], [0, 0, 0, 0]):
            with pytest.raises(ValueError, match=f"^{len(prior)} priors for 3 residues$"):
                centered_mod_recover([1, 2, 3], prior, 8)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=-10**30, max_value=10**30),
           st.integers(min_value=-10**12, max_value=10**12),
           st.integers(min_value=2, max_value=10**20))
    def test_recovers_inside_window(self, prior, offset, q):
        offset = offset % q - q // 2  # pull offset inside [-q/2, q/2)
        x = prior + offset
        assert centered_mod_recover([x % q], prior, q) == [x]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=-10**30, max_value=10**30),
           st.integers(min_value=1, max_value=10**12),
           st.integers(min_value=2, max_value=10**20),
           st.integers(min_value=0, max_value=10**20))
    @example(1, 2, 2, 0)
    @example(-499, 2, 100, 51)
    @example(5, 1, 10, 0)
    def test_integer_prior_over_den(self, n, den, q, v):
        """An integer prior over `den` lifts like the Fraction prior n/den,
        and both follow x = v - floor((v - prior + q/2)/q) q."""
        v %= q
        got = centered_mod_recover([v], [n], q, den)
        assert got == centered_mod_recover([v], [Fraction(n, den)], q)
        prior = Fraction(n, den)
        assert got == [v - math.floor((v - prior + Fraction(q, 2)) / q) * q]

    def test_documented_failure_mode(self):
        q = 10
        x, prior = 17, 0  # |x - prior| >= q/2: off by a multiple of q
        got = centered_mod_recover([x % q], prior, q)[0]
        assert got != x and (got - x) % q == 0

    @pytest.mark.parametrize("q", [2, 3, 10, 11, 2**65, 2**65 + 1])
    @pytest.mark.parametrize("prior, den", [(0, 1), (Fraction(-7, 2), 3)])
    def test_scalar_prior_is_one_prior_per_entry(self, q, prior, den):
        """One prior for every entry (the main actuator lifts around 0) lifts
        as a list of it, at the edges of the window [p - q/2, p + q/2) too."""
        v = [x % q for x in (0, 1, q // 2 - 1, q // 2, q // 2 + 1, q - 1)]
        got = centered_mod_recover(v, prior, q, den)
        assert got == centered_mod_recover(v, [prior] * len(v), q, den)
        p = Fraction(prior) / den
        assert all(p - Fraction(q, 2) <= x < p + Fraction(q, 2) for x in got)


class TestMainLoop:
    def test_zero_scenario_all_zero(self, batch, batch_companion):
        zero_ref = RationalMatrix.zeros(4, 1)
        plan = plan_main(batch.plant, batch.ctrl,
                         MainPlanOptions(L=batch_companion.L,
                                         L_exact=batch_companion.L,
                                         reference=zero_ref))
        from encloop.fixtures import Scenario
        sc = Scenario("zero", batch.plant, batch.ctrl, zero_ref,
                      tuple(Fraction(0) for _ in range(4)))
        tr = run_closed_loop_main(plan, main_cfg(sc, plan, 20))
        assert all(r.u_a == (0.0,) and r.u_true == (0.0,) for r in tr.records)
        assert tr.recovery_failures == 0 and tr.saturation_count == 0

    def test_the_actuator_rebuilds_the_papers_states(self, monkeypatch, batch, sound_plan):
        """At every step of a run, the states the actuator rebuilds from the
        lifted increments, xo, xe and u_tilde, are those of the paper's
        recurrence (`PaperRecurrence`) on the run's quantized inputs."""
        rebuilt = []

        class Recording(loop.MainActuator):
            def step(self, *cts):
                out = super().step(*cts)
                rebuilt.append((self.states.xo, self.states.xe, self.ut))
                return out

        monkeypatch.setattr(loop, "MainActuator", Recording)
        tr, rec = recorded(run_closed_loop_main, sound_plan, main_cfg(batch, sound_plan, 30))
        assert tr.recovery_failures == 0 and len(rebuilt) == 30
        for t, paper in enumerate(_paper_run(sound_plan, batch, rec.rows)):
            assert rebuilt[t] == (paper.xo, paper.xe, paper.u)
        assert any(paper.u)

    def test_batch_sound_run_exact(self, batch, sound_plan):
        tr, rec = recorded(run_closed_loop_main, sound_plan, main_cfg(batch, sound_plan, 50))
        assert tr.recovery_failures == 0
        assert tr.saturation_count == 0
        assert tr.oracle_mismatches == 0
        # restored inputs equal the converted controller's outputs exactly:
        # those of the paper's recurrence on the run's quantized inputs
        for det, paper in zip(rec.rows, _paper_run(sound_plan, batch, rec.rows)):
            assert det["u_a_exact"] == [sound_plan.s2 * det["l"] * x for x in paper.u]

    def test_fault_injection_small_modulus(self, batch, sound_plan):
        """At q = 2^41, far below the planned modulus, the lifts fail from
        t = 2 on: every step from there is a recovery failure, 198 of 200,
        on both backends, which agree step by step."""
        bad = replace(sound_plan, q=2**41)
        flags = []
        for backend in ("mock", "lattice"):
            tr = run_closed_loop_main(bad, main_cfg(batch, bad, 200, backend=backend, seed=7))
            flags.append([r.recovery_failure for r in tr.records])
            assert tr.recovery_failures == 198 and tr.oracle_mismatches == 0
        assert flags[0] == flags[1] == [t >= 2 for t in range(200)]

    @pytest.mark.parametrize("name,change", [("A", Fraction(1, 10)), ("A", Fraction(1, 10**7)),
                                             ("B", Fraction(1, 10)), ("C", Fraction(1, 10))])
    def test_a_plant_other_than_the_plans_is_refused(self, monkeypatch, batch, sound_plan,
                                                     name, change):
        """The plant's error coordinates hold only for the plan's plant: a
        run whose plant has one entry of A, B or C changed, so that A/omega,
        s2 B/omega or C/s1 differ from the plan's integer rows or are not
        integral (A changed by 1/10^7), raises `ValueError` before step 0."""
        M = getattr(batch.plant, name)
        other = replace(batch.plant, **{name: RationalMatrix(
            M.rows, M.cols, [M.data[0] + change, *M.data[1:]])})
        steps = []
        monkeypatch.setattr(PlantSim, "step", lambda plant, U: steps.append(U))
        cfg = replace(main_cfg(batch, sound_plan, 5), plant=other)
        with pytest.raises(ValueError, match="not the plan's"):
            run_closed_loop_main(sound_plan, cfg)
        assert steps == []
        run_closed_loop_main(sound_plan, main_cfg(batch, sound_plan, 5))
        assert len(steps) == 5

    def test_a_failed_lift_fails_every_later_step(self, monkeypatch, batch, sound_plan):
        """One lift off by 1 at t = 3, with the actuator's output and every
        other lift exact: steps 3 to the end fail recovery, and the oracle
        finds that one lift's residues wrong."""
        steps = iter(range(10))

        class OneBadLift(loop.MainActuator):
            def step(self, *cts):
                (alpha, beta, gamma), ut = super().step(*cts)
                if next(steps) == 3:
                    alpha = [alpha[0] + 1, *alpha[1:]]
                return (alpha, beta, gamma), ut

        monkeypatch.setattr(loop, "MainActuator", OneBadLift)
        tr = run_closed_loop_main(sound_plan, main_cfg(batch, sound_plan, 10))
        assert [r.recovery_failure for r in tr.records] == [t >= 3 for t in range(10)]
        assert tr.oracle_mismatches == 1

    def test_backend_equivalence(self, batch, sound_plan):
        tr_m = run_closed_loop_main(sound_plan, main_cfg(batch, sound_plan, 25))
        tr_l = run_closed_loop_main(sound_plan,
                                    main_cfg(batch, sound_plan, 25,
                                             backend="lattice", seed=5))
        assert tr_l.recovery_failures == 0 and tr_l.oracle_mismatches == 0
        assert [r.u_a for r in tr_m.records] == [r.u_a for r in tr_l.records]

    def test_zero_reference_stabilizes_plant(self, batch, batch_companion):
        zero_ref = RationalMatrix.zeros(4, 1)
        plan = plan_main(batch.plant, batch.ctrl,
                         MainPlanOptions(L=batch_companion.L,
                                         L_exact=batch_companion.L,
                                         reference=zero_ref))
        from encloop.fixtures import Scenario
        sc = Scenario("reg", batch.plant, batch.ctrl, zero_ref, batch.x_p0)
        tr, rec = recorded(run_closed_loop_main, plan, main_cfg(sc, plan, 150))
        assert tr.recovery_failures == 0
        assert max(abs(x) for x in rec.final_plant_state) < 1e-3
        assert tr.records[-1].diff_inf < 1e-6

    def test_scaled_reference_error_envelope(self, batch, batch_companion):
        # non-decimal reference: the scaled error never exceeds 1/(2 omega)
        ref = RationalMatrix.column([Fraction(1, 3), Fraction(2, 7),
                                     Fraction(1, 9), Fraction(5, 11)])
        plan = plan_main(batch.plant, batch.ctrl,
                         MainPlanOptions(L=batch_companion.L,
                                         L_exact=batch_companion.L,
                                         reference=ref))
        from encloop.fixtures import Scenario
        sc = Scenario("frac-ref", batch.plant, batch.ctrl, ref, batch.x_p0)
        tr, rec = recorded(run_closed_loop_main, plan, main_cfg(sc, plan, 40))
        assert tr.recovery_failures == 0 and tr.saturation_count == 0
        bound = Fraction(1, 2 * plan.omega)
        for det in rec.rows[1:]:
            l = det["l"]
            for r_i, re_i in zip(ref.data, det["re_scaled"]):
                e_r = r_i / l - re_i
                assert abs(e_r) <= bound

    def test_step_identities_on_batch(self, batch, sound_plan):
        """Transmitted increments equal their closed forms: alpha from the
        quantized innovation, beta/gamma from scaled reference errors."""
        tr, rec = recorded(run_closed_loop_main, sound_plan, main_cfg(batch, sound_plan, 30))
        assert tr.recovery_failures == 0
        certs = sound_plan.certificates
        L_int = [list(certs["L/omega"].scaled_entries[i * 2:(i + 1) * 2])
                 for i in range(4)]
        R_int = [list(certs["R/omega"].scaled_entries[i * 4:(i + 1) * 4])
                 for i in range(4)]
        S_int = [list(certs["S/s2"].scaled_entries[0:4])]
        inv_w = 1 / sound_plan.omega
        ref = list(batch.reference.data)
        det = rec.rows
        for t in range(1, 30):
            alpha = det[t]["alpha"]
            want = [sum(m * x for m, x in zip(row, det[t - 1]["innovation"]))
                    for row in L_int]
            assert alpha == want
            # scaled reference errors at t-1, t-2
            def e_r(k):
                l = det[k]["l"]
                return [r / l - re for r, re in zip(ref, det[k]["re_scaled"])]
            if t >= 2:
                # R_int is R/omega as integers: beta = R/w^2 e(t-2) - R/w e(t-1)
                em2, em1 = e_r(t - 2), e_r(t - 1)
                beta = det[t]["beta"]
                want_b = [inv_w * sum(Fraction(m) * e for m, e in zip(row, em2))
                          - sum(Fraction(m) * e for m, e in zip(row, em1))
                          for row in R_int]
                assert [Fraction(b) for b in beta] == want_b
                em1t, emt = e_r(t - 1), e_r(t)
                gamma = det[t]["gamma"]
                want_g = [inv_w * sum(Fraction(m) * e for m, e in zip(row, em1t))
                          - sum(Fraction(m) * e for m, e in zip(row, emt))
                          for row in S_int]
                assert [Fraction(g) for g in gamma] == want_g


class PaperRecurrence:
    """The paper's converted observer controller as one step, op by op on
    `rings.IntRing`, over the certified integer matrices and the integer
    1/omega, from xo = 0, xe = x_e0 and re = 0:

        xo <- A xo + B u + L innovation
        xe <- F xe + G xo + R re
        re <- (re + ref_increment) / omega
        u   = H xe + J xo + S re

    `loop` never runs these updates as one step: its emission rule keeps
    only the next step's beta, and the reconstruction rebuilds xo, xe and u
    from the increments.  This is the reference that the rebuilt states
    must equal."""

    def __init__(self, plan, x_e0):
        self.m = SimpleNamespace(**{k: plan.certificates[name].int_rows()
                                    for k, name in MAIN_CERTIFICATES.items()})
        self.inv_omega = plan.certificates["1/omega"].scaled_entries[0]
        d = plan.dims
        self.xo, self.xe, self.re = [0] * d["n"], list(x_e0), [0] * d["n_r"]
        self.u = self._output()

    def _output(self):
        mv, m = IntRing.matvec, self.m
        return IntRing.add(mv(m.H, self.xe), mv(m.J, self.xo), mv(m.S, self.re))

    def step(self, innovation, ref_increment):
        mv, add, m = IntRing.matvec, IntRing.add, self.m
        xo = add(mv(m.A, self.xo), mv(m.B, self.u), mv(m.L, innovation))
        self.xe = add(mv(m.F, self.xe), mv(m.G, self.xo), mv(m.R, self.re))
        self.re = [self.inv_omega * x for x in add(self.re, ref_increment)]
        self.xo = xo
        self.u = self._output()


def _paper_run(plan, sc, rows):
    """`PaperRecurrence` from the scenario's initial state, as it stands at
    each step of a main run, advanced on the run's quantized innovations
    and reference increments (the recorded `rows`)."""
    paper = PaperRecurrence(plan, _scaled_integer_state(sc.ctrl.x0.data, plan.l0))
    for t in range(len(rows)):
        if t:
            paper.step(rows[t - 1]["innovation"], rows[t - 1]["ref_increment"])
        yield paper


NON_DECIMAL_X_P0 = (Fraction(1, 3), Fraction(-2, 7), Fraction(5, 11), Fraction(-13, 9))


class TestMainIncrements:
    """What the main controller emits, on runs whose quantization errors
    persist (non-decimal x_p0), so that its increments are nonzero."""

    @pytest.fixture(scope="class")
    def non_decimal(self, batch, batch_companion):
        """A non-decimal x_p0 and a non-decimal reference: alpha, beta and
        gamma are all nonzero at every step from t = 3 on."""
        ref = RationalMatrix.column([Fraction(1, 3), Fraction(2, 7),
                                     Fraction(1, 9), Fraction(5, 11)])
        plan = plan_main(batch.plant, batch.ctrl, MainPlanOptions(
            L=batch_companion.L, L_exact=batch_companion.L, reference=ref))
        return Scenario("non-decimal", batch.plant, batch.ctrl, ref, NON_DECIMAL_X_P0), plan

    @pytest.fixture(scope="class")
    def tanks_main(self, tanks, tanks_main_plan):
        """The coupled tanks on the main route (exact design): x_e0 = (5, -5)
        scaled, so step 0's beta is nonzero."""
        return tanks, tanks_main_plan

    def test_emitted_increments_are_the_definition_form(self, non_decimal, tanks_main):
        """alpha, beta and gamma equal the definition form of `MainRecurrence`
        at every step, computed from consecutive states that the integer
        shadow, replayed on the run's quantized inputs, rebuilds from its
        increments, which are those of the paper's recurrence
        (`PaperRecurrence`) on the same inputs; mock and lattice runs agree.
        On the batch reactor with non-decimal inputs all three are nonzero
        from t = 3 on; on the coupled tanks step 0's beta is x_e0."""
        det = self._check_definition_form(*non_decimal)
        assert all(any(d["alpha"]) and any(d["beta"]) and any(d["gamma"]) for d in det[3:])
        det = self._check_definition_form(*tanks_main)
        assert det[0]["beta"] == [5, -5]

    @staticmethod
    def _check_definition_form(sc, plan, H=20):
        details = []
        for backend in ("mock", "lattice"):
            tr, rec = recorded(run_closed_loop_main, plan,
                               main_cfg(sc, plan, H, backend=backend))
            assert tr.recovery_failures == 0 and tr.oracle_mismatches == 0
            details.append(rec.rows)
        assert details[0] == details[1]
        det = details[0]

        d = plan.dims
        states = [([0] * d["n"], [0] * d["n_x"], [0] * d["w"])] * 2  # t = -2, -1
        x_e0 = _scaled_integer_state(sc.ctrl.x0.data, plan.l0)
        shadow, paper = MainIntegerShadow(plan), PaperRecurrence(plan, x_e0)
        rebuilt = MainIntegerRecurrence(plan)
        rebuilt.rebuild(*shadow.bootstrap(x_e0))
        for t in range(H):
            if t:
                inputs = det[t - 1]["innovation"], det[t - 1]["ref_increment"]
                rebuilt.rebuild(*shadow.step(*inputs))
                paper.step(*inputs)
            assert (rebuilt.xo, rebuilt.xe, rebuilt.u) == (paper.xo, paper.xe, paper.u)
            states.append((rebuilt.xo, rebuilt.xe, rebuilt.u))

        m = {k: plan.certificates[name].int_rows() for k, name in MAIN_CERTIFICATES.items()}
        inv_omega = plan.certificates["1/omega"].scaled_entries[0]
        mv = IntRing.matvec

        def less(v, *products):
            return [x - sum(p) for x, *p in zip(v, *products)]

        def brackets(k):  # of step k - 2, from the states of steps k - 3 and k - 2
            (xo_m1, xe_m1, _), (xo, xe, u) = states[k - 1], states[k]
            return (less(xe, mv(m["F"], xe_m1), mv(m["G"], xo_m1)),
                    less(u, mv(m["H"], xe), mv(m["J"], xo)))

        for t in range(H):
            (xo_m1, _, u_m1), (xo, _, _) = states[t + 1], states[t + 2]
            (bx, bu), (bx_m1, bu_m1) = brackets(t + 2), brackets(t + 1)
            assert det[t]["alpha"] == less(xo, mv(m["A"], xo_m1), mv(m["B"], u_m1))
            assert det[t]["beta"] == less(bx, [inv_omega * x for x in bx_m1])
            assert det[t]["gamma"] == less(bu, [inv_omega * x for x in bu_m1])
        return det

    def test_ops_per_step(self, batch, sound_plan, monkeypatch):
        """A controller step is one compiled kernel: no `he.plain_matmul` or
        `he.add`, and on lattice at most one slot reduction per state and
        emitted entry (13 on the batch reactor: the state beta, and the
        three increments).  The integer shadow's step records 4 matvecs, and
        the reconstruction's `rebuild` of its increments 9, the observer
        output (C/s1) xo included."""
        counts = {"plain_matmul": 0, "add": 0, "reduce": 0}

        def counting(name, op):
            def wrapped(*args):
                counts[name] += 1
                return op(*args)
            return wrapped

        def counting_reduction(params, slot_reduction=he.slot_reduction):
            reduce, limit = slot_reduction(params)
            return counting("reduce", reduce), limit

        for name in ("plain_matmul", "add"):
            monkeypatch.setattr(he, name, counting(name, getattr(he, name)))
        monkeypatch.setattr(he, "slot_reduction", counting_reduction)
        q, d = sound_plan.q, sound_plan.dims
        entries = d["n"] + 2 * d["n_x"] + d["w"]
        assert entries == 13
        x_e0 = _scaled_integer_state(batch.ctrl.x0.data, sound_plan.l0)
        params = lattice_params(sound_plan, 4)
        ring = loop.CipherRing(he.keygen(params, seed=0)[0], q, random.Random(0))
        controller = MainEncController(ring, sound_plan)
        controller.bootstrap(x_e0)
        assert counts["plain_matmul"] == counts["add"] == 0
        for _ in range(3):
            counts.update(plain_matmul=0, add=0, reduce=0)
            controller.step(ring.fresh([1] * d["v"]), ring.fresh([1] * d["n_r"]))
            assert counts["plain_matmul"] == counts["add"] == 0
            assert 0 < counts["reduce"] <= entries
        # a whole lattice run, bootstraps included, makes no staged op either
        tr = run_closed_loop_main(sound_plan, main_cfg(batch, sound_plan, 4, backend="lattice"))
        assert tr.recovery_failures == 0
        assert counts["plain_matmul"] == counts["add"] == 0

        matvecs, record = [], kernel.Source.matvec

        def counting_matvec(source, M, v):
            matvecs.append(M)
            return record(source, M, v)

        monkeypatch.setattr(kernel.Source, "matvec", counting_matvec)
        kernel._kernels.clear()  # so that the shadow records its kernels anew
        shadow, rebuilt = MainIntegerShadow(sound_plan), MainIntegerRecurrence(sound_plan)
        shadow.bootstrap(x_e0)
        matvecs.clear()
        increments = shadow.step([1] * d["v"], [1] * d["n_r"])
        assert len(matvecs) == 4
        matvecs.clear()
        rebuilt.rebuild(*increments)
        assert len(matvecs) == 9

    def test_the_emission_rule_keeps_no_growing_state(self, batch, sound_plan):
        """Over 600 steps of the integer shadow on random inputs, innovations
        within 2^20 and reference increments within 1, no state entry passes
        64 bits: the rule keeps only the next step's beta, while a reference
        estimate would grow by log2(1/omega) bits a step."""
        d, rng = sound_plan.dims, random.Random(600)
        shadow = MainIntegerShadow(sound_plan)
        shadow.bootstrap(_scaled_integer_state(batch.ctrl.x0.data, sound_plan.l0))
        widest = 0
        for _ in range(600):
            shadow.step([rng.randint(-2**20, 2**20) for _ in range(d["v"])],
                        [rng.randint(-1, 1) for _ in range(d["n_r"])])
            widest = max(widest, *(abs(x).bit_length() for k in shadow.state
                                   for x in getattr(shadow, k)))
        assert 0 < widest <= 64

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=10**6),
                    min_size=4, max_size=4))
    @example([Fraction(2), Fraction(-2), Fraction(2), Fraction(-2)])
    @example(list(NON_DECIMAL_X_P0))
    def test_any_x_p0_in_the_box(self, batch, sound_plan, x_p0):
        """Any rational x_p0 with |x| <= x_p0_bound: no saturation, recovery
        failure or oracle mismatch, and every increment below q/2."""
        assert batch.plant.x_p0_bound == 2
        sc = Scenario("box", batch.plant, batch.ctrl, batch.reference, tuple(x_p0))
        tr, rec = recorded(run_closed_loop_main, sound_plan, main_cfg(sc, sound_plan, 12))
        assert tr.saturation_count == 0
        assert tr.recovery_failures == 0 and tr.oracle_mismatches == 0
        largest = max(abs(x) for det in rec.rows
                      for x in (*det["alpha"], *det["beta"], *det["gamma"]))
        assert 2 * largest < sound_plan.q


class TestPrelimLoop:
    def test_tanks_run_exact(self, tanks, tanks_plan):
        cfg = RunConfig(plant=tanks.plant, ctrl=tanks.ctrl,
                        reference=tanks.reference, x_p0=tanks.x_p0,
                        horizon=200, params=he.SchemeParams.mock(tanks_plan.q),
                        seed=0)
        tr, rec = recorded(run_closed_loop_prelim, tanks_plan, cfg)
        assert tr.recovery_failures == 0 and tr.oracle_mismatches == 0
        for det in rec.rows:
            assert det["u_tilde"] == det["u_tilde_recovered"]
        # restored input matches the quantized-loop truth exactly
        for det in rec.rows:
            want = [tanks_plan.s1 * tanks_plan.s2 * det["l"] * x
                    for x in det["u_tilde"]]
            assert want == det["u_a_exact"]

    def test_bound_dominates_observed_increments(self, tanks, tanks_plan):
        cfg = RunConfig(plant=tanks.plant, ctrl=tanks.ctrl,
                        reference=tanks.reference, x_p0=tanks.x_p0,
                        horizon=200, params=he.SchemeParams.mock(tanks_plan.q),
                        seed=0)
        tr = run_closed_loop_prelim(tanks_plan, cfg)
        mx = max(r.log2_alpha for r in tr.records)
        assert 2.0 * 2**mx < tanks_plan.q

    def test_fault_injection(self, tanks, tanks_plan):
        cfg = RunConfig(plant=tanks.plant, ctrl=tanks.ctrl,
                        reference=tanks.reference, x_p0=tanks.x_p0,
                        horizon=200, params=he.SchemeParams.mock(tanks_plan.q),
                        seed=0)
        tr = run_closed_loop_prelim(tanks_plan, cfg)
        mx = max(r.log2_alpha for r in tr.records if math.isfinite(r.log2_alpha))
        q_small = max(2, 2**int(mx))
        bad = replace(tanks_plan, q=q_small)
        cfg_bad = replace(cfg, params=he.SchemeParams.mock(q_small))
        tr_bad = run_closed_loop_prelim(bad, cfg_bad)
        assert tr_bad.recovery_failures > 0

    def test_recovery_fails_from_the_first_failed_lift_on(self, tanks, tanks_plan):
        """At q = 128, the recovery failures are a suffix of the run: every
        step from the first failed lift on, 198 of 200."""
        bad = replace(tanks_plan, q=128)
        cfg = RunConfig(plant=tanks.plant, ctrl=tanks.ctrl, reference=tanks.reference,
                        x_p0=tanks.x_p0, horizon=200, params=he.SchemeParams.mock(128), seed=7)
        tr = run_closed_loop_prelim(bad, cfg)
        assert tr.recovery_failures == 198 and tr.oracle_mismatches == 0
        assert [r.recovery_failure for r in tr.records] == [t >= 2 for t in range(200)]

    def test_converges_to_original_input(self, tanks, tanks_plan):
        cfg = RunConfig(plant=tanks.plant, ctrl=tanks.ctrl,
                        reference=tanks.reference, x_p0=tanks.x_p0,
                        horizon=120, params=he.SchemeParams.mock(tanks_plan.q),
                        seed=0)
        tr = run_closed_loop_prelim(tanks_plan, cfg)
        assert tr.records[-1].diff_inf < 1e-9

    def test_prelim_on_lattice_backend(self, tanks, tanks_plan):
        params = lattice_params(tanks_plan, 20)
        cfg = RunConfig(plant=tanks.plant, ctrl=tanks.ctrl,
                        reference=tanks.reference, x_p0=tanks.x_p0,
                        horizon=20, params=params, seed=1)
        tr = run_closed_loop_prelim(tanks_plan, cfg)
        assert tr.recovery_failures == 0 and tr.oracle_mismatches == 0


def _generated_matvec(M, v):
    """M v as `kernel.Source.matvec` records it, compiled and evaluated at v."""
    source = kernel.Source()
    names = source.vector(len(v))
    return function(source, source.matvec(M, names))(v)


class TestCompiledKernels:
    """The straight-line kernels that the integer shadows and the main
    actuator run each step, against the interpreted `IntRing` as reference."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 5), st.integers(0, 5), st.data())
    def test_generated_matvec_is_int_ring_matvec(self, rows, cols, data):
        """Zero rows and entries, negative and large entries, 1x1 and empty
        dimensions."""
        entry = st.one_of(st.just(0), st.sampled_from([1, -1]),
                          st.integers(-2**70, 2**70))
        M = data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                               min_size=rows, max_size=rows))
        v = data.draw(st.lists(st.integers(-2**200, 2**200), min_size=cols, max_size=cols))
        assert _generated_matvec(M, v) == IntRing.matvec(M, v)

    def test_long_row_is_split_into_partial_sums(self):
        """A 3000-term row compiles and evaluates; as one expression CPython
        3.11 refuses it with `RecursionError`."""
        rng = random.Random(3000)
        M = [[rng.randint(-10**6, 10**6) or 1 for _ in range(3000)]]
        v = [rng.randint(-10**30, 10**30) for _ in range(3000)]
        source = kernel.Source()
        out = source.matvec(M, source.vector(len(v)))
        assert len(source.lines) == math.ceil(3000 / kernel.TERMS_PER_STATEMENT)
        assert function(source, out)(v) == IntRing.matvec(M, v)

    def test_operands_of_unequal_length_are_refused_while_recording(self):
        """`zip` would drop the entries past the shorter operand: the
        recording ring and `IntRing` refuse them alike."""
        source = kernel.Source()
        for ring, x, y in ((source, source.vector(2), source.vector(3)),
                           (IntRing, [1, 2], [1, 2, 3])):
            for M in ([[1, 2, 3]], [[1]], [[1, 2], [1, 2, 3]]):
                with pytest.raises(ValueError, match="columns"):
                    ring.matvec(M, x)
            with pytest.raises(ValueError, match="equal lengths"):
                ring.add(x, y)
            with pytest.raises(ValueError, match="equal lengths"):
                ring.add(x, x, y)
        assert source.lines == []

    def test_source_takes_only_integers_and_generated_names(self):
        source = kernel.Source()
        x = source.vector(1)
        for terms in ([(1, x[0]), (2, "__import__('os')")], [(0.5, x[0])], [(True, 0.0)]):
            with pytest.raises(TypeError):
                function(source, [source.linear(terms)])

    @staticmethod
    def _random_inputs(rng, dims):
        return [[rng.randint(-2**80, 2**80) for _ in range(n)] for n in dims]

    def _check_main(self, plan, x_e0):
        """Over 20 steps of random inputs: the bootstrap and the compiled
        `step` of `MainIntegerShadow` against `MainRecurrence` on `IntRing`;
        and the states that the compiled `rebuild` of
        `MainIntegerRecurrence` rebuilds from its increments against the
        paper's recurrence (`PaperRecurrence`) at every step, with u, which
        `rebuild` returns."""
        d, rng = plan.dims, random.Random(20)
        shadow, reference = MainIntegerShadow(plan), MainRecurrence(IntRing(), plan)
        rebuilt, paper = MainIntegerRecurrence(plan), PaperRecurrence(plan, x_e0)
        emitted = shadow.bootstrap(x_e0)
        assert emitted == reference.bootstrap(x_e0)
        for t in range(21):
            if t:
                inputs = self._random_inputs(rng, (d["v"], d["n_r"]))
                emitted = shadow.step(*inputs)
                assert emitted == reference.step(*inputs)
                paper.step(*inputs)
            assert [getattr(shadow, k) for k in shadow.state] == [
                getattr(reference, k) for k in reference.state]
            assert rebuilt.rebuild(*emitted) == paper.u
            assert (rebuilt.xo, rebuilt.xe, rebuilt.u) == (paper.xo, paper.xe, paper.u)

    def test_main_route_bundled_plan(self, batch, sound_plan):
        self._check_main(sound_plan, _scaled_integer_state(batch.ctrl.x0.data, sound_plan.l0))

    def test_main_route_random_system(self):
        plant, ctrl, design, reference, _ = random_main_system(random.Random(7))
        plan = plan_main(plant, ctrl, MainPlanOptions(L=design.L, L_exact=design.L,
                                                      reference=reference))
        self._check_main(plan, _scaled_integer_state(ctrl.x0.data, plan.l0))

    @pytest.mark.parametrize("M,C,X", [
        ([[3, 5, 3]], [[1, 0, 1], [0, 1, 0]], [[3, 5]]),
        ([[0, 1]], [[1, 0]], None),            # M is not in the row space of C
        ([[2, 0]], [[1, 0], [1, 0]], None),    # the rows of C are dependent
        ([[1]], [[2]], None),                  # X = 1/2 is not integral
        ([[0, 0, 0]], [[1, 0, 1], [0, 1, 0]], [[0, 0]])])
    def test_factor(self, M, C, X):
        """`loop._factor(M, C)`: the integer X with X C = M, or None."""
        got = loop._factor(rmat(M), rmat(C))
        assert (got if got is None else got.to_lists()) == X

    def test_rebuild_rows_are_kept_with_the_kernels(self, monkeypatch, sound_plan):
        """The rows of `rebuild` (`_through_output`) are kept in `kernel.kept`,
        the process's one cache: a recurrence built again after
        `kernel._kernels` is cleared factors its rows again, as in a fresh
        process, and one built while they are kept factors nothing."""
        calls, factor = [0], loop._factor

        def counting(*args):
            calls[0] += 1
            return factor(*args)

        monkeypatch.setattr(loop, "_factor", counting)
        MainIntegerRecurrence(sound_plan)
        cold = calls[0]
        MainIntegerRecurrence(sound_plan)
        assert cold > 0 and calls[0] == cold
        kernel._kernels.clear()
        MainIntegerRecurrence(sound_plan)
        assert calls[0] == 2 * cold

    def test_rebuild_through_the_observer_output_is_the_gc_form(self, scalar_main):
        """`rebuild` with G and J on the observer output (`_through_output`)
        equals `rebuild` with GC/omega and JC/s2 on xo over 20 steps of
        random increments, on 12 random systems and on the scalar plans.  A
        plan takes the factored form, G s1/omega and J s1/s2 on
        y_o = (C/s1) xo, exactly where C has independent rows and both are
        integral, and the random systems and scalar plans take both forms;
        the scalar plan whose factor is not integral also rebuilds the
        paper's states (`_check_main`)."""
        plans = []
        for seed in range(12):
            plant, ctrl, design, reference, _ = random_main_system(random.Random(seed))
            plans.append((ctrl, plan_main(plant, ctrl, MainPlanOptions(
                L=design.L, L_exact=design.L, reference=reference))))
        plans += [(sc.ctrl, plan) for sc, plan in scalar_main]
        forms = []
        for ctrl, plan in plans:
            certs, d = plan.certificates, plan.dims
            C = certs["C/s1"].as_matrix()
            G, J = ctrl.G.scale(plan.s1 / plan.omega), ctrl.J.scale(plan.s1 / plan.s2)
            factored = C.rank() == C.rows and G.denominator_lcm() == J.denominator_lcm() == 1
            forms.append(factored)
            rebuilt, gc_form = MainIntegerRecurrence(plan), MainIntegerRecurrence(plan)
            gc_form.m.C = tuple(tuple(int(i == j) for j in range(d["n"])) for i in range(d["n"]))
            gc_form.m.G, gc_form.m.J = (tuple(map(tuple, certs[k].int_rows()))
                                        for k in ("GC/omega", "JC/s2"))
            gc_form.yo = [0] * d["n"]
            want = ([tuple(int(x) for x in M.row(i)) for i in range(M.rows)] for M in (C, G, J))
            assert (rebuilt.m.C, rebuilt.m.G, rebuilt.m.J) == (
                tuple(map(tuple, want)) if factored else (gc_form.m.C, gc_form.m.G, gc_form.m.J))
            rng = random.Random(20)
            for _ in range(20):
                increments = self._random_inputs(rng, (d["n"], d["n_x"], d["w"]))
                assert rebuilt.rebuild(*increments) == gc_form.rebuild(*increments)
                assert (rebuilt.xo, rebuilt.xe) == (gc_form.xo, gc_form.xe)
        assert set(forms[:12]) == set(forms[12:]) == {True, False}
        sc, plan = scalar_main[0]
        self._check_main(plan, _scaled_integer_state(sc.ctrl.x0.data, plan.l0))

    def test_prelim_route_bundled_plan(self, tanks, tanks_plan):
        """`PrelimIntegerShadow.step` against `PrelimRecurrence` on `IntRing`."""
        rng = random.Random(21)
        x0 = _scaled_integer_state(tanks.ctrl.x0.data, tanks_plan.s1 * tanks_plan.l0)
        shadow, reference = PrelimIntegerShadow(tanks_plan), PrelimRecurrence(IntRing(), tanks_plan)
        shadow.bootstrap(x0)
        reference.bootstrap(x0)
        for _ in range(20):
            inputs = self._random_inputs(rng, (tanks.plant.v, tanks.ctrl.n_r))
            assert shadow.step(*inputs) == reference.step(*inputs)
            assert shadow.x == reference.x

    @staticmethod
    def _integer_methods(batch, sound_plan, tanks, tanks_plan, tanks_main_plan) -> list:
        """(make the party, method, state lengths, argument lengths, whether
        it returns a tuple) of each compiled integer method of both
        fixtures."""
        cases = []
        for sc, plan in ((batch, sound_plan), (tanks, tanks_main_plan)):
            d = plan.dims
            cases += [(lambda plan=plan: MainIntegerShadow(plan), "step", (d["n_x"],),
                       (d["v"], d["n_r"]), True),
                      (lambda plan=plan: MainIntegerRecurrence(plan), "rebuild",
                       (d["n"], d["n_x"], d["n_x"], d["w"], d["w"], d["v"]),
                       (d["n"], d["n_x"], d["w"]), False),
                      (lambda sc=sc, plan=plan: PlantSim(
                          sc.plant, sc.x_p0, plan.l0, plan.omega, plan.s2,
                          MainIntegerRecurrence(plan)), "observe", (), (d["n"], d["n"]), True)]
        for sc, plan, scale in ((batch, sound_plan, sound_plan.s2),
                                (tanks, tanks_plan, tanks_plan.s1 * tanks_plan.s2)):
            def make(sc=sc, plan=plan, scale=scale):
                return PlantSim(sc.plant, sc.x_p0, plan.l0, plan.omega, scale)
            n, w = sc.plant.n, sc.plant.w
            cases += [(make, "products", (), (n, w), True), (make, "measure", (), (n,), False)]
        cases.append((lambda: PrelimIntegerShadow(tanks_plan), "step", (tanks.ctrl.n_x,),
                      (tanks.plant.v, tanks.ctrl.n_r), False))
        return cases

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_the_generated_integer_method_is_the_op_by_op_method(
            self, batch, sound_plan, tanks, tanks_plan, tanks_main_plan, data):
        """Each compiled integer method, compiled at a first call: at a later
        call on any vectors of the recorded lengths, it returns, and leaves
        as the party's new state, what the recurrence's own method computes
        from the same vectors op by op on `IntRing`, which shares no code
        with the recording ring, on a copy of the party.  A state vector or
        argument one entry longer or shorter raises `ValueError` with
        `kernel.check_lengths`' message and leaves the state as it was."""
        make, name, state_lengths, arg_lengths, many = data.draw(st.sampled_from(
            self._integer_methods(batch, sound_plan, tanks, tanks_plan, tanks_main_plan)))
        party = make()

        def vector(k):
            return data.draw(st.lists(st.integers(-2**100, 2**100), min_size=k, max_size=k))

        def set_state(vectors):
            for k, v in zip(party.state, vectors):
                setattr(party, k, v)

        set_state([[0] * k for k in state_lengths])
        getattr(party, name)(*([0] * k for k in arg_lengths))
        method = next(m for m in party.kernels if m.__name__ == name)
        state, args = [vector(k) for k in state_lengths], [vector(k) for k in arg_lengths]
        set_state(state)
        reference, n = copy.copy(party), len(party.state)
        reference.ring = IntRing()
        want = method(reference, *args)
        got = getattr(party, name)(*args)
        assert [getattr(party, k) for k in party.state] == [
            getattr(reference, k) for k in party.state]
        assert got == want and isinstance(got, tuple) == many

        inputs = [*state, *args]
        k = data.draw(st.integers(0, len(inputs) - 1))
        inputs[k] = inputs[k][:-1] if inputs[k] and data.draw(st.booleans()) else inputs[k] + [0]
        set_state(inputs[:n])
        with pytest.raises(ValueError) as recorded:
            kernel.check_lengths(list(map(len, inputs)), [*state_lengths, *arg_lengths],
                                 ValueError)
        with pytest.raises(ValueError) as refused:
            getattr(party, name)(*inputs[n:])
        assert str(refused.value) == str(recorded.value)
        assert all(getattr(party, k) is v for k, v in zip(party.state, inputs))

    @pytest.mark.parametrize("backend", ["mock", "lattice"])
    @pytest.mark.parametrize("scheme", ["main", "prelim"])
    def test_compiled_methods_dispatch_through_the_class(self, request, monkeypatch,
                                                         scheme, backend):
        """A party calls each compiled method through its class attribute at
        every step, as `bench/layers.Tracer` needs: wrappers that replace
        them on the classes after a run's first step, whose calls compiled
        every kernel, count every call of the steps after it."""
        sc, plan, run = route(request, scheme)
        methods = (
            [(PlantSim, "observe"), (MainEncController, "step"), (MainIntegerShadow, "step"),
             (MainIntegerRecurrence, "rebuild")] if scheme == "main" else
            [(PlantSim, "products"), (PlantSim, "measure"), (PrelimEncController, "step"),
             (PrelimIntegerShadow, "step")])
        counts, plant_step, horizon = {}, PlantSim.step, 6

        def counting(key, method):
            def wrapped(*args):
                counts[key] += 1
                return method(*args)
            return wrapped

        def step_then_wrap(plant, U):
            plant_step(plant, U)
            if not counts:
                for cls, name in methods:
                    counts[cls, name] = 0
                    monkeypatch.setattr(cls, name, counting((cls, name), getattr(cls, name)))

        monkeypatch.setattr(PlantSim, "step", step_then_wrap)
        params = (he.SchemeParams.mock(plan.q) if backend == "mock"
                  else lattice_params(plan, horizon))
        run(plan, RunConfig(plant=sc.plant, ctrl=sc.ctrl, reference=sc.reference,
                            x_p0=sc.x_p0, horizon=horizon, params=params, seed=1))
        assert counts == {key: horizon - 1 for key in methods}


class TestCompiledControllerStep:
    """The encrypted controllers' compiled steps against the staged `he` ops:
    the recurrence interpreted on `CipherRing`, kept here as the
    reference."""

    @pytest.mark.parametrize("backend", ["mock", "lattice", "short-pad"])
    @pytest.mark.parametrize("horizon", [3, 30])
    @pytest.mark.parametrize("odd", [False, True], ids=["plan-q", "q+1"])
    @pytest.mark.parametrize("scheme", ["main", "prelim"])
    def test_compiled_step_is_the_staged_step(self, request, scheme, odd, horizon, backend):
        """Equal payloads of every state and emitted ciphertext, at the
        plan's q and at q + 1 (odd, so Q is no power of two), on both
        backends.  On lattice the bootstrap only encrypts, so what it emits
        and its state carry `FRESH_NOISE_BOUND`; a compiled step's new state
        carries no noise bound, and what it emits carries the bound of the
        plan's table at the controller's event, never above the staged ops'
        per-vector bound.  At the horizon's pad every emission decrypts;
        with a pad 2 bits short, decryption raises `NoiseOverflowError`
        first at the step whose table bound reaches half of Delta, within
        the horizon."""
        sc, plan, _ = route(request, scheme)
        if odd:
            plan = replace(plan, q=plan.q + 1)
        if backend == "mock":
            params = he.SchemeParams.mock(plan.q)
        else:
            params = lattice_params(plan, horizon)
            if backend == "short-pad":
                pad = params.lattice.pad_bits - 2
                params = replace(params, lattice=he.LatticeParams(pad))
        pk, sk = he.keygen(params, seed=horizon)
        if scheme == "main":
            compiled_cls, staged_cls = MainEncController, MainRecurrence
            x0 = _scaled_integer_state(sc.ctrl.x0.data, plan.l0)
            dims = (plan.dims["v"], plan.dims["n_r"])
        else:
            compiled_cls, staged_cls = PrelimEncController, PrelimRecurrence
            x0 = _scaled_integer_state(sc.ctrl.x0.data, plan.s1 * plan.l0)
            dims = (sc.plant.v, sc.ctrl.n_r)
        # same seeds: the two bootstraps encrypt alike
        compiled = compiled_cls(CipherRing(pk, plan.q, random.Random(5)), plan)
        staged = staged_cls(CipherRing(pk, plan.q, random.Random(5)), plan)
        inputs = CipherRing(pk, plan.q, random.Random(6))
        rng = random.Random(7)
        table = noise_table(compiled)
        overflow, refused = None, None
        for t in range(horizon):
            args = [inputs.fresh([rng.randrange(plan.q) for _ in range(n)])
                    for n in dims] if t else []
            # the emitted and the new state ciphertexts of a bootstrap (no
            # arguments) or a step
            outcomes = []
            for rec in (compiled, staged):
                emitted = _vectors((rec.step(*args) if args else rec.bootstrap(x0)) or ())
                outcomes.append((emitted, [getattr(rec, k) for k in rec.state]))
            (emitted, states), (staged_emitted, staged_states) = outcomes
            assert ([(ct.dim, ct.payload) for ct in (*emitted, *states)]
                    == [(ct.dim, ct.payload) for ct in (*staged_emitted, *staged_states)])
            if backend == "mock":
                continue
            if args:
                bounds = table.at(compiled.events - 1)
                assert all(ct.noise_bound is None for ct in states)
            else:
                bounds = [he.FRESH_NOISE_BOUND] * len(emitted)
                assert [ct.noise_bound for ct in states] == [he.FRESH_NOISE_BOUND] * len(states)
            assert [ct.noise_bound for ct in emitted] == list(bounds)
            assert all(c.noise_bound <= s.noise_bound
                       for c, s in zip(emitted, staged_emitted))
            if overflow is None and max(bounds, default=0) >= 1 << (params.lattice.pad_bits - 1):
                overflow = t
            try:
                for ct in emitted:
                    he.decrypt(sk, ct)
            except he.NoiseOverflowError:
                refused = t if refused is None else refused
        # only the short pad overflows, within the horizon, where the table says
        assert refused == overflow
        assert (overflow is not None) == (backend == "short-pad")

    @pytest.mark.parametrize("backend", ["mock", "lattice"])
    @pytest.mark.parametrize("case,scheme", [
        ("wide", "prelim"), ("wrong-q", "main"), ("wrong-q", "prelim"),
        ("wrong-length", "main"), ("wrong-length", "prelim"),
        ("wrong-length-later", "main"), ("wrong-length-later", "prelim"),
        ("wrong-length-rerun", "main"), ("wrong-length-rerun", "prelim"),
        ("other-scheme", "main"), ("other-scheme", "prelim"),
        ("other-scheme-later", "main"), ("other-scheme-later", "prelim")])
    def test_row_wider_than_a_slot_is_refused_as_staged(self, request, case, scheme, backend):
        """A product the staged `he` ops refuse with `DimensionMismatchError`
        is refused by the compiled step too: over more columns than a packed
        slot holds (2^GUARD, "wide"; on lattice only, even with coefficients
        small enough to fit, and mock takes it), by a plaintext prepared
        under another q than the keys' ("wrong-q"), and with an input one
        entry too long: at the first step ("wrong-length"), at the second
        ("wrong-length-later"), and at the first step of a second controller
        of the plan, whose kernel the first one's step built
        ("wrong-length-rerun"); and with an input encrypted under other
        scheme parameters than the keys' (q + 1 on mock, a pad 3 bits wider
        on lattice), at the first step ("other-scheme") and at the second
        ("other-scheme-later")."""
        if case == "wide":
            wide, q = (1 << he.GUARD) + 1, 2**12
            rows = {"F/omega": [[1]], "G/(s1*omega)": [[1] * wide], "R/(s1*omega)": [[1]],
                    "H/s2": [[1]], "J/(s1*s2)": [[-1] * wide], "S/(s1*s2)": [[1]]}
            plan = SimpleNamespace(q=q, certificates={
                name: SimpleNamespace(int_rows=lambda r=r: r) for name, r in rows.items()})
            x0, dims, pad = [3], [wide, 1], 30
        else:
            sc, plan, _ = route(request, scheme)
            if scheme == "main":
                x0 = _scaled_integer_state(sc.ctrl.x0.data, plan.l0)
                dims = [plan.dims["v"], plan.dims["n_r"]]
            else:
                x0 = _scaled_integer_state(sc.ctrl.x0.data, plan.s1 * plan.l0)
                dims = [sc.plant.v, sc.ctrl.n_r]
            pad = lattice_params(plan, 3).lattice.pad_bits
        q = plan.q + (case == "wrong-q")
        params = (he.SchemeParams.mock(q) if backend == "mock" else
                  he.SchemeParams(q=q, backend="lattice", lattice=he.LatticeParams(pad)))
        pk, _ = he.keygen(params, seed=1)
        other = (he.SchemeParams.mock(q + 1) if backend == "mock" else
                 he.SchemeParams(q=q, backend="lattice", lattice=he.LatticeParams(pad + 3)))
        other_pk, _ = he.keygen(other, seed=1)
        # the bootstrapped state, encrypted from the integer twin: the main
        # bootstrap multiplies, and would refuse a wrong q before any step
        twin = (MainRecurrence if scheme == "main" else PrelimRecurrence)(IntRing(), plan)
        twin.bootstrap(x0)
        outcomes = []
        for cls in ((MainEncController, MainRecurrence) if scheme == "main" else
                    (PrelimEncController, PrelimRecurrence)):
            inputs = CipherRing(pk, plan.q, random.Random(3))
            other_inputs = CipherRing(other_pk, plan.q, random.Random(3))

            def bootstrapped():
                rec = cls(CipherRing(pk, plan.q, random.Random(2)), plan)
                for k in rec.state:
                    setattr(rec, k, rec.ring.fresh(getattr(twin, k)))
                return rec

            def step(rec, bad=False):
                y = other_inputs if bad and case.startswith("other-scheme") else inputs
                extra = bad and case.startswith("wrong-length")
                return rec.step(y.fresh([1] * (dims[0] + extra)), inputs.fresh([5] * dims[1]))

            rec = bootstrapped()
            if case.endswith("-later"):
                step(rec)
            elif case == "wrong-length-rerun":
                step(bootstrapped())
            try:
                emitted = step(rec, bad=True)
                cts = [*_vectors(emitted), *(getattr(rec, k) for k in rec.state)]
                outcomes.append([ct.payload for ct in cts])
            except he.DimensionMismatchError:
                outcomes.append("refused")
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0] == "refused") == (backend == "lattice" or case != "wide")

    @pytest.mark.parametrize("scheme", ["main", "prelim"])
    def test_kernels_per_plan(self, request, monkeypatch, tmp_path, scheme):
        """The kernels are the plan's: two lattice runs of one plan with
        different seeds compile 5 kernels in total on the main route (the
        controller's payload `step`, the integer `step` that the shadow and
        the noise table share, the actuator's `rebuild`, the plant's
        `observe`, the reference loop's map) and 5 on the prelim route
        (payload `step`, the shared integer `step`, the plant's `products`
        and `measure`, the reference loop's map), and write one CSV.  A run at another pad compiles its own payload kernels
        only, and so does a plan with twice the q: its integer rows are the
        same, and so are its centered rows, by which the noise table is
        kept."""
        sc, plan, run = route(request, scheme)
        pad = lattice_params(plan, 5).lattice.pad_bits
        kernel._kernels.clear()
        compiled, define = [], kernel.Source.define

        def counting(source, *args):
            compiled.append(source)
            return define(source, *args)

        def csv(plan, params, seed):
            tr = run(plan, RunConfig(plant=sc.plant, ctrl=sc.ctrl, reference=sc.reference,
                                     x_p0=sc.x_p0, horizon=5, params=params, seed=seed))
            path = tmp_path / f"{len(compiled)}-{seed}.csv"
            tr.to_csv(str(path))
            return path.read_bytes()

        def lattice(q, pad):
            return he.SchemeParams(q=q, backend="lattice", lattice=he.LatticeParams(pad))

        monkeypatch.setattr(kernel.Source, "define", counting)
        kernels, payload = 5, 1
        first = csv(plan, lattice(plan.q, pad), 1)
        assert len(compiled) == kernels
        assert csv(plan, lattice(plan.q, pad), 2) == first
        assert len(compiled) == kernels
        assert csv(plan, lattice(plan.q, pad + 1), 3) == first
        assert len(compiled) == kernels + payload
        wider = replace(plan, q=2 * plan.q)
        assert csv(wider, he.SchemeParams.mock(wider.q), 4) == first
        assert len(compiled) == kernels + 2 * payload

    @pytest.mark.parametrize("scheme", ["main", "prelim"])
    def test_a_run_frees_its_keys_and_ciphertexts(self, request, monkeypatch, scheme):
        """The kept kernels hold no key and no ciphertext, and a run makes no
        reference cycle: with the cyclic garbage collector off, a lattice
        run's keys and every ciphertext a party decrypted are freed when
        the run returns."""
        sc, plan, run = route(request, scheme)
        cfg = RunConfig(plant=sc.plant, ctrl=sc.ctrl, reference=sc.reference,
                        x_p0=sc.x_p0, horizon=3, params=lattice_params(plan, 3), seed=1)
        refs, keygen, decrypt = [], he.keygen, he.decrypt

        def recording_keygen(params, seed=None):
            keys = keygen(params, seed=seed)
            refs.extend(map(weakref.ref, keys))
            return keys

        def recording_decrypt(sk, ct):
            refs.append(weakref.ref(ct))
            return decrypt(sk, ct)

        monkeypatch.setattr(he, "keygen", recording_keygen)
        monkeypatch.setattr(he, "decrypt", recording_decrypt)
        gc.disable()
        try:
            run(plan, cfg)
            assert len(refs) > 2 and all(ref() is None for ref in refs)
        finally:
            gc.enable()


def _form_bounds(rec, steps: int, x0) -> tuple:
    """What a recurrence on `FormRing` emits, as each vector's noise bound:
    at its bootstrap (None where it emits nothing, as on the prelim route),
    and at each of `steps` steps after it."""
    ring = rec.ring

    def bounds(emitted) -> tuple:
        return tuple(max(map(ring.bound, v), default=0) for v in _vectors(emitted))

    boot = rec.bootstrap(x0)
    lengths = rec.lengths()[1]
    return None if boot is None else bounds(boot), [
        bounds(rec.step(*(ring.fresh([0] * n) for n in lengths))) for _ in range(steps)]


@pytest.fixture(scope="module")
def never_ending():
    """(scenario, plan): a scalar plant and prelim controller planned at
    omega = 1/2 = F, so F/omega = [[1]]."""
    def m(x):
        return rmat([[x]])

    plant = PlantModel(A=m("0.2"), B=m(1), C=m(1), x_p0_bound=1)
    ctrl = ControllerModel(F=m("0.5"), G=m("-0.1"), R_ref=m(0), H=m("0.1"), J=m("-0.2"),
                           S=m(0), x0=m(0))
    sc = Scenario("never-ending", plant, ctrl, rmat([[0]]), (Fraction(1),))
    return sc, plan_preliminary(plant, ctrl, reference_bound=Fraction(0))


class TestNoiseTable:
    """`lattice_params` sizes the pad from the plan's exact noise table,
    whose bounds the encrypted controllers' emissions carry; the table
    predicts a real run exactly."""

    @pytest.mark.parametrize("plan", ["sound_plan", "tanks_main_plan", "tanks_plan", "delayed"],
                             ids=["batch-reactor-main", "coupled-tanks-main",
                                  "coupled-tanks-prelim", "delayed-prelim"])
    def test_table_is_the_form_by_form_bound(self, request, plan):
        """At every event of a 30-step run, the steps from the bootstrap, the
        table equals the bound of the noise forms the recurrence computes on
        `FormRing`, op by op: each emitted entry's FRESH_NOISE_BOUND times
        the sum of its absolute coefficients over the fresh entries, its
        vector's largest.  The main bootstrap's emission is fresh.  In the
        delayed prelim controller, a 3-state shift register, an input
        reaches u again after two lags of zero response, which a column
        must not end at.  The run passes the end of every table here: the
        delayed controller's, the last, is final after 5 events."""
        if plan == "delayed":
            rows = {"F/omega": [[0, 1, 0], [0, 0, 1], [0, 0, 0]], "G/(s1*omega)": [[0], [0], [1]],
                    "R/(s1*omega)": [[0], [0], [0]], "H/s2": [[1, 0, 0]],
                    "J/(s1*s2)": [[2]], "S/(s1*s2)": [[0]]}
            plan = SimpleNamespace(q=2**13, certificates={
                name: SimpleNamespace(int_rows=lambda r=r: r) for name, r in rows.items()})
        else:
            plan = request.getfixturevalue(plan)
        main = isinstance(plan, MainPlan)
        rec = (MainRecurrence if main else PrelimRecurrence)(FormRing(plan.q), plan)
        x0 = [0] * rec.lengths()[0][0]
        table = noise_table(rec)
        boot, steps = _form_bounds(rec, 30, x0)
        assert steps == [table.at(t) for t in range(30)]
        assert boot == ((he.FRESH_NOISE_BOUND,) * 3 if main else None)

    @pytest.mark.parametrize("plan", ["sound_plan", "tanks_main_plan"],
                             ids=["batch-reactor-main", "coupled-tanks-main"])
    def test_increment_bounds_are_constant_from_deadbeat_index_plus_2(self, request, plan):
        """On the main route the increments' bounds are the same at every
        step from `deadbeat_index + 2` on, event `deadbeat_index + 1` of the
        table, whose first event is step 1: the table ends there or before,
        final after 3 events on both plans, since the state is the next
        step's beta alone, and the pad of every longer horizon is the same."""
        plan = request.getfixturevalue(plan)
        table = noise_table(MainRecurrence(loop.CipherRing(None, plan.q, None), plan))
        first = plan.deadbeat_index + 1
        assert len({table.at(t) for t in range(first, 1000)}) == 1
        assert table.final and len(table.bounds) == 3
        # the horizon whose last step is event `first`: the bootstrap, then steps
        pads = {lattice_params(plan, h).lattice.pad_bits for h in (first + 2, 200, 10**6)}
        assert pads == {noise_peak(plan, first + 2).bit_length() + 2}

    def test_a_thousand_steps_at_the_horizon_free_pad(self, batch, sound_plan):
        """The batch reactor on lattice at H=1000, at the pad that every
        horizon from 3 on shares, decrypts every increment and restores the
        mock run's inputs."""
        params = lattice_params(sound_plan, 3)
        assert params == lattice_params(sound_plan, 1000)
        cfg = main_cfg(batch, sound_plan, 1000)
        tr_m = run_closed_loop_main(sound_plan, cfg)
        tr_l = run_closed_loop_main(sound_plan, replace(cfg, params=params, seed=2))
        assert tr_l.recovery_failures == 0 and tr_l.oracle_mismatches == 0
        assert [r.u_a for r in tr_l.records] == [r.u_a for r in tr_m.records]

    def test_a_table_that_never_ends(self, never_ending):
        """With F/omega = [[1]] the prelim state keeps every input for ever,
        so no column of the table ends: it is never final, and its pad grows
        with the horizon.  A lattice run at H=1000, at that horizon's pad,
        decrypts every input and restores the mock run's."""
        sc, plan = never_ending
        assert plan.certificates["F/omega"].int_rows() == [[1]]
        pads = [lattice_params(plan, h).lattice.pad_bits for h in (1, 10, 100, 1000)]
        assert pads == [14, 14, 17, 20]
        assert not noise_table(PrelimRecurrence(loop.CipherRing(None, plan.q, None),
                                                plan)).final
        cfg = RunConfig(plant=sc.plant, ctrl=sc.ctrl, reference=sc.reference, x_p0=sc.x_p0,
                        horizon=1000, params=he.SchemeParams.mock(plan.q), seed=1)
        tr_m = run_closed_loop_prelim(plan, cfg)
        tr_l = run_closed_loop_prelim(plan, replace(cfg, params=lattice_params(plan, 1000)))
        assert tr_l.recovery_failures == 0 and tr_l.oracle_mismatches == 0
        assert [r.u_a for r in tr_l.records] == [r.u_a for r in tr_m.records]

    @pytest.mark.parametrize("horizon", [0, -2])
    def test_a_horizon_below_1_is_refused(self, sound_plan, tanks_plan, horizon):
        """A run has at least one event, so a shorter horizon has no noise
        peak and no pad: both refuse it, naming it."""
        for plan in (sound_plan, tanks_plan):
            for size in (noise_peak, lattice_params):
                with pytest.raises(ValueError, match=f"^horizon must be >= 1, got {horizon}$"):
                    size(plan, horizon)

    @pytest.mark.parametrize("case", ["transplanted", "hand-set"])
    @pytest.mark.parametrize("scheme", ["main", "prelim"])
    def test_a_state_the_controller_did_not_make_emits_no_bound(self, request, scheme, case):
        """The table bounds a step at the controller's event only if its own
        bootstrap or last step made the states it reads.  The states of a
        controller that ran 26 steps, given to a freshly bootstrapped one
        or set by hand on one never bootstrapped, are at no event of its
        own: what it emits from them, and from the states it makes of
        them, carries no bound, and `he.decrypt` refuses it.  The
        controller that made them still bounds its next step, and after a
        new bootstrap its first step is event 0 again."""
        sc, plan, _ = route(request, scheme)
        pk, sk = he.keygen(lattice_params(plan, 30), seed=1)
        ring = loop.CipherRing(pk, plan.q, random.Random(1))
        cls, scale = ((MainEncController, plan.l0) if scheme == "main"
                      else (PrelimEncController, plan.s1 * plan.l0))
        x0 = _scaled_integer_state(sc.ctrl.x0.data, scale)
        ran, controller = cls(ring, plan), cls(ring, plan)

        def inputs():
            return [ring.fresh([1] * n) for n in ran.lengths()[1]]

        ran.bootstrap(x0)
        for _ in range(26):
            ran.step(*inputs())
        if case == "transplanted":
            controller.bootstrap(x0)
        for k in controller.state:
            setattr(controller, k, getattr(ran, k))
        for _ in range(2):
            for ct in _vectors(controller.step(*inputs())):
                with pytest.raises(he.NoiseOverflowError, match="no noise bound"):
                    he.decrypt(sk, ct)
        for ct in _vectors(ran.step(*inputs())):
            he.decrypt(sk, ct)
        ran.bootstrap(x0)
        emitted = ran.step(*inputs())
        assert [ct.noise_bound for ct in _vectors(emitted)] == list(noise_table(ran).at(0))

    @pytest.mark.parametrize("scheme", ["main", "prelim"])
    def test_a_short_pad_raises_before_any_wrong_decryption(self, request, monkeypatch,
                                                             scheme):
        """With a pad 2 bits below `lattice_params`, a run raises
        `NoiseOverflowError` at the first event whose table bound reaches
        half of Delta, and every decryption before it is the one a mock run
        makes."""
        sc, plan, run = route(request, scheme)
        horizon = 30
        params = lattice_params(plan, horizon)
        tight = replace(params, lattice=he.LatticeParams(params.lattice.pad_bits - 2))
        decrypt, decrypted = he.decrypt, {"mock": [], "lattice": []}

        def recording_decrypt(sk, ct):
            out = decrypt(sk, ct)
            decrypted[sk.params.backend].append(out)
            return out

        monkeypatch.setattr(he, "decrypt", recording_decrypt)
        cfg = RunConfig(plant=sc.plant, ctrl=sc.ctrl, reference=sc.reference, x_p0=sc.x_p0,
                        horizon=horizon, params=he.SchemeParams.mock(plan.q), seed=1)
        run(plan, cfg)
        with pytest.raises(he.NoiseOverflowError):
            run(plan, replace(cfg, params=tight))
        got = decrypted["lattice"]
        assert got == decrypted["mock"][:len(got)]
        table = noise_table((MainRecurrence if scheme == "main" else PrelimRecurrence)(
            loop.CipherRing(None, plan.q, None), plan))
        budget = 1 << (tight.lattice.pad_bits - 1)  # Delta/2
        event = next(t for t in range(horizon) if max(table.at(t)) >= budget)
        # the actuator decrypts the main bootstrap's fresh emission, then
        # each event's vectors in turn, and stops at the first one past the
        # budget
        before = next(i for i, b in enumerate(table.at(event)) if b >= budget)
        assert len(got) == (event + (scheme == "main")) * len(table.at(0)) + before

    def test_controller_state_is_refused(self, batch, sound_plan, tanks, tanks_plan):
        """No table bound covers the encrypted controllers' states, so they
        carry none and `he.decrypt` refuses them (exit 5 at the command
        line), while their emissions decrypt; so are the emissions of a
        step on inputs that are not fresh encryptions."""
        for sc, plan, cls in ((batch, sound_plan, MainEncController),
                              (tanks, tanks_plan, PrelimEncController)):
            params = lattice_params(plan, 2)
            pk, sk = he.keygen(params, seed=1)
            controller = cls(loop.CipherRing(pk, plan.q, random.Random(1)), plan)
            controller.bootstrap([0] * controller.lengths()[0][0])
            emitted = controller.step(*(controller.ring.fresh([1] * n)
                                        for n in controller.lengths()[1]))
            for ct in _vectors(emitted):
                he.decrypt(sk, ct)
            for k in controller.state:
                state = getattr(controller, k)
                assert state.noise_bound is None
                with pytest.raises(he.NoiseOverflowError, match="no noise bound"):
                    he.decrypt(sk, state)
            # the table covers fresh inputs only: a sum of two is not one
            twice = [he.add(ct, ct) for ct in (controller.ring.fresh([1] * n)
                                               for n in controller.lengths()[1])]
            for ct in _vectors(controller.step(*twice)):
                with pytest.raises(he.NoiseOverflowError, match="no noise bound"):
                    he.decrypt(sk, ct)

    @pytest.mark.parametrize("scheme", ["main", "prelim"])
    def test_dry_run_and_run_compile_one_noise_program(self, request, monkeypatch, scheme):
        """`lattice_params` builds the plan's table on the one integer
        kernel it compiles, the recurrence's `step`.  A lattice run of the
        plan builds no table, and its integer shadow runs that same `step`:
        it compiles the controller's payload `step`, the reference loop's
        map, and on the main route the actuator's `rebuild` and the plant's
        `observe`, on the prelim route the plant's `products` and
        `measure`."""
        sc, plan, run = route(request, scheme)
        sources, compile_ = [], compile

        def recording_compile(source, *args):
            sources.append(source)
            return compile_(source, *args)

        # `kernel.Source.define` compiles through the name `compile`
        monkeypatch.setattr(kernel, "compile", recording_compile, raising=False)
        params = lattice_params(plan, 5)
        assert len(sources) == 1
        assert not any("reduce(" in src for src in sources)
        sources.clear()
        tr = run(plan, RunConfig(plant=sc.plant, ctrl=sc.ctrl, reference=sc.reference,
                                 x_p0=sc.x_p0, horizon=5, params=params))
        assert tr.recovery_failures == 0
        payload = [src for src in sources if "reduce(" in src]
        assert (len(payload), len(sources)) == (1, 4)

    def test_a_wrapped_controller_step_leaves_the_table_on_the_recurrence(
            self, monkeypatch, tanks, tanks_plan):
        """The table runs the recurrence's own `step`, not what the
        controller's class holds: with `PrelimEncController.step` replaced
        by a wrapper that has no `__wrapped__` and the table no longer kept,
        a lattice run builds the table anew and runs exact."""
        step = PrelimEncController.step
        monkeypatch.setattr(PrelimEncController, "step", lambda self, *args: step(self, *args))
        params = lattice_params(tanks_plan, 20)
        kernel._kernels.clear()
        tr = run_closed_loop_prelim(tanks_plan, RunConfig(
            plant=tanks.plant, ctrl=tanks.ctrl, reference=tanks.reference, x_p0=tanks.x_p0,
            horizon=20, params=params, seed=1))
        assert tr.recovery_failures == 0 and tr.oracle_mismatches == 0

    def test_cipher_ring_centers_plaintexts(self):
        pk, _ = he.keygen(he.SchemeParams.mock(10))
        ring = CipherRing(pk, 10, random.Random(0))
        M = ring.plain([[9, 1, 5, 6, -5, 20]])
        assert M.rows == ((-1, 1, 5, -4, 5, 0),)
        assert (M.cols, M.weight) == (6, 16)
        I4 = ring.plain([[14, 0], [0, 14]])
        assert (I4.rows, I4.weight) == (((4, 0), (0, 4)), 4)

    @pytest.mark.parametrize("scheme", ["main", "prelim"])
    def test_peak_is_the_largest_noise_of_a_run(self, request, monkeypatch, scheme):
        """At H = 1 and 2 the bootstrap and the first steps set the pad, at
        H = 30 the later steps."""
        sc, plan, run = route(request, scheme)
        for horizon in (1, 2, 30):
            self._check_peak(monkeypatch, sc, plan, run, horizon)

    @staticmethod
    def _check_peak(monkeypatch, sc, plan, run, horizon):
        largest = [0]
        check_budget, decrypt = he.check_budget, he.decrypt

        # the bounds `he` checks against the pad: those of what parties decrypt
        def recording_check(params, bound):
            largest[0] = max(largest[0], bound)
            return check_budget(params, bound)

        def recording_decrypt(sk, ct):
            largest[0] = max(largest[0], ct.noise_bound)
            return decrypt(sk, ct)

        monkeypatch.setattr(he, "check_budget", recording_check)
        monkeypatch.setattr(he, "decrypt", recording_decrypt)
        params = lattice_params(plan, horizon)
        cfg = RunConfig(plant=sc.plant, ctrl=sc.ctrl, reference=sc.reference,
                        x_p0=sc.x_p0, horizon=horizon, params=params, seed=1)
        tr = run(plan, cfg)
        assert tr.recovery_failures == 0 and tr.oracle_mismatches == 0
        assert largest[0] == noise_peak(plan, horizon)
        # two bits less pad and the same run overflows
        lp = params.lattice
        tight = replace(params, lattice=replace(lp, pad_bits=lp.pad_bits - 2))
        with pytest.raises(he.NoiseOverflowError):
            run(plan, replace(cfg, params=tight))
        monkeypatch.undo()


@pytest.mark.parametrize("scheme", ["main", "prelim"])
def test_oracle_counts_a_wrong_decryption(request, monkeypatch, scheme):
    """The oracle reads the residues the parties decrypted: one decryption
    off by one is one oracle mismatch, and a recovery failure."""
    sc, plan, run = route(request, scheme)
    decrypt, calls = he.decrypt, [0]

    def off_by_one_once(sk, ct):
        out = decrypt(sk, ct)
        calls[0] += 1
        if calls[0] == 7:
            out = ((out[0] + 1) % plan.q, *out[1:])
        return out

    monkeypatch.setattr(he, "decrypt", off_by_one_once)
    cfg = RunConfig(plant=sc.plant, ctrl=sc.ctrl, reference=sc.reference,
                    x_p0=sc.x_p0, horizon=10, params=he.SchemeParams.mock(plan.q))
    tr = run(plan, cfg)
    assert tr.oracle_mismatches == 1
    assert tr.recovery_failures >= 1


@pytest.mark.parametrize("scheme", ["main", "prelim"])
def test_counters(request, scheme):
    """The trace's counts over H = 10 steps: messages per channel, the
    actuator's work, and the run's encryptions and decryptions."""
    sc, plan, run = route(request, scheme)
    tr = run(plan, main_cfg(sc, plan, 10))
    v, n_r, w = sc.plant.v, sc.ctrl.n_r, sc.ctrl.w
    # main sends the increments alpha, beta and gamma, prelim sends u; the
    # controller sends the sensor nothing, and only the actuator decrypts
    per = sc.plant.n + sc.ctrl.n_x + w if scheme == "main" else w
    assert all(r.msgs_ctrl_to_act == per for r in tr.records)
    assert tr.summary()["msgs_ctrl_to_act_per_step"] == per
    assert tr.msgs_sensor_to_ctrl == 10 * v
    assert tr.msgs_provider_to_ctrl == 10 * n_r
    assert tr.msgs_ctrl_to_sensor == 0
    assert tr.actuator_enc_ops == 0
    assert tr.actuator_dec_ops == tr.dec_ops == 10 * per
    # the bootstrap encrypts main's emission (xo, xe, S re) and its state
    # beta, or prelim's state x; each step, the sensor's and the provider's
    # vectors
    n_x = sc.ctrl.n_x
    boot = sc.plant.n + 2 * n_x + w if scheme == "main" else n_x
    assert tr.enc_ops == boot + 10 * (v + n_r)
    assert (tr.enc_ops, tr.dec_ops) == (tr.records[-1].enc_ops, tr.records[-1].dec_ops)


@pytest.mark.parametrize("scheme", ["main", "prelim"])
def test_a_run_needs_no_staged_op(request, monkeypatch, scheme):
    """Every linear operation of a run is a compiled kernel: with the staged
    `he` ops and the reference rings' `matvec` and `add` raising, a lattice
    run completes and restores every input."""
    sc, plan, run = route(request, scheme)

    def refuse(*args):
        raise AssertionError("a run called a staged op")

    for owner, name in ((he, "plain_matmul"), (he, "add"), (IntRing, "matvec"),
                        (IntRing, "add"), (CipherRing, "matvec"), (CipherRing, "add")):
        monkeypatch.setattr(owner, name, refuse)
    cfg = RunConfig(plant=sc.plant, ctrl=sc.ctrl, reference=sc.reference, x_p0=sc.x_p0,
                    horizon=10, params=lattice_params(plan, 10), seed=1)
    tr = run(plan, cfg)
    assert tr.recovery_failures == 0 and tr.oracle_mismatches == 0


class TestTrace:
    @pytest.mark.parametrize("u_a, u_true", [
        ((), ()), ((1.0, -2.5), (0.5, 1.0)), ((0.0, 0.0), (math.nan, 1.0)),
        ((0.0, 0.0), (1.0, math.nan)), ((math.inf, 0.0), (math.inf, 3.0)),
        ((1e308, 0.0), (-1e308, 0.0))])
    def test_diff_inf_is_numpys(self, u_a, u_true):
        """diff_inf reads as numpy's max |u_a - u_true| did: NaN wherever a
        difference is NaN, 0 for no inputs."""
        with np.errstate(over="ignore", invalid="ignore"):
            want = float(np.max(np.abs(np.array(u_a) - u_true))) if u_a else 0.0
        assert repr(_diff_inf(u_a, u_true)) == repr(want)

    def test_csv_schema(self, tanks, tanks_plan, tmp_path):
        cfg = RunConfig(plant=tanks.plant, ctrl=tanks.ctrl,
                        reference=tanks.reference, x_p0=tanks.x_p0,
                        horizon=5, params=he.SchemeParams.mock(tanks_plan.q),
                        seed=0)
        tr = run_closed_loop_prelim(tanks_plan, cfg)
        path = tmp_path / "trace.csv"
        tr.to_csv(str(path))
        header = path.read_text().splitlines()[0].split(",")
        w = tanks.ctrl.w
        # the public columns (README "Trace output"), which `StepRecord` declares
        public = ["diff_inf", "log2_alpha", "log2_beta", "log2_gamma", "log2_sensor_gap",
                  "saturated", "msgs_ctrl_to_act", "enc_ops", "dec_ops"]
        assert CSV_COLUMNS_SUFFIX == public
        assert header == (["t"] + [f"u_true_{i}" for i in range(w)]
                          + [f"u_a_{i}" for i in range(w)] + public)
        assert len(path.read_text().splitlines()) == 6

    def test_exact_plant_state(self, batch):
        # delivered input u_a = scale l0 U = 1/3
        sim = PlantSim(batch.plant, batch.x_p0, l0=1, omega=Fraction(1, 460000),
                       scale=Fraction(1, 3))
        sim.step([1])
        expect = [
            sum(a * x for a, x in zip(row, [Fraction(1)] * 4))
            + row_b[0] * Fraction(1, 3)
            for row, row_b in zip(batch.plant.A.to_lists(), batch.plant.B.to_lists())
        ]
        assert sim.x == expect


def _fraction_plant(plant, x_p0, inputs):
    """The plain recurrence x <- A x + B u_a in Fractions, state after each step."""
    A, B = plant.A.to_lists(), plant.B.to_lists()
    x, out = [Fraction(v) for v in x_p0], []
    for u in inputs:
        x = [sum(a * v for a, v in zip(arow, x)) + sum(b * v for b, v in zip(brow, u))
             for arow, brow in zip(A, B)]
        out.append(x)
    return out


class TestZoomedPlant:
    """`PlantSim` in zoomed integer coordinates equals the unzoomed Fraction
    recurrence on the inputs a real run delivers."""

    def test_main_route(self, batch, sound_plan):
        _, rec = recorded(run_closed_loop_main, sound_plan, main_cfg(batch, sound_plan, 50))
        sim = PlantSim(batch.plant, batch.x_p0, sound_plan.l0, sound_plan.omega,
                       sound_plan.s2)
        D0 = sim.D
        want = _fraction_plant(batch.plant, batch.x_p0,
                               [det["u_a_exact"] for det in rec.rows])
        for det, x in zip(rec.rows, want):
            sim.step(det["u_tilde"])
            assert sim.x == x
            assert sim.D == D0  # A/omega and s2 B/omega are integral: no growth
        assert rec.plant.x == sim.x

    def test_prelim_route(self, tanks, tanks_plan):
        cfg = RunConfig(plant=tanks.plant, ctrl=tanks.ctrl,
                        reference=tanks.reference, x_p0=tanks.x_p0,
                        horizon=50, params=he.SchemeParams.mock(tanks_plan.q),
                        seed=0)
        _, rec = recorded(run_closed_loop_prelim, tanks_plan, cfg)
        sim = PlantSim(tanks.plant, tanks.x_p0, tanks_plan.l0, tanks_plan.omega,
                       tanks_plan.s1 * tanks_plan.s2)
        want = _fraction_plant(tanks.plant, tanks.x_p0,
                               [det["u_a_exact"] for det in rec.rows])
        for det, x in zip(rec.rows, want):
            sim.step(det["u_tilde_recovered"])
            assert sim.x == x
        assert rec.plant.x == sim.x

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_error_coordinates_are_the_x_coordinates(self, batch, sound_plan, tanks,
                                                     tanks_main_plan, scalar_main, data):
        """The main route's plant, kept as its gap from the reconstruction,
        against the same plant in X coordinates (`PlantSim` without an
        observer, as the prelim route runs it) on the reconstruction's u,
        over 12 steps of random increments: at every step `gap` on the
        lifted alpha is y/l(t) - s1 (C/s1) xo as `output` gives it, and
        after every step the exact states are equal.  alpha is
        any vector, as a failed lift makes it, and one in four is further
        off by a multiple of 2^41; x_p0 has denominators, so D > 1."""
        sc, plan = data.draw(st.sampled_from(
            [(batch, sound_plan), (tanks, tanks_main_plan), *scalar_main]))
        d = plan.dims
        entry = st.integers(-2**30, 2**30)

        def vector(k):
            return data.draw(st.lists(entry, min_size=k, max_size=k))

        x_p0 = data.draw(st.lists(st.builds(Fraction, st.integers(-50, 50),
                                            st.sampled_from([1, 2, 3, 7])),
                                  min_size=d["n"], max_size=d["n"]))
        rebuilt = MainIntegerRecurrence(plan)
        plant = PlantSim(sc.plant, x_p0, plan.l0, plan.omega, plan.s2, rebuilt)
        reference = PlantSim(sc.plant, x_p0, plan.l0, plan.omega, plan.s2)
        C = plan.certificates["C/s1"].int_rows()
        s1n, s1d = plan.s1.numerator, plan.s1.denominator
        assert plant.x == reference.x
        for _ in range(12):
            alpha = vector(d["n"])
            if data.draw(st.integers(0, 3)) == 0:
                alpha[data.draw(st.integers(0, d["n"] - 1))] += data.draw(entry) * 2**41
            U = rebuilt.rebuild(alpha, vector(d["n_x"]), vector(d["w"]))
            G, E = plant.gap(alpha)
            Y, E_ref = reference.output()
            # y/l(t) - s1 (C/s1) xo = (s1d Y - s1n E (C/s1) xo)/(s1d E)
            assert E == E_ref
            assert [s1d * g for g in G] == [s1d * y - s1n * E * c for y, c in
                                            zip(Y, IntRing.matvec(C, rebuilt.xo))]
            plant.step(U)
            reference.step(U)
            assert plant.x == reference.x

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_compiled_plant_is_the_fraction_recurrence(self, data):
        """On random plants of 1-3 states, omega, l0, input scales and x_p0
        with denominators, and 20 steps of random integer U, the compiled
        plant's state is x <- A x + B scale l(t) U and its output C x/l(t),
        both in Fractions.  The denominators of A/omega, scale B/omega and
        x_p0/l0 scale either product onto a denominator that may grow."""
        n, w, v = (data.draw(st.integers(1, k)) for k in (3, 2, 2))
        dens = st.sampled_from([1, 2, 3, 5, 10])
        rational = st.builds(Fraction, st.integers(-20, 20), dens)
        positive = st.builds(Fraction, st.integers(1, 20), dens)

        def entries(k):
            return data.draw(st.lists(rational, min_size=k, max_size=k))

        A, B, C = (RationalMatrix(r, c, entries(r * c)) for r, c in ((n, n), (n, w), (v, n)))
        omega, l0, scale = (data.draw(positive) for _ in range(3))
        x = entries(n)
        sim = PlantSim(PlantModel(A, B, C), x, l0, omega, scale)
        A, B, C = (M.to_lists() for M in (A, B, C))
        l = l0
        for _ in range(20):
            Y, E = sim.output()
            assert [Fraction(y, E) for y in Y] == [sum(c * xi for c, xi in zip(row, x)) / l
                                                   for row in C]
            U = data.draw(st.lists(st.integers(-2**20, 2**20), min_size=w, max_size=w))
            sim.step(U)
            x = [sum(a * xi for a, xi in zip(arow, x))
                 + scale * l * sum(b * u for b, u in zip(brow, U)) for arow, brow in zip(A, B)]
            l *= omega
            assert sim.x == x


class TestDeterminismAndSchedules:
    def test_mock_runs_bit_deterministic(self, batch, sound_plan):
        a = run_closed_loop_main(sound_plan, main_cfg(batch, sound_plan, 30))
        b = run_closed_loop_main(sound_plan, main_cfg(batch, sound_plan, 30))
        assert [(r.u_a, r.log2_alpha, r.saturated) for r in a.records] == \
               [(r.u_a, r.log2_alpha, r.saturated) for r in b.records]

    @pytest.mark.parametrize("scheme,q", [("main", None), ("prelim", None), ("main", 2**41)],
                             ids=["batch-main", "tanks-prelim", "batch-main-q2199023255552"])
    def test_the_integer_zoom_rounds_as_the_exact_input(self, request, scheme, q):
        """The driver keeps scale l(t) as an unreduced pair of integers.  Each
        record's u_a is the exact input scale l0 omega^t U of the actuator's
        U, correctly rounded (an infinity past the float range); also at
        q = 2^41, where the lifts fail from t = 2 on."""
        sc, plan, run = route(request, scheme)
        if q is not None:
            plan = replace(plan, q=q)
        tr, rec = recorded(run, plan, main_cfg(sc, plan, 200))
        for r, det in zip(tr.records, rec.rows, strict=True):
            assert r.u_a == tuple(_ratio_float(u.numerator, u.denominator)
                                  for u in det["u_a_exact"])
        assert tr.recovery_failures == (198 if q else 0)

    @pytest.mark.parametrize("scheme", ["main", "prelim"])
    def test_a_step_builds_no_fraction(self, request, monkeypatch, scheme):
        """A run builds its Fractions in set-up only: as many at H = 5 as at
        H = 15.  A first run keeps what its set-up
        builds once per plan (`kernel.kept`), so both counted runs follow
        one."""
        sc, plan, run = route(request, scheme)
        run(plan, main_cfg(sc, plan, 1))
        built, new = [0], Fraction.__new__

        def counting(cls, *args, **kwargs):
            built[0] += 1
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        counts = []
        for horizon in (5, 15):
            built[0] = 0
            run(plan, main_cfg(sc, plan, horizon))
            counts.append(built[0])
        assert counts[0] == counts[1]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-2**1100, 2**1100), st.integers(1, 2**1100), st.integers(1, 2**200))
    @example(2**1030, 3, 7)
    @example(-(2**1030), 3, 2**150)
    @example(2**1024 - 2**970, 1, 5)  # the largest float's rounding boundary
    def test_an_unreduced_ratio_rounds_as_the_reduced_one(self, n, d, k):
        """`_ratio_float` depends on the value only: scaling n and d by the
        same factor gives the same float, or the same signed infinity."""
        g = math.gcd(n, d)
        assert repr(_ratio_float(n * k, d * k)) == repr(_ratio_float(n // g, d // g))


class TestRandomSystems:
    def test_small_random_main_runs(self):
        rng = random.Random(4242)
        for _ in range(3):
            plant, ctrl, design, reference, x_p0 = random_main_system(rng)
            plan = plan_main(plant, ctrl, MainPlanOptions(
                L=design.L, L_exact=design.L, reference=reference))
            from encloop.fixtures import Scenario
            sc = Scenario("rand", plant, ctrl, reference, x_p0)
            tr = run_closed_loop_main(plan, main_cfg(sc, plan, 20))
            assert tr.recovery_failures == 0
            assert tr.oracle_mismatches == 0
            assert tr.saturation_count == 0


class TestIdealLoop:
    """`IdealLoop`, one closed-loop map on (x_p, x), against the plant and
    controller equations in numpy, seven products a step
    (`floatref.SevenProductLoop`): u within 1e-9 max(1, |u|) at every step,
    and the plant state alike at the end."""

    @staticmethod
    def _check(plant, ctrl, x_p0, reference, horizon):
        ours = IdealLoop(plant, ctrl, x_p0, reference)
        theirs = SevenProductLoop(plant, ctrl, x_p0, reference)
        for _ in range(horizon):
            u, want = ours.step(), theirs.step()
            assert type(u) is tuple and len(u) == len(want)
            assert all(abs(a - b) <= 1e-9 * max(1.0, abs(b)) for a, b in zip(u, want))
        x_p = ours.z[:plant.n]
        assert type(x_p) is tuple and len(x_p) == plant.n
        assert all(abs(a - b) <= 1e-9 * max(1.0, abs(b)) for a, b in zip(x_p, theirs.x_p))

    @pytest.mark.parametrize("fixture,horizon", [("batch", 600), ("tanks", 200)])
    def test_bundled(self, request, fixture, horizon):
        sc = request.getfixturevalue(fixture)
        self._check(sc.plant, sc.ctrl, sc.x_p0, sc.reference, horizon)

    def test_random_plans(self):
        rng = random.Random(2033)
        for _ in range(8):
            plant, ctrl, _, reference, x_p0 = random_main_system(rng)
            self._check(plant, ctrl, x_p0, reference, 200)
            plant, ctrl, reference, x_p0 = random_prelim_system(rng)
            self._check(plant, ctrl, x_p0, reference, 200)

    def test_a_controller_without_a_state_or_a_reference(self):
        """u = J y: F, G, R and H, S of no rows or no columns."""
        plant = PlantModel(A=RationalMatrix.from_rows([["0.2"]]),
                           B=RationalMatrix.from_rows([[1]]),
                           C=RationalMatrix.from_rows([[1]]))
        ctrl = ControllerModel(F=RationalMatrix(0, 0, []), G=RationalMatrix(0, 1, []),
                               R_ref=RationalMatrix(0, 0, []), H=RationalMatrix(1, 0, []),
                               J=RationalMatrix.from_rows([["-0.2"]]),
                               S=RationalMatrix(1, 0, []), x0=RationalMatrix(0, 1, []))
        self._check(plant, ctrl, (Fraction(1),), RationalMatrix(0, 1, []), 50)
        assert IdealLoop(plant, ctrl, (Fraction(1),), RationalMatrix(0, 1, [])).step() == (
            -0.2,)


def _golden_digest(trace, rows) -> str:
    """SHA-256 over the exact parts of a run: the per-step records of its
    trace (less the float reference loop's u_true and diff_inf, whose last
    bits follow the order of its float operations), the parties' values
    each step (`rows`, as `recorded` gives them), and the summary's integer
    counters."""
    records = [(r.t, r.u_a, r.log2_alpha, r.log2_beta, r.log2_gamma,
                r.log2_sensor_gap, r.saturated, r.msgs_ctrl_to_act, r.enc_ops,
                r.dec_ops, r.recovery_failure) for r in trace.records]
    counters = sorted((k, v) for k, v in trace.summary().items()
                      if isinstance(v, int) and not isinstance(v, bool))
    h = hashlib.sha256()
    for part in (records, rows, counters):
        h.update(repr(part).encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def scalar(never_ending):
    """The scalar plant and controller of `never_ending` from x_p0 = 1/3, a
    zoomed plant state over the denominator 3."""
    sc, _ = never_ending
    return replace(sc, name="scalar", x_p0=(Fraction(1, 3),))


@pytest.fixture(scope="module")
def scalar_main_plan(scalar):
    """Main route, deadbeat observer: A/omega and s2 B/omega are integers,
    so the plant denominator stays 3 and every step scales B U by 3."""
    L = design_deadbeat_observer(scalar.plant.A, scalar.plant.C).L
    return plan_main(scalar.plant, scalar.ctrl,
                     MainPlanOptions(L=L, L_exact=L, reference=scalar.reference))


@pytest.fixture(scope="module")
def scalar_prelim_plan(never_ending):
    """Prelim route: A/omega and s1 s2 B/omega over 5 and 25, so the plant
    denominator grows by a lcm every step."""
    return never_ending[1]


PLAN_FIXTURES = {("batch", "main"): "sound_plan", ("tanks", "main"): "tanks_main_plan",
                ("tanks", "prelim"): "tanks_plan", ("scalar", "main"): "scalar_main_plan",
                ("scalar", "prelim"): "scalar_prelim_plan"}
GOLDEN = [
    # (fixture, scheme, backend, horizon, seed, q or None for the plan's, digest)
    ("batch", "main", "mock", 120, 0, None,
     "9005fa5b61307c330620b0286490f0ba02a26d4232ea9ad0ecfa05070eb8123e"),
    ("batch", "main", "lattice", 40, 3, None,
     "c18536c7826de6384b5368b82f1221b711ea06943000831814fd877cdc6b7aac"),
    ("tanks", "prelim", "mock", 200, 0, None,
     "44358ef0efadd4316704ad198a0e64de2ebfcbb529afff66195df2b34a73dbcb"),
    ("tanks", "prelim", "lattice", 60, 3, None,
     "11f34c47d5615afe373e402e256f9ecc2e8998069ce3fcd7928f79e8e087a081"),
    ("tanks", "main", "mock", 200, 0, None,
     "749d51327f2a2617e92c0132c3ffcb7dd4b8bebf651ee5d4043ebc068309420d"),
    ("tanks", "main", "lattice", 60, 3, None,
     "3426e73bb7deb19cfb2a8355779b1692d2b02d35fd8bdfdd3bb6531ca0a1c511"),
    # fault injection: the lifts fail from t = 2 on, 198 recovery failures
    ("batch", "main", "mock", 200, 0, 2**41,
     "ea2f718ae773a5d85f36baf2990a89d3606c2c5f06ca9028d8d64d5fa3738b23"),
    # the plant's denominators: B U scaled by 3 every step (main), and a
    # denominator that grows by a lcm every step (prelim)
    ("scalar", "main", "mock", 200, 0, None,
     "baf17010135e54de8facf439fed8894b96e201b38a94a0678ab12365610dd102"),
    ("scalar", "prelim", "mock", 200, 0, None,
     "cc4d64af69c906464453d10abd7a567ec61d5cb8555766ed0cb975acf61e4d98"),
]


@pytest.mark.parametrize("fixture,scheme,backend,horizon,seed,q,digest", GOLDEN,
                         ids=[f"{g[0]}-{g[1]}-{g[2]}" + (f"-q{g[5]}" if g[5] else "")
                              for g in GOLDEN])
def test_golden_trace(request, fixture, scheme, backend, horizon, seed, q, digest):
    """Exact closed-loop traces stay bit-identical (main route with the exact
    observer on both fixtures, prelim route; both backends, sized as
    `encloop simulate` does; and a main run at a modulus far below the
    plan's)."""
    sc = request.getfixturevalue(fixture)
    plan = request.getfixturevalue(PLAN_FIXTURES[fixture, scheme])
    if q is not None:
        plan = replace(plan, q=q)
    cfg = RunConfig(plant=sc.plant, ctrl=sc.ctrl, reference=sc.reference,
                    x_p0=sc.x_p0, horizon=horizon, seed=seed,
                    params=cli._backend_params(backend, plan, sc, horizon))
    run = run_closed_loop_main if scheme == "main" else run_closed_loop_prelim
    trace, rec = recorded(run, plan, cfg)
    assert _golden_digest(trace, rec.rows) == digest


WORKLOADS = json.loads((Path(__file__).parents[1] / "bench" / "workloads.json")
                       .read_text())["workloads"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_bench_workload_digests(request, name):
    """Each benchmark workload (`bench/workloads.json`) restores the inputs
    its digest pins, which the benchmark checks every sample against: the
    SHA-256 of repr([(t, u_a), ...]), as `bench/sample.py` computes it, of
    a run of the plan the sample makes (the exact deadbeat observer on the
    main route), sized as `encloop simulate` sizes it
    (`cli._backend_params`)."""
    wl = WORKLOADS[name]
    fixture = {"batch-reactor": "batch", "coupled-tanks": "tanks"}[wl["fixture"]]
    sc = request.getfixturevalue(fixture)
    plan = request.getfixturevalue(PLAN_FIXTURES[fixture, wl["scheme"]])
    cfg = RunConfig(plant=sc.plant, ctrl=sc.ctrl, reference=sc.reference, x_p0=sc.x_p0,
                    horizon=wl["horizon"], seed=0,
                    params=cli._backend_params(wl["backend"], plan, sc, wl["horizon"]))
    run = run_closed_loop_main if wl["scheme"] == "main" else run_closed_loop_prelim
    records = run(plan, cfg).records
    assert hashlib.sha256(repr([(r.t, r.u_a) for r in records]).encode()).hexdigest() == (
        wl["digest"])


# (plan fixture, horizons, the pad `lattice_params` sizes at each)
PADS = [("sound_plan", (1, 2, 3, 20, 40, 200), (10, 38, 48, 48, 48, 48)),
        ("tanks_plan", (1, 2, 3, 20, 200), (16, 16, 16, 16, 16)),
        ("tanks_main_plan", (1, 2, 3, 100), (10, 20, 22, 22))]


@pytest.mark.parametrize("plan,horizons,pads", PADS,
                         ids=["batch-reactor-main", "coupled-tanks-prelim",
                              "coupled-tanks-main"])
def test_lattice_pads_are_pinned(request, plan, horizons, pads):
    """The pads of the bundled plans: an edit of the noise table that moves
    one fails here.  On the main route the bootstrap's fresh emission alone
    sets the pad at H = 1, and from H = 3 on the pad is the same for every
    horizon; the prelim steps' emissions are bounded alike at every step."""
    plan = request.getfixturevalue(plan)
    assert tuple(lattice_params(plan, h).lattice.pad_bits for h in horizons) == pads


@pytest.mark.parametrize("plan,horizons,pads", PADS,
                         ids=["batch-reactor-main", "coupled-tanks-prelim",
                              "coupled-tanks-main"])
def test_pads_of_every_horizon_share_one_noise_program(request, monkeypatch,
                                                       plan, horizons, pads):
    """`lattice_params` of one plan at every pinned horizon builds the plan's
    noise table once, and compiles its one integer kernel, the recurrence's
    `step`, once."""
    plan = request.getfixturevalue(plan)
    calls, compile_ = [0], compile

    def counting_compile(*args):
        calls[0] += 1
        return compile_(*args)

    # `kernel.Source.define` compiles through the name `compile`
    monkeypatch.setattr(kernel, "compile", counting_compile, raising=False)
    assert tuple(lattice_params(plan, h).lattice.pad_bits for h in horizons) == pads
    assert calls[0] == 1


def test_large_pad_lattice_run_restores_the_mock_inputs(batch, sound_plan, tmp_path):
    """The batch reactor on lattice at H=40 with a 4694-bit pad, given by
    hand: no bundled run sizes so wide a pad any more, and its wide packed
    slots write the mock run's trace CSV byte for byte."""
    csvs = set()
    for backend in ("mock", "lattice"):
        cfg = main_cfg(batch, sound_plan, 40, seed=7)
        if backend == "lattice":
            cfg = replace(cfg, params=he.SchemeParams(
                q=sound_plan.q, backend="lattice", lattice=he.LatticeParams(4694)))
        tr = run_closed_loop_main(sound_plan, cfg)
        assert tr.recovery_failures == 0 and tr.oracle_mismatches == 0
        path = tmp_path / f"{backend}.csv"
        tr.to_csv(str(path))
        csvs.add(path.read_bytes())
    assert len(csvs) == 1


@pytest.mark.parametrize("scheme", ["main", "prelim"])
def test_every_seed_and_backend_report_the_same(request, tmp_path, scheme):
    """A seed picks only the keys and the encryption randomness, and the
    actuator restores the input exactly from decrypted plaintexts: mock seed
    0, lattice seed 0 and lattice seed 1 give one trace digest and one CSV."""
    sc, plan, run = route(request, scheme)
    reports = set()
    for backend, seed in (("mock", 0), ("lattice", 0), ("lattice", 1)):
        cfg = RunConfig(plant=sc.plant, ctrl=sc.ctrl, reference=sc.reference,
                        x_p0=sc.x_p0, horizon=20, seed=seed,
                        params=cli._backend_params(backend, plan, sc, 20))
        trace, rec = recorded(run, plan, cfg)
        path = tmp_path / f"{backend}-{seed}.csv"
        trace.to_csv(str(path))
        reports.add((_golden_digest(trace, rec.rows), path.read_bytes()))
    assert len(reports) == 1
