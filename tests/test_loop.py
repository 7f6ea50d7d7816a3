import gc
import hashlib
import math
import random
import weakref
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from encloop import cli, he, kernel
from encloop.exactmat import RationalMatrix
from encloop.fixtures import Scenario
from encloop.loop import (
    CSV_COLUMNS_SUFFIX,
    MAIN_CERTIFICATES,
    CipherRing,
    IntRing,
    MainEncController,
    MainIntegerShadow,
    MainRecurrence,
    NoiseRing,
    PlantSim,
    PrelimEncController,
    PrelimIntegerShadow,
    PrelimRecurrence,
    RunConfig,
    centered_mod_recover,
    lattice_params,
    noise_peak,
    run_closed_loop_main,
    run_closed_loop_prelim,
    _compile,
    _diff_inf,
    _kernels,
    _vectors,
    _scaled_integer_state,
)
from encloop.planner import MainPlanOptions, plan_main

from conftest import random_main_system


def rmat(rows):
    return RationalMatrix.from_rows(rows)


def main_cfg(sc, plan, horizon, *, backend="mock", seed=0, detail=False, q=None):
    q = q if q is not None else plan.q
    if backend == "mock":
        params = he.SchemeParams.mock(q)
    else:
        params = lattice_params(plan, horizon)
    return RunConfig(plant=sc.plant, ctrl=sc.ctrl, reference=sc.reference,
                     x_p0=sc.x_p0, horizon=horizon, params=params, seed=seed,
                     collect_detail=detail)


def route(request, scheme):
    """(scenario, plan, runner): the batch reactor on the main route, or the
    coupled tanks on the prelim route."""
    if scheme == "main":
        return (request.getfixturevalue("batch"),
                request.getfixturevalue("sound_plan"), run_closed_loop_main)
    return (request.getfixturevalue("tanks"),
            request.getfixturevalue("tanks_plan"), run_closed_loop_prelim)


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

    def test_batch_sound_run_exact(self, batch, sound_plan):
        tr = run_closed_loop_main(sound_plan, main_cfg(batch, sound_plan, 50,
                                                       detail=True))
        assert tr.recovery_failures == 0
        assert tr.saturation_count == 0
        assert tr.oracle_mismatches == 0
        # restored inputs equal the converted controller's outputs exactly:
        # recomputed from the exact integer shadow values in the detail log
        for det in tr.detail:
            u_exact = [sound_plan.s2 * det["l"] * x for x in det["u_tilde"]]
            assert u_exact == det["u_a_exact"]

    def test_fault_injection_small_modulus(self, batch, sound_plan):
        bad = replace(sound_plan, q=2**41)
        tr = run_closed_loop_main(bad, main_cfg(batch, bad, 50))
        assert tr.recovery_failures > 0

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
        tr = run_closed_loop_main(plan, main_cfg(sc, plan, 150))
        assert tr.recovery_failures == 0
        assert max(abs(x) for x in tr.final_plant_state) < 1e-3
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
        cfg = main_cfg(sc, plan, 40, detail=True)
        tr = run_closed_loop_main(plan, cfg)
        assert tr.recovery_failures == 0 and tr.saturation_count == 0
        bound = Fraction(1, 2 * plan.omega)
        for det in tr.detail[1:]:
            l = det["l"]
            for r_i, re_i in zip(ref.data, det["re_scaled"]):
                e_r = r_i / l - re_i
                assert abs(e_r) <= bound

    def test_step_identities_on_batch(self, batch, sound_plan):
        """Transmitted increments equal their closed forms: alpha from the
        quantized innovation, beta/gamma from scaled reference errors."""
        tr = run_closed_loop_main(sound_plan, main_cfg(batch, sound_plan, 30,
                                                       detail=True))
        assert tr.recovery_failures == 0
        certs = sound_plan.certificates
        L_int = [list(certs["L/omega"].scaled_entries[i * 2:(i + 1) * 2])
                 for i in range(4)]
        R_int = [list(certs["R/omega"].scaled_entries[i * 4:(i + 1) * 4])
                 for i in range(4)]
        S_int = [list(certs["S/s2"].scaled_entries[0:4])]
        inv_w = 1 / sound_plan.omega
        ref = list(batch.reference.data)
        det = tr.detail
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
        at every step, computed from consecutive states of an integer shadow
        replayed on the run's quantized inputs; mock and lattice runs agree.
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
            tr = run_closed_loop_main(plan, main_cfg(sc, plan, H, backend=backend, detail=True))
            assert tr.recovery_failures == 0 and tr.oracle_mismatches == 0
            details.append(tr.detail)
        assert details[0] == details[1]
        det = details[0]

        d = plan.dims
        states = [([0] * d["n"], [0] * d["n_x"], [0] * d["w"])] * 2  # t = -2, -1
        shadow = MainIntegerShadow(plan)
        shadow.bootstrap(_scaled_integer_state(sc.ctrl.x0.data, plan.l0))
        states.append((shadow.xo, shadow.xe, shadow.u))
        for step in det[:-1]:
            shadow.step(step["innovation"], step["ref_increment"])
            states.append((shadow.xo, shadow.xe, shadow.u))

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
        emitted entry (29 on the batch reactor).  The integer shadow's step
        makes 13 matvecs (y_o's included), the actuator's `rebuild` 8."""
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
        entries = 2 * d["n"] + 3 * d["n_x"] + d["n_r"] + 3 * d["w"] + d["v"]
        assert entries == 29
        x_e0 = _scaled_integer_state(batch.ctrl.x0.data, sound_plan.l0)
        params = lattice_params(sound_plan, 4)
        ring = CipherRing(he.keygen(params, seed=0)[0], q, random.Random(0))
        controller = MainEncController(ring, sound_plan)
        controller.bootstrap(x_e0)
        for _ in range(3):
            counts.update(plain_matmul=0, add=0, reduce=0)
            controller.step(ring.fresh([1] * d["v"]), ring.fresh([1] * d["n_r"]))
            assert counts["plain_matmul"] == counts["add"] == 0
            assert 0 < counts["reduce"] <= entries

        class CountingRing(IntRing):
            matvecs = 0

            def matvec(self, M, v):
                self.matvecs += 1
                return IntRing.matvec(M, v)

        actuator = MainRecurrence(CountingRing(), sound_plan)
        shadow = MainRecurrence(CountingRing(), sound_plan)
        actuator.bootstrap([0] * d["n_x"])
        shadow.bootstrap(x_e0)
        for _ in range(3):
            actuator.ring.matvecs = shadow.ring.matvecs = 0
            _, *increments = shadow.step([1] * d["v"], [1] * d["n_r"])
            actuator.rebuild(*increments)
            assert (actuator.ring.matvecs, shadow.ring.matvecs) == (8, 13)

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
        tr = run_closed_loop_main(sound_plan, main_cfg(sc, sound_plan, 12, detail=True))
        assert tr.saturation_count == 0
        assert tr.recovery_failures == 0 and tr.oracle_mismatches == 0
        largest = max(abs(x) for det in tr.detail
                      for x in (*det["alpha"], *det["beta"], *det["gamma"]))
        assert 2 * largest < sound_plan.q


class TestPrelimLoop:
    def test_tanks_run_exact(self, tanks, tanks_plan):
        cfg = RunConfig(plant=tanks.plant, ctrl=tanks.ctrl,
                        reference=tanks.reference, x_p0=tanks.x_p0,
                        horizon=200, params=he.SchemeParams.mock(tanks_plan.q),
                        seed=0, collect_detail=True)
        tr = run_closed_loop_prelim(tanks_plan, cfg)
        assert tr.recovery_failures == 0 and tr.oracle_mismatches == 0
        for det in tr.detail:
            assert det["u_tilde"] == det["u_tilde_recovered"]
        # restored input matches the quantized-loop truth exactly
        for det in tr.detail:
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
    """M v as `kernel.Source.matvec` records and compiles it, evaluated at v."""
    source = kernel.Source()
    names = source.vector(len(v))
    return source.function(source.matvec(M, names))(v)


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
        assert source.function(out)(v) == IntRing.matvec(M, v)

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
                source.function([source.linear(terms)])

    @staticmethod
    def _random_inputs(rng, dims):
        return [[rng.randint(-2**80, 2**80) for _ in range(n)] for n in dims]

    def _check_main(self, plan, x_e0):
        """`MainIntegerShadow.step` and the compiled `rebuild` against
        `MainRecurrence` on `IntRing`, over 20 steps of random inputs; the
        step emits y_o = (C/s1) xo of the new xo first."""
        d, rng = plan.dims, random.Random(20)
        C = plan.certificates["C/s1"].int_rows()
        shadow, reference = MainIntegerShadow(plan), MainRecurrence(IntRing(), plan)
        actuator, actuator_ref = (MainRecurrence(IntRing(), plan) for _ in range(2))
        for rec, x0 in ((shadow, x_e0), (reference, x_e0),
                        (actuator, [0] * d["n_x"]), (actuator_ref, [0] * d["n_x"])):
            rec.bootstrap(x0)
        rebuild = None
        for _ in range(20):
            inputs = self._random_inputs(rng, (d["v"], d["n_r"]))
            emitted = shadow.step(*inputs)
            assert emitted == reference.step(*inputs)
            assert self._states(shadow) == self._states(reference)
            assert emitted[0] == IntRing.matvec(C, shadow.xo)
            incs = self._random_inputs(rng, (d["n"], d["n_x"], d["w"]))
            rebuild = rebuild or _compile(actuator, MainRecurrence.rebuild, *incs)
            assert rebuild(actuator, *incs) == actuator_ref.rebuild(*incs)
            assert self._states(actuator) == self._states(actuator_ref)

    @staticmethod
    def _states(rec):
        return rec.xo, rec.xe, rec.re, rec.u, rec.bx, rec.bu

    def test_main_route_bundled_plan(self, batch, sound_plan):
        self._check_main(sound_plan, _scaled_integer_state(batch.ctrl.x0.data, sound_plan.l0))

    def test_main_route_random_system(self):
        plant, ctrl, design, reference, _ = random_main_system(random.Random(7))
        plan = plan_main(plant, ctrl, MainPlanOptions(L=design.L, L_exact=design.L,
                                                      reference=reference))
        self._check_main(plan, _scaled_integer_state(ctrl.x0.data, plan.l0))

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


class TestCompiledControllerStep:
    """The encrypted controllers' compiled steps against the staged `he` ops:
    the recurrence interpreted on `CipherRing`, kept here as the
    reference."""

    @pytest.mark.parametrize("backend", ["mock", "lattice", "short-pad"])
    @pytest.mark.parametrize("horizon", [3, 30])
    @pytest.mark.parametrize("odd", [False, True], ids=["plan-q", "q+1"])
    @pytest.mark.parametrize("scheme", ["main", "prelim"])
    def test_compiled_step_is_the_staged_step(self, request, scheme, odd, horizon, backend):
        """Equal payloads and noise bounds of every state and emitted
        ciphertext, at the plan's q and at q + 1 (odd, so Q is no power of
        two), on both backends; with a pad 2 bits short of the horizon's,
        `NoiseOverflowError` at the same step."""
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
        pk, _ = he.keygen(params, seed=horizon)
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

        def outcome(rec, *args):
            """The emitted and the new state ciphertexts of a bootstrap (no
            arguments) or a step, or "overflow"."""
            try:
                emitted = rec.step(*args) if args else rec.bootstrap(x0)
            except he.NoiseOverflowError:
                return "overflow"
            cts = [*_vectors(emitted or ()), *(getattr(rec, k) for k in rec.state)]
            return [(ct.dim, ct.payload, ct.noise_bound) for ct in cts]

        overflow = None
        for t in range(horizon):
            args = [inputs.fresh([rng.randrange(plan.q) for _ in range(n)])
                    for n in dims] if t else []
            got = outcome(compiled, *args)
            assert got == outcome(staged, *args)
            if got == "overflow":
                overflow = t
                break
        # only the short pad overflows, and within 30 steps it does
        assert overflow is None or backend == "short-pad"
        assert overflow is not None or (backend, horizon) != ("short-pad", 30)

    @pytest.mark.parametrize("backend", ["mock", "lattice"])
    @pytest.mark.parametrize("case,scheme", [
        ("wide", "prelim"), ("wrong-q", "main"), ("wrong-q", "prelim"),
        ("wrong-length", "main"), ("wrong-length", "prelim"),
        ("wrong-length-later", "main"), ("wrong-length-later", "prelim"),
        ("wrong-length-rerun", "main"), ("wrong-length-rerun", "prelim")])
    def test_row_wider_than_a_slot_is_refused_as_staged(self, request, case, scheme, backend):
        """A product the staged `he` ops refuse with `DimensionMismatchError`
        is refused by the compiled step too: over more columns than a packed
        slot holds (2^GUARD, "wide"; on lattice only, even with coefficients
        small enough to fit, and mock takes it), by a plaintext prepared
        under another q than the keys' ("wrong-q"), and with an input one
        entry too long: at the first step ("wrong-length"), at the second
        ("wrong-length-later"), and at the first step of a second controller
        of the plan, whose kernel the first one's step built
        ("wrong-length-rerun")."""
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
        # the bootstrapped state, encrypted from the integer twin: the main
        # bootstrap multiplies, and would refuse a wrong q before any step
        twin = (MainRecurrence if scheme == "main" else PrelimRecurrence)(IntRing(), plan)
        twin.bootstrap(x0)
        outcomes = []
        for cls in ((MainEncController, MainRecurrence) if scheme == "main" else
                    (PrelimEncController, PrelimRecurrence)):
            inputs = CipherRing(pk, plan.q, random.Random(3))

            def bootstrapped():
                rec = cls(CipherRing(pk, plan.q, random.Random(2)), plan)
                for k in rec.state:
                    setattr(rec, k, rec.ring.fresh(getattr(twin, k)))
                return rec

            def step(rec, extra=0):
                return rec.step(inputs.fresh([1] * (dims[0] + extra)),
                                inputs.fresh([5] * dims[1]))

            rec = bootstrapped()
            if case == "wrong-length-later":
                step(rec)
            elif case == "wrong-length-rerun":
                step(bootstrapped())
            try:
                emitted = step(rec, case.startswith("wrong-length"))
                cts = [*_vectors(emitted), *(getattr(rec, k) for k in rec.state)]
                outcomes.append([ct.payload for ct in cts])
            except he.DimensionMismatchError:
                outcomes.append("refused")
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0] == "refused") == (backend == "lattice" or case != "wide")

    @pytest.mark.parametrize("scheme", ["main", "prelim"])
    def test_kernels_per_plan(self, request, monkeypatch, tmp_path, scheme):
        """The kernels are the plan's: two lattice runs of one plan with
        different seeds compile 4 kernels in total on the main route (the
        controller's payload and noise steps, the shadow's step, the
        actuator's `rebuild`) and 3 on the prelim route, and write one CSV.
        A run at another pad compiles its own payload step only; a plan
        with another q compiles every kernel of its own."""
        sc, plan, run = route(request, scheme)
        pad = lattice_params(plan, 5).lattice.pad_bits
        _kernels.clear()
        compiled, function = [], kernel.Source.function

        def counting(source, result):
            compiled.append(source)
            return function(source, result)

        def csv(plan, params, seed):
            tr = run(plan, RunConfig(plant=sc.plant, ctrl=sc.ctrl, reference=sc.reference,
                                     x_p0=sc.x_p0, horizon=5, params=params, seed=seed))
            path = tmp_path / f"{len(compiled)}-{seed}.csv"
            tr.to_csv(str(path))
            return path.read_bytes()

        def lattice(q, pad):
            return he.SchemeParams(q=q, backend="lattice", lattice=he.LatticeParams(pad))

        monkeypatch.setattr(kernel.Source, "function", counting)
        kernels = 4 if scheme == "main" else 3
        first = csv(plan, lattice(plan.q, pad), 1)
        assert len(compiled) == kernels
        assert csv(plan, lattice(plan.q, pad), 2) == first
        assert len(compiled) == kernels
        assert csv(plan, lattice(plan.q, pad + 1), 3) == first
        assert len(compiled) == kernels + 1
        wider = replace(plan, q=2 * plan.q)
        assert csv(wider, he.SchemeParams.mock(wider.q), 4) == first
        assert len(compiled) == 2 * kernels + 1

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


class TestNoiseDryRun:
    """`lattice_params` sizes the pad from a dry run of the noise budget
    recorded on `NoiseRing`; the dry run predicts a real run exactly."""

    @pytest.mark.parametrize("scheme", ["main", "prelim"])
    def test_dry_run_and_run_compile_one_noise_program(self, request, monkeypatch, scheme):
        """`lattice_params` compiles 2 kernels, both on `NoiseRing`: the
        bootstrap's bounds and the plan's noise step.  A lattice run of the
        plan compiles none on `NoiseRing`: its controller checks its steps
        with the dry run's noise step, and compiles only the payload step,
        the shadow's step and, on the main route, the actuator's `rebuild`."""
        sc, plan, run = route(request, scheme)
        sources, noise, compile_, bounds = [], [], compile, NoiseRing.bounds

        def recording_compile(source, *args):
            sources.append(source)
            return compile_(source, *args)

        def recording_bounds(ring, vectors):
            out = bounds(ring, vectors)
            noise.append(sources[-1])
            return out

        # `kernel.Source.function` compiles through the name `compile`
        monkeypatch.setattr(kernel, "compile", recording_compile, raising=False)
        monkeypatch.setattr(NoiseRing, "bounds", recording_bounds)
        params = lattice_params(plan, 5)
        assert len(sources) == 2 and noise == sources
        sources.clear()
        noise.clear()
        tr = run(plan, RunConfig(plant=sc.plant, ctrl=sc.ctrl, reference=sc.reference,
                                 x_p0=sc.x_p0, horizon=5, params=params))
        assert tr.recovery_failures == 0
        assert noise == [] and len(sources) == (3 if scheme == "main" else 2)

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

        # the bounds `he` checks against the pad: the product bounds of the
        # bootstrap's products and the peak of each compiled step, and what
        # parties decrypt
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
    # main sends the increments alpha, beta and gamma, prelim sends u
    per, to_sensor = (sc.plant.n + sc.ctrl.n_x + w, v) if scheme == "main" else (w, 0)
    assert all(r.msgs_ctrl_to_act == per for r in tr.records)
    assert tr.msgs_ctrl_to_act == 10 * per
    assert tr.msgs_sensor_to_ctrl == 10 * v
    assert tr.msgs_provider_to_ctrl == 10 * n_r
    assert tr.msgs_ctrl_to_sensor == 10 * to_sensor
    assert tr.actuator_enc_ops == 0
    assert tr.actuator_dec_ops == 10 * per
    # the bootstrap encrypts main's states xo, xe, re and its zero brackets
    # bx, bu, or prelim's state x; each step, the sensor's and the provider's
    # vectors
    n_x = sc.ctrl.n_x
    boot = sc.plant.n + 2 * n_x + n_r + w if scheme == "main" else n_x
    assert tr.enc_ops == boot + 10 * (v + n_r)
    assert (tr.enc_ops, tr.dec_ops) == (tr.records[-1].enc_ops, tr.records[-1].dec_ops)


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
        assert header == (["t"] + [f"u_true_{i}" for i in range(w)]
                          + [f"u_a_{i}" for i in range(w)] + CSV_COLUMNS_SUFFIX)
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
        tr = run_closed_loop_main(sound_plan, main_cfg(batch, sound_plan, 50,
                                                       detail=True))
        sim = PlantSim(batch.plant, batch.x_p0, sound_plan.l0, sound_plan.omega,
                       sound_plan.s2)
        D0 = sim.D
        want = _fraction_plant(batch.plant, batch.x_p0,
                               [det["u_a_exact"] for det in tr.detail])
        for det, x in zip(tr.detail, want):
            sim.step(det["u_tilde"])
            assert sim.x == x
            assert sim.D == D0  # A/omega and s2 B/omega are integral: no growth
        assert tuple(sim.state_floats()) == tr.final_plant_state

    def test_prelim_route(self, tanks, tanks_plan):
        cfg = RunConfig(plant=tanks.plant, ctrl=tanks.ctrl,
                        reference=tanks.reference, x_p0=tanks.x_p0,
                        horizon=50, params=he.SchemeParams.mock(tanks_plan.q),
                        seed=0, collect_detail=True)
        tr = run_closed_loop_prelim(tanks_plan, cfg)
        sim = PlantSim(tanks.plant, tanks.x_p0, tanks_plan.l0, tanks_plan.omega,
                       tanks_plan.s1 * tanks_plan.s2)
        want = _fraction_plant(tanks.plant, tanks.x_p0,
                               [det["u_a_exact"] for det in tr.detail])
        for det, x in zip(tr.detail, want):
            sim.step(det["u_tilde_recovered"])
            assert sim.x == x
        assert tuple(sim.state_floats()) == tr.final_plant_state


class TestDeterminismAndSchedules:
    def test_mock_runs_bit_deterministic(self, batch, sound_plan):
        a = run_closed_loop_main(sound_plan, main_cfg(batch, sound_plan, 30))
        b = run_closed_loop_main(sound_plan, main_cfg(batch, sound_plan, 30))
        assert [(r.u_a, r.log2_alpha, r.saturated) for r in a.records] == \
               [(r.u_a, r.log2_alpha, r.saturated) for r in b.records]


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


def _golden_digest(trace) -> str:
    """SHA-256 over the exact parts of a trace: the per-step records (less the
    float reference loop's u_true and diff_inf, whose last bits vary with the
    BLAS build), the detail log, and the summary's integer counters."""
    records = [(r.t, r.u_a, r.log2_alpha, r.log2_beta, r.log2_gamma,
                r.log2_sensor_gap, r.saturated, r.msgs_ctrl_to_act, r.enc_ops,
                r.dec_ops, r.recovery_failure) for r in trace.records]
    counters = sorted((k, v) for k, v in trace.summary().items()
                      if isinstance(v, int) and not isinstance(v, bool))
    h = hashlib.sha256()
    for part in (records, trace.detail, counters):
        h.update(repr(part).encode())
    return h.hexdigest()


GOLDEN = [
    # (fixture, scheme, backend, horizon, seed, digest)
    ("batch", "main", "mock", 120, 0,
     "d65ed7f5b870dfd9668853a1156eec26b86d76a77c8b409d2452fc0bcc4b12c7"),
    ("batch", "main", "lattice", 40, 3,
     "10c079176c3b63eb21e0bc93f9a8f6b3f454c6170322a559b4b352145e07da58"),
    ("tanks", "prelim", "mock", 200, 0,
     "44358ef0efadd4316704ad198a0e64de2ebfcbb529afff66195df2b34a73dbcb"),
    ("tanks", "prelim", "lattice", 60, 3,
     "11f34c47d5615afe373e402e256f9ecc2e8998069ce3fcd7928f79e8e087a081"),
]


@pytest.mark.parametrize("fixture,scheme,backend,horizon,seed,digest", GOLDEN,
                         ids=[f"{g[0]}-{g[1]}-{g[2]}" for g in GOLDEN])
def test_golden_trace(request, fixture, scheme, backend, horizon, seed, digest):
    """Exact closed-loop traces stay bit-identical (main route with the exact
    observer, prelim route; both backends, sized as `encloop simulate` does)."""
    sc = request.getfixturevalue(fixture)
    plan = request.getfixturevalue("sound_plan" if scheme == "main" else "tanks_plan")
    cfg = RunConfig(plant=sc.plant, ctrl=sc.ctrl, reference=sc.reference,
                    x_p0=sc.x_p0, horizon=horizon, seed=seed, collect_detail=True,
                    params=cli._backend_params(backend, plan, sc, horizon))
    run = run_closed_loop_main if scheme == "main" else run_closed_loop_prelim
    assert _golden_digest(run(plan, cfg)) == digest


# (plan fixture, horizons, the pad `lattice_params` sizes at each)
PADS = [("sound_plan", (1, 2, 3, 20, 40, 200), (29, 46, 70, 469, 938, 4694)),
        ("tanks_plan", (1, 2, 3, 20, 200), (16, 17, 17, 19, 22)),
        ("tanks_main_plan", (1, 2, 3, 100), (17, 22, 29, 673))]


@pytest.mark.parametrize("plan,horizons,pads", PADS,
                         ids=["batch-reactor-main", "coupled-tanks-prelim",
                              "coupled-tanks-main"])
def test_lattice_pads_are_pinned(request, plan, horizons, pads):
    """The pads of the bundled plans: an edit of the noise model that moves
    one fails here.  On the main route the recorded bootstrap alone sets the
    pad at H = 1; the prelim bootstrap records no product, so a step sets
    every prelim pad.  4694 bits at H=200 make the widest packed slots of a
    bundled run."""
    plan = request.getfixturevalue(plan)
    assert tuple(lattice_params(plan, h).lattice.pad_bits for h in horizons) == pads


def test_large_pad_lattice_run_restores_the_mock_inputs(batch, sound_plan):
    """The batch reactor on lattice at H=200, whose 4694-bit pad
    (`test_lattice_pads_are_pinned`) makes the widest packed slots of a
    bundled run, restores the same inputs as mock."""
    digests = set()
    for backend in ("mock", "lattice"):
        tr = run_closed_loop_main(sound_plan, main_cfg(batch, sound_plan, 200,
                                                       backend=backend, seed=7))
        assert tr.recovery_failures == 0 and tr.oracle_mismatches == 0
        digests.add(hashlib.sha256(repr([(r.t, r.u_a) for r in tr.records])
                                   .encode()).hexdigest())
    assert len(digests) == 1


@pytest.mark.parametrize("scheme", ["main", "prelim"])
def test_every_seed_and_backend_report_the_same(request, tmp_path, scheme):
    """A seed picks only the keys and the encryption randomness, and the
    actuator restores the input exactly from decrypted plaintexts: mock seed
    0, lattice seed 0 and lattice seed 1 give one trace digest and one CSV."""
    sc, plan, run = route(request, scheme)
    reports = set()
    for backend, seed in (("mock", 0), ("lattice", 0), ("lattice", 1)):
        cfg = RunConfig(plant=sc.plant, ctrl=sc.ctrl, reference=sc.reference,
                        x_p0=sc.x_p0, horizon=20, seed=seed, collect_detail=True,
                        params=cli._backend_params(backend, plan, sc, 20))
        trace = run(plan, cfg)
        path = tmp_path / f"{backend}-{seed}.csv"
        trace.to_csv(str(path))
        reports.add((_golden_digest(trace), path.read_bytes()))
    assert len(reports) == 1
