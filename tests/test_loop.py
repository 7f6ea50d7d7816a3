import hashlib
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from encloop import cli, he
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
    PlantSim,
    RunConfig,
    centered_mod_recover,
    lattice_params,
    noise_peak,
    run_closed_loop_main,
    run_closed_loop_prelim,
    _scaled_integer_state,
)
from encloop.planner import MainPlanOptions, design_deadbeat_observer, plan_main

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
    def tanks_main(self, tanks):
        """The coupled tanks on the main route (exact design): x_e0 = (5, -5)
        scaled, so step 0's beta is nonzero."""
        L = design_deadbeat_observer(tanks.plant.A, tanks.plant.C).L
        return tanks, plan_main(tanks.plant, tanks.ctrl, MainPlanOptions(
            L=L, L_exact=L, reference=tanks.reference))

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
            assert det[t]["beta"] == less(bx, mv(inv_omega, bx_m1))
            assert det[t]["gamma"] == less(bu, mv(inv_omega, bu_m1))
        return det

    def test_ops_per_step(self, batch, sound_plan, monkeypatch):
        """A controller step makes 13 `he.plain_matmul` (y_o's included) and 9
        `he.add`; the integer shadow's step 12 matvecs, the actuator's
        `rebuild` 8."""
        counts = {"plain_matmul": 0, "add": 0}

        def counting(name):
            op = getattr(he, name)

            def wrapped(*args):
                counts[name] += 1
                return op(*args)
            return wrapped

        for name in counts:
            monkeypatch.setattr(he, name, counting(name))
        q, d = sound_plan.q, sound_plan.dims
        x_e0 = _scaled_integer_state(batch.ctrl.x0.data, sound_plan.l0)
        ring = CipherRing(he.keygen(he.SchemeParams.mock(q))[0], q, random.Random(0))
        controller = MainEncController(ring, sound_plan)
        controller.bootstrap(x_e0)
        for _ in range(3):
            counts.update(plain_matmul=0, add=0)
            controller.step(ring.fresh([1] * d["v"]), ring.fresh([1] * d["n_r"]))
            assert counts == {"plain_matmul": 13, "add": 9}

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
            actuator.rebuild(*shadow.step([1] * d["v"], [1] * d["n_r"]))
            assert (actuator.ring.matvecs, shadow.ring.matvecs) == (8, 12)

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


class TestNoiseDryRun:
    """`lattice_params` sizes the pad from a dry run of the noise budget
    (`NoiseRing`); the dry run predicts a real run exactly."""

    def test_cipher_ring_centers_plaintexts(self):
        pk, _ = he.keygen(he.SchemeParams.mock(10))
        ring = CipherRing(pk, 10, random.Random(0))
        # centered [[-1, 1, 5, -4, 5, 0]], zero entries dropped
        M = ring.plain([[9, 1, 5, 6, -5, 20]])
        assert M.rows == (((0, -1), (1, 1), (2, 5), (3, -4), (4, 5)),)
        assert (M.cols, M.weight) == (6, 16)
        I4 = ring.scalar(14, 2)
        assert (I4.rows, I4.weight) == ((((0, 4),), ((1, 4),)), 4)

    @pytest.mark.parametrize("scheme", ["main", "prelim"])
    def test_peak_is_the_largest_noise_of_a_run(self, request, monkeypatch, scheme):
        """At H = 1 and 2 the bootstrap alone sets the pad, at H = 30 the steps."""
        sc, plan, run = route(request, scheme)
        for horizon in (1, 2, 30):
            self._check_peak(monkeypatch, sc, plan, run, horizon)

    @staticmethod
    def _check_peak(monkeypatch, sc, plan, run, horizon):
        largest = [0]
        plain_matmul, decrypt = he.plain_matmul, he.decrypt

        # the bounds `he` checks against the pad: products, and what parties decrypt
        def recording_product(M, ct):
            out = plain_matmul(M, ct)
            largest[0] = max(largest[0], out.noise_bound)
            return out

        def recording_decrypt(sk, ct):
            largest[0] = max(largest[0], ct.noise_bound)
            return decrypt(sk, ct)

        monkeypatch.setattr(he, "plain_matmul", recording_product)
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


def test_large_pad_lattice_run_restores_the_mock_inputs(batch, sound_plan):
    """The batch reactor on lattice at H=200, whose 4694-bit pad makes the
    widest packed slots of a bundled run, restores the same inputs as mock."""
    assert lattice_params(sound_plan, 200).lattice.pad_bits == 4694
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
