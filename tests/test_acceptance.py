"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each (run with -s to stream them).

Criterion 4 is implemented faithfully and expected to fail: its thresholds
(max log2 increment <= 39.5+0.5 over 600 steps, exact recovery at q = 2^41)
are taken from the source experiment's plotted run, which is not reproducible
from the published data -- the transmitted observer increment alpha(t) =
(L/omega) Q(C e_o(t-1)) empirically reaches ~2^42 even at the published
omega = 1e-4 with the exact deadbeat gain, and the only soundly integerizable
zoom for that gain is omega = 1/460000, where the run records ~2^44.8.  The
companion test asserts the same clauses at the planner's own sound modulus,
all green.  See the decisions ledger for the full analysis.
"""

import math
import random
import time
from encloop import replace
from fractions import Fraction

import pytest

# numpy is the float reference here: without it the module is skipped
pytest.importorskip("numpy")

import numpy as np

from encloop import he
from encloop.exactmat import RationalMatrix
from encloop.fixtures import Scenario
from encloop.loop import (
    RunConfig,
    lattice_params,
    run_closed_loop_main,
    run_closed_loop_prelim,
)
from encloop.planner import (
    InfeasibleError,
    MainPlanOptions,
    check_prelim_feasible,
    plan_main,
    plan_preliminary,
    q_bound_main,
    q_bound_terms,
)

from conftest import random_main_system, random_prelim_system, recorded
from floatref import floats


def report(num, detail):
    print(f"ACCEPTANCE {num}: PASS: {detail}")


@pytest.fixture(scope="module")
def sound_trace_600(batch, sound_plan):
    """The 600-step run: its trace, its parties' values (`recorded`), and
    the time the recorded run took."""
    cfg = RunConfig(plant=batch.plant, ctrl=batch.ctrl, reference=batch.reference,
                    x_p0=batch.x_p0, horizon=600,
                    params=he.SchemeParams.mock(sound_plan.q), seed=0)
    start = time.perf_counter()
    trace, rec = recorded(run_closed_loop_main, sound_plan, cfg)
    return trace, rec, time.perf_counter() - start


def test_criterion_1_feasibility_reproduction(batch):
    start = time.perf_counter()
    rep = check_prelim_feasible(batch.plant, batch.ctrl)
    elapsed = time.perf_counter() - start
    assert abs(rep.rho_c - 0.8655) <= 1e-3
    assert rep.s_F == Fraction(1, 100)
    assert not rep.feasible
    with pytest.raises(InfeasibleError):
        plan_preliminary(batch.plant, batch.ctrl)
    assert elapsed < 1.0
    report(1, f"rho_c={rep.rho_c:.4f}, s_F=1/100, infeasible, {elapsed*1e3:.0f} ms")


def test_criterion_2_parameter_reproduction(batch, batch_companion):
    start = time.perf_counter()
    plan = plan_main(batch.plant, batch.ctrl,
                     MainPlanOptions(L=batch.L_published,
                                     L_exact=batch_companion.L,
                                     reference=batch.reference))
    elapsed = time.perf_counter() - start
    assert plan.s1 == 1
    assert plan.s2 == Fraction(1, 100)
    assert plan.omega == Fraction(1, 10000)
    assert len(plan.certificates) == 11
    JC = batch.ctrl.J @ batch.plant.C
    sources = {
        "C/s1": batch.plant.C, "H/s2": batch.ctrl.H, "JC/s2": JC,
        "S/s2": batch.ctrl.S, "A/omega": batch.plant.A,
        "s2B/omega": batch.plant.B.scale(plan.s2), "L/omega": plan.L,
        "F/omega": batch.ctrl.F, "GC/omega": batch.ctrl.G @ batch.plant.C,
        "R/omega": batch.ctrl.R_ref, "1/omega": RationalMatrix.from_rows([[1]]),
    }
    for name, mat in sources.items():
        assert plan.certificates[name].verify(mat), name
    assert plan.rho_observer <= 1e-5        # 0 by exact nilpotency (paper: 9e-7)
    assert plan.rho_observer_eig <= 1e-5    # float radius: 0.0 from the exact x^4
    assert elapsed < 1.0
    report(2, f"s1=1, s2=1/100, omega=1/10000, 11 exact certificates, "
              f"rho={plan.rho_observer_eig:.1e}, {elapsed*1e3:.0f} ms")


def test_criterion_3_modulus_bound(batch, batch_companion, published_plan):
    target = 3.2508e18
    assert target / 4 <= published_plan.q_bound <= target * 4
    assert abs(math.log2(published_plan.q_bound) - 61.4955) <= 2.0
    # term-by-term against an independent float recomputation
    Ce = published_plan.C_e
    L = floats(batch.L_published)
    Cf = floats(batch.plant.C)
    Rf = floats(batch.ctrl.R_ref)
    Sf = floats(batch.ctrl.S)
    w = float(published_plan.omega)
    s1, s2 = float(published_plan.s1), float(published_plan.s2)
    independent = [
        2 * Ce * np.linalg.norm(np.hstack([L @ Cf, L]), np.inf) / w,
        np.linalg.norm(np.hstack([Rf / w, -Rf]), np.inf) / w**2,
        np.linalg.norm(np.hstack([Sf / w, -Sf]), np.inf) / (s2 * w),
        2 * np.linalg.norm(Cf / s1, np.inf) * Ce,
    ]
    got_terms = q_bound_terms(batch.L_published, batch.plant.C,
                              batch.ctrl.R_ref, batch.ctrl.S, published_plan.s1,
                              published_plan.s2, published_plan.omega, Ce)
    for ours, theirs in zip(got_terms, independent):
        assert ours == pytest.approx(theirs, rel=1e-9)
    got = q_bound_main(batch.L_published, batch.plant.C, batch.ctrl.R_ref,
                       batch.ctrl.S, published_plan.s1, published_plan.s2,
                       published_plan.omega, Ce)
    assert got == pytest.approx(max(independent), rel=1e-9)
    report(3, f"q bound 2^{math.log2(published_plan.q_bound):.4f} "
              f"(published 2^61.4955), four terms re-verified to 1e-9")


@pytest.mark.xfail(
    strict=True,
    reason="Published empirical thresholds are not reproducible from the "
           "published data: the transmitted increments provably reach ~2^44.8 "
           "at the only soundly integerizable zoom factor (1/460000), and "
           "~2^42 even at the published omega = 1e-4, so q = 2^41 cannot give "
           "exact recovery.  See the companion test and the decisions ledger.",
)
def test_criterion_4_empirical_modulus_as_stated(batch, sound_plan):
    q41 = replace(sound_plan, q=2**41)
    cfg = RunConfig(plant=batch.plant, ctrl=batch.ctrl, reference=batch.reference,
                    x_p0=batch.x_p0, horizon=600,
                    params=he.SchemeParams.mock(q41.q), seed=0)
    start = time.perf_counter()
    trace = run_closed_loop_main(q41, cfg)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert trace.max_log2_increment() <= 39.5 + 0.5
    assert trace.recovery_failures == 0
    report(4, "published thresholds met (unexpected)")


def test_criterion_4_companion_sound_modulus(sound_plan, sound_trace_600):
    """Same clauses at the planner's own modulus: exact recovery everywhere,
    and the recorded increments stay below the planned bound."""
    trace, _, elapsed = sound_trace_600
    assert elapsed < 10.0
    assert trace.recovery_failures == 0
    assert trace.oracle_mismatches == 0
    mx = trace.max_log2_increment()
    assert mx <= math.log2(sound_plan.q) - 1.0
    report("4*", f"zero recovery failures at planner q=2^65; "
                 f"max log2 increment {mx:.1f} (bound 2^{math.log2(sound_plan.q_bound):.1f}); "
                 f"600 steps in {elapsed:.1f} s")


def test_criterion_5_asymptotic_restoration(sound_trace_600):
    trace, rec, _ = sound_trace_600
    final = trace.records[-1].diff_inf
    assert final <= 1e-6
    # eventually monotone decay (checkpoints clear of the float noise floor)
    marks = [trace.records[t].diff_inf for t in (30, 80, 130, 180, 230)]
    assert all(a > b for a, b in zip(marks, marks[1:]))
    drift = max(abs(a - b) for a, b in
                zip(rec.final_plant_state, rec.final_ideal_plant_state))
    assert drift <= 1e-6
    report(5, f"final |u_a - u|_inf = {final:.2e}, decaying through "
              f"checkpoints, plant tracks the unquantized loop to {drift:.2e}")


def test_criterion_6_non_saturation(sound_plan, sound_trace_600):
    trace, _, _ = sound_trace_600
    assert trace.saturation_count == 0
    report(6, f"zero saturation flags over 600 steps at planned "
              f"range_level={sound_plan.range_level:.3e}")


def _imat(cert):
    return [list(cert.scaled_entries[i * cert.cols:(i + 1) * cert.cols])
            for i in range(cert.rows)]


def test_criterion_7_increment_identities_random_systems():
    """100 randomized small systems: alpha/beta/gamma equal the closed forms
    from the recovery argument, exactly in integer/rational arithmetic, at
    every step where the forms are defined (alpha/gamma from t=1, beta from
    t=2; the two bootstrap steps are covered by the exact shadow equality)."""
    rng = random.Random(20240810)
    systems = 0
    while systems < 100:
        plant, ctrl, design, reference, x_p0 = random_main_system(rng)
        plan = plan_main(plant, ctrl, MainPlanOptions(
            L=design.L, L_exact=design.L, reference=reference))
        sc = Scenario("rand", plant, ctrl, reference, x_p0)
        cfg = RunConfig(plant=plant, ctrl=ctrl, reference=reference, x_p0=x_p0,
                        horizon=50, params=he.SchemeParams.mock(plan.q),
                        seed=systems)
        trace, rec = recorded(run_closed_loop_main, plan, cfg)
        assert trace.recovery_failures == 0
        assert trace.oracle_mismatches == 0
        certs = plan.certificates
        L_int = _imat(certs["L/omega"])
        R_int = _imat(certs["R/omega"])
        S_int = _imat(certs["S/s2"])
        inv_w = 1 / plan.omega
        ref = list(reference.data)
        det = rec.rows

        def e_r(k):
            return [r / det[k]["l"] - re for r, re in zip(ref, det[k]["re_scaled"])]

        for t in range(1, 50):
            want_a = [sum(m * x for m, x in zip(row, det[t - 1]["innovation"]))
                      for row in L_int]
            assert det[t]["alpha"] == want_a
            em1, emt = e_r(t - 1), e_r(t)
            want_g = [inv_w * sum(Fraction(m) * e for m, e in zip(row, em1))
                      - sum(Fraction(m) * e for m, e in zip(row, emt))
                      for row in S_int]
            assert [Fraction(g) for g in det[t]["gamma"]] == want_g
            if t >= 2:
                em2 = e_r(t - 2)
                want_b = [inv_w * sum(Fraction(m) * e for m, e in zip(row, em2))
                          - sum(Fraction(m) * e for m, e in zip(row, em1))
                          for row in R_int]
                assert [Fraction(b) for b in det[t]["beta"]] == want_b
        systems += 1
    report(7, "alpha/beta/gamma closed forms exact on 100 random systems x 50 steps")


def test_criterion_8_prelim_recovery_random_fixtures():
    rng = random.Random(8088)
    count = 0
    while count < 20:
        plant, ctrl, reference, x_p0 = random_prelim_system(rng)
        bound = max((abs(x) for x in reference.data), default=Fraction(0))
        plan = plan_preliminary(plant, ctrl, reference_bound=bound)
        cfg = RunConfig(plant=plant, ctrl=ctrl, reference=reference, x_p0=x_p0,
                        horizon=200, params=he.SchemeParams.mock(plan.q),
                        seed=count)
        trace, rec = recorded(run_closed_loop_prelim, plan, cfg)
        assert trace.recovery_failures == 0, f"fixture {count}"
        for det in rec.rows:
            assert det["u_tilde"] == det["u_tilde_recovered"]
        incs = [r.log2_alpha for r in trace.records if math.isfinite(r.log2_alpha)]
        if not incs:
            continue  # all-zero trajectory: no window to violate
        # inject a modulus whose window the observed increments must exceed
        q_small = max(2, 2**int(max(incs)))
        bad = replace(plan, q=q_small)
        cfg_bad = replace(cfg, params=he.SchemeParams.mock(q_small))
        assert run_closed_loop_prelim(bad, cfg_bad).recovery_failures > 0
        count += 1
    report(8, "exact recovery on 20 random fixtures x 200 steps; "
              "under-sized q flags failures on every fixture")


def test_criterion_9_he_laws_and_backend_equivalence(batch, sound_plan):
    rng = random.Random(909)
    for backend in ("mock", "lattice"):
        vectors = 0
        key_cache = {}
        while vectors < 10**4:
            qbits = rng.randint(3, 41)
            q = 2**qbits + rng.randint(0, 2**(qbits - 1))
            if q not in key_cache:
                if backend == "mock":
                    params = he.SchemeParams.mock(q)
                else:
                    params = he.SchemeParams(q=q, backend="lattice",
                                             lattice=he.LatticeParams(pad_bits=64))
                key_cache[q] = (params, *he.keygen(params, seed=q))
            params, pk, sk = key_cache[q]
            n = rng.randint(1, 3)
            v1 = [rng.randrange(q) for _ in range(n)]
            v2 = [rng.randrange(q) for _ in range(n)]
            M = [[rng.randrange(-3, 4) % q for _ in range(n)]
                 for _ in range(rng.randint(1, 3))]
            c1, c2 = he.encrypt(pk, v1, rng), he.encrypt(pk, v2, rng)
            assert he.decrypt(sk, c1) == tuple(v1)                      # i
            got = he.decrypt(sk, he.add(c1, c2))
            assert got == tuple((a + b) % q for a, b in zip(v1, v2))    # ii
            got = he.decrypt(sk, he.plain_matmul(he.PlainMatrix(M, q), c2))
            assert got == tuple(sum(m * x for m, x in zip(row, v2)) % q
                                for row in M)                           # iii
            vectors += 3 + 1  # three vectors and one matrix exercised
    # identical 50-step restored-input sequences across backends
    cfg_m = RunConfig(plant=batch.plant, ctrl=batch.ctrl,
                      reference=batch.reference, x_p0=batch.x_p0, horizon=50,
                      params=he.SchemeParams.mock(sound_plan.q), seed=3)
    cfg_l = replace(cfg_m,
                    params=lattice_params(sound_plan, 50))
    tr_m = run_closed_loop_main(sound_plan, cfg_m)
    tr_l = run_closed_loop_main(sound_plan, cfg_l)
    assert [r.u_a for r in tr_m.records] == [r.u_a for r in tr_l.records]
    assert tr_l.recovery_failures == 0
    report(9, "additive laws exact on 10^4 randomized inputs per backend; "
              "mock and lattice runs bit-identical over 50 steps")


def test_criterion_9_long_horizon_lattice(batch, sound_plan):
    """Criterion 9's backend equivalence, at a horizon four times longer, under
    the planner's own lattice sizing (`lattice_params`)."""
    cfg_m = RunConfig(plant=batch.plant, ctrl=batch.ctrl,
                      reference=batch.reference, x_p0=batch.x_p0, horizon=200,
                      params=he.SchemeParams.mock(sound_plan.q), seed=3)
    cfg_l = replace(cfg_m, params=lattice_params(sound_plan, 200))
    tr_m = run_closed_loop_main(sound_plan, cfg_m)
    tr_l = run_closed_loop_main(sound_plan, cfg_l)
    assert tr_l.recovery_failures == 0
    assert tr_l.oracle_mismatches == 0
    assert [r.u_a for r in tr_m.records] == [r.u_a for r in tr_l.records]
    report("9*", f"mock and lattice runs bit-identical over 200 steps "
                 f"(pad {cfg_l.params.lattice.pad_bits} bits)")


def test_criterion_10_overheads(sound_plan, sound_trace_600):
    trace, _, _ = sound_trace_600
    d = sound_plan.dims
    per_step = d["n"] + d["n_x"] + d["w"]
    assert all(r.msgs_ctrl_to_act == per_step for r in trace.records)
    assert trace.actuator_dec_ops == per_step * len(trace.records)
    assert trace.actuator_enc_ops == 0
    report(10, f"controller->actuator = n+n_x+w = {per_step} ciphertexts/step; "
               f"actuator performs decryptions only")
