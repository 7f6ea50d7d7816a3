"""One benchmark sample: cold set-up plus RUNS_PER_SAMPLE closed-loop runs.

run.py starts this script in a fresh interpreter for every sample, so the
set-up time includes `import encloop`, the lazy `scipy.optimize` import and
the `lru_cache` fills in `encloop.fixtures`.  The sample follows the path of
`encloop simulate`: fixture, observer resolution, `plan_main` or
`plan_preliminary`, backend parameters, `run_closed_loop_*`.  It prints one
JSON object on stdout.  With --trace it makes a single run, wraps the layer
entry points (layers.py) and adds the per-layer figures under "layers".

A run that raises `he.HEError` or `planner.PlannerError` is not a crash: the
steps it did not finish count as failed, the error is reported and the
sample makes no further runs.

A shared host's speed drifts by tens of percent within minutes.  So the
sample times a fixed reference workload (`reference_work`, standard library
only, no encloop code) after set-up and after every run, and reports these
times as `refs`, and for each run the geometric mean of the two around it
as `ref_s`; run.py rescales the wall times by them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

import layers

WORKLOADS = json.loads(Path(__file__).with_name("workloads.json").read_text())["workloads"]
# Closed-loop runs per untraced sample, after one cold set-up.  More runs per
# interpreter give more throughput figures per second of benchmark.
RUNS_PER_SAMPLE = 3


def reference_work() -> float:
    """Wall seconds of a fixed mix of the kinds of work the runs do.

    Exact-rational matrix-vector products (the plant, sensor and actuator on
    the main route), sums and dot products of 3500-bit integers reduced
    modulo a 3500-bit modulus (the lattice backend's encrypt, decrypt and
    plain_matmul), and small-dict churn (the orchestrator).  The parts take
    about equal time.  A shared host's slow spells slow the runs and these
    parts alike; modular multiplication chains, which they slow less, are
    left out on purpose.
    """
    start = time.perf_counter()
    A = [[Fraction(i + j + 1, 97 + 3 * i - j) for j in range(3)] for i in range(3)]
    x = [Fraction(1, 3), Fraction(2, 7), Fraction(-5, 11)]
    for _ in range(60):
        x = [sum(a * v for a, v in zip(row, x)) for row in A]
        x = [v.limit_denominator(1 << 600) for v in x]
    modulus = (1 << 3500) - 12345
    words = [pow(3, 2200 + 7 * k, modulus) for k in range(64)]
    for _ in range(160):
        total = 0
        for w in words:
            total += w
        total %= modulus
        total += sum(u * v for u, v in zip(words[:16], words[16:32])) % modulus
    d = {}
    for k in range(120000):
        d[k % 1000] = d.get(k % 1000, 0) + k
    return time.perf_counter() - start


def u_a_digest(records) -> str:
    """SHA-256 of the restored input trace, [(t, u_a), ...]."""
    return hashlib.sha256(repr([(r.t, r.u_a) for r in records]).encode()).hexdigest()


def _partial_trace(exc):
    """The ClosedLoopTrace a run_closed_loop_* call had built when it raised."""
    trace, tb = None, exc.__traceback__
    while tb is not None:
        if tb.tb_frame.f_code.co_name.startswith("run_closed_loop_"):
            trace = tb.tb_frame.f_locals.get("trace")
        tb = tb.tb_next
    return trace


class Laps:
    def __init__(self, start):
        self.last = start
        self.s = {}

    def __call__(self, name):
        now = time.perf_counter()
        self.s[name] = now - self.last
        self.last = now


def run_sample(name: str, seed: int, traced: bool, horizon=None) -> dict:
    wl = WORKLOADS[name]
    horizon = horizon or wl["horizon"]
    main_route = wl["scheme"] == "main"

    t0 = time.perf_counter()
    from encloop import cli, fixtures, he, loop, planner  # the import is part of set-up
    lap = Laps(t0)
    lap("setup.import_encloop_s")
    tracer = layers.Tracer(he) if traced else None

    out = {"steps": horizon, "completed": 0, "failed_steps": horizon, "error": None,
           "setup_s": 0.0, "refs": [], "runs": [], "digests": [],
           "recovery_failures": 0, "oracle_mismatches": 0, "saturation_count": 0}
    params = None
    try:
        scenario = fixtures.FIXTURES[wl["fixture"]]()
        lap("setup.fixture_s")
        if main_route:
            if traced:
                import scipy.optimize  # noqa: F401  (timed apart so recovery reads warm)
                lap("setup.import_scipy_optimize_s")
            design = fixtures.batch_reactor_exact_observer()
            lap("planner.recover_exact_deadbeat_s")
            plan = planner.plan_main(scenario.plant, scenario.ctrl, planner.MainPlanOptions(
                L=design.L, L_exact=design.L, reference=scenario.reference))
            lap("planner.plan_main_s")
        else:
            report = planner.check_prelim_feasible(scenario.plant, scenario.ctrl)
            if not report.feasible:
                raise planner.InfeasibleError(report.reason)
            lap("planner.check_prelim_feasible_s")
            ref_bound = max(abs(x) for x in scenario.reference.data)
            plan = planner.plan_preliminary(scenario.plant, scenario.ctrl,
                                            reference_bound=ref_bound)
            lap("planner.plan_preliminary_s")
        params = cli._backend_params(wl["backend"], plan, scenario, horizon)
        lap("setup.backend_params_s")
        out["setup_s"] = time.perf_counter() - t0
    except (he.HEError, planner.PlannerError) as e:
        out["error"] = f"{type(e).__name__}: {e}"
    else:
        cfg = loop.RunConfig(plant=scenario.plant, ctrl=scenario.ctrl,
                             reference=scenario.reference, x_p0=scenario.x_p0,
                             horizon=horizon, params=params, seed=seed)
        runners = tracer.install(loop) if traced else vars(loop)
        run = runners["run_closed_loop_main" if main_route else "run_closed_loop_prelim"]
        out["refs"].append(reference_work())
        out["steps"] = out["failed_steps"] = 0
        for _ in range(1 if traced else RUNS_PER_SAMPLE):
            t1 = time.perf_counter()
            try:
                trace = run(plan, cfg)
            except (he.HEError, planner.PlannerError) as e:
                out["error"] = f"{type(e).__name__}: {e}"
                trace = _partial_trace(e)
            run_s = time.perf_counter() - t1
            out["refs"].append(reference_work())
            records = trace.records if trace is not None else []
            bad = sum(1 for r in records if r.recovery_failure or r.saturated)
            oracle = trace.oracle_mismatches if trace is not None else 0
            out["steps"] += horizon
            out["completed"] += len(records)
            out["failed_steps"] += min(len(records), bad + oracle) + horizon - len(records)
            out["runs"].append({"steps_per_s": len(records) / run_s, "run_s": run_s,
                                "ref_s": (out["refs"][-2] * out["refs"][-1]) ** 0.5})
            if trace is not None:
                out["digests"].append(u_a_digest(records))
                for k in ("recovery_failures", "oracle_mismatches", "saturation_count"):
                    out[k] += getattr(trace, k)
            if out["error"]:
                break

    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if traced:
        run_s = out["runs"][0]["run_s"] if out["runs"] else 0.0
        out["layers"] = _layer_metrics(tracer, lap.s, params, out, run_s)
        out["unwrapped"] = tracer.missing
    return out


def _layer_metrics(tracer, laps, params, out, run_s) -> dict:
    m = {k: laps.get(k, 0.0) for k in (
        "setup.import_encloop_s", "setup.import_scipy_optimize_s", "setup.fixture_s",
        "planner.recover_exact_deadbeat_s", "planner.check_prelim_feasible_s",
        "planner.plan_main_s", "planner.plan_preliminary_s", "setup.backend_params_s")}
    s, calls = tracer.self_s, tracer.calls
    m["he.keygen_s"] = s["he.keygen"]
    for layer in ("loop.plant.step", "loop.plant.output", "loop.sensor.step",
                  "loop.provider.step", "loop.actuator.step", "loop.controller.step",
                  "loop.shadow.step", "loop.ideal.step", "loop.centered_mod_recover",
                  "quantizer.quantize_vector", "loop.oracle"):
        m[layer + "_s"] = s[layer]
        m[layer + "_calls"] = calls[layer]
    m["loop.orchestrator_self_s"] = s[layers.ROOT]
    m["loop.run_s"] = run_s
    for op in ("encrypt", "decrypt", "add", "plain_matmul"):
        m[f"he.{op}.calls"] = calls["he." + op]
        m[f"he.{op}.s"] = s["he." + op]
    m["he.decrypt.oracle_share"] = (calls["loop.oracle"] / calls["he.decrypt"]
                                    if calls["he.decrypt"] else 0.0)
    for k, ms in enumerate(tracer.step_ms_deciles(), 1):
        m[f"loop.step_ms.d{k}"] = ms
    m["loop.plant.state_bits"], m["loop.actuator.state_bits"] = tracer.state_bits()
    lattice = params is not None and params.backend == "lattice"
    m["he.pad_bits"] = params.lattice.pad_bits if lattice else 0
    m["he.ct_modulus_bits"] = params.ct_modulus.bit_length() if lattice else 0
    m["he.noise_headroom_min_bits"], m["he.noise_growth_bits_per_step"] = tracer.noise()
    for k in ("recovery_failures", "oracle_mismatches", "saturation_count"):
        m["loop." + k] = out[k]
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--horizon", type=int, help="override the workload's horizon")
    args = p.parse_args(argv)
    print(json.dumps(run_sample(args.workload, args.seed, args.trace, args.horizon)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
