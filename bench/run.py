"""Closed-loop benchmark of encloop: cold set-up, step throughput, per-layer traces.

Run from the repository root:

    python3 bench/run.py --workload br-main-mock --seed 0 --seconds 20 --trace 0

Samples run one at a time, each in a fresh single-threaded interpreter
(sample.py) with BLAS threads pinned to 1, for about --seconds.  A
sample sets up once, cold, and then makes a few closed-loop runs; the
benchmark reports medians over all samples and runs.  Every run's restored
input trace must hash to the workload's digest in workloads.json, or the
command fails without printing figures.  Steps lost to recovery failures,
oracle mismatches, saturation or a raised `HEError`/`PlannerError` are
counted as failed.

`setup_s` and `steps_per_s` are given in reference seconds: each wall time
is rescaled to a host on which sample.reference_work, a fixed workload timed
in the same interpreter right next to it, takes REF_S seconds.  A shared
host's speed drifts by tens of percent within minutes; that drift slows the
program and the reference alike and cancels, while a change to encloop
leaves the reference as it is.  The unscaled medians are printed as well.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced samples and prints the per-layer metrics, with the tracing overhead.
The last line of stdout is one JSON object:
{"correct": ..., "attempted": <steps>, "failed": <steps>, "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = json.loads((BENCH / "workloads.json").read_text())["workloads"]
RUN_LIMIT_S = 170          # a whole run, samples included, ends within this
MIN_SAMPLES = 3
REF_S = 0.15               # reference-workload time that defines a reference second
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def spawn_sample(workload: str, seed: int, traced: bool, horizon=None,
                 timeout=RUN_LIMIT_S) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    env.update({v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(BENCH / "sample.py"), "--workload", workload,
           "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    if horizon is not None:
        cmd += ["--horizon", str(horizon)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"sample crashed (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def collect(workload: str, seed: int, seconds: float, trace: bool):
    """Samples for `seconds`; traced runs alternate untraced/traced.

    Once there are enough samples, no sample starts that the longest so far
    says would end after `seconds`, so a run takes about `seconds` at most.
    """
    plain, traced = [], []
    start = time.perf_counter()
    longest = 0.0
    while True:
        want_traced = trace and len(traced) < len(plain)
        began = time.perf_counter()
        (traced if want_traced else plain).append(
            spawn_sample(workload, seed, want_traced, timeout=RUN_LIMIT_S - (began - start)))
        now = time.perf_counter()
        longest = max(longest, now - began)
        enough = len(plain) >= MIN_SAMPLES and (not trace or len(traced) >= MIN_SAMPLES)
        if enough and now + longest - start > seconds:
            return plain, traced


def check(workload: str, samples: list):
    """Raises unless every completed run restored the expected input trace."""
    want = WORKLOADS[workload]["digest"]
    for s in samples:
        for digest in s["digests"] if s["error"] is None else ():
            if digest != want:
                raise BenchError(f"{workload}: u_a trace digest {digest} != {want}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_speeds(samples: list) -> list:
    """steps_per_s of each closed-loop run, in reference seconds."""
    return [r["steps_per_s"] * r["ref_s"] / REF_S
            for s in samples for r in s["runs"]] or [0.0]


def end_to_end(plain: list) -> dict:
    steps = sum(s["steps"] for s in plain)
    failed = sum(s["failed_steps"] for s in plain)
    return {
        # set-up happens once per sample, so it is scaled by all of its references
        "setup_s": ([s["setup_s"] * REF_S / statistics.geometric_mean(s["refs"])
                     for s in plain if s["refs"]] or [0.0], "s"),
        "steps_per_s": (run_speeds(plain), "1/s"),
        "peak_rss_mb": ([s["peak_rss_mb"] for s in plain], "MiB"),
        "step_success_ratio": ([1 - failed / steps], "ratio"),
    }


def per_layer(plain: list, traced: list, units: dict) -> dict:
    out = {name: ([s["layers"][name] for s in traced], units[name])
           for name in traced[0]["layers"]}
    speed = statistics.median(run_speeds(plain))
    speed_traced = statistics.median(run_speeds(traced))
    out["trace.overhead_ratio"] = ([speed / speed_traced - 1 if speed_traced else 0.0],
                                   "ratio")
    return out


def layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "encloop" / "__init__.py").is_file():
        print(f"no encloop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # byte-compile once, so that no sample pays for compiling the package
    compileall.compile_dir(str(ROOT / "src" / "encloop"), quiet=1)
    try:
        plain, traced = collect(args.workload, args.seed, args.seconds, bool(args.trace))
        check(args.workload, plain + traced)
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    unwrapped = sorted({name for s in traced for name in s["unwrapped"]})
    if unwrapped:
        print(f"not traced, no longer in encloop: {', '.join(unwrapped)}", file=sys.stderr)
    metrics = per_layer(plain, traced, layer_units()) if args.trace else end_to_end(plain)
    for name, (values, unit) in metrics.items():
        q1, med, q3 = quartiles(values)
        print(f"{args.workload:18} {name:34} {med:14.6g} {unit:6} "
              f"(median of {len(values)}; quartiles {q1:.6g} .. {q3:.6g})")
    runs = [r for s in plain for r in s["runs"]]
    print(f"{args.workload:18} {'unscaled setup_s, steps_per_s':34} "
          f"{statistics.median(s['setup_s'] for s in plain):.6g} s, "
          f"{statistics.median(r['steps_per_s'] for r in runs) if runs else 0:.6g} 1/s "
          f"over all {len(runs)} runs; reference workload "
          f"{statistics.median(r['ref_s'] for r in runs) if runs else 0:.4g} s, "
          f"scaled to {REF_S:g} s")
    samples = plain + traced
    attempted = sum(s["steps"] for s in samples)
    failed = sum(s["failed_steps"] for s in samples)
    errors = sorted({s["error"] for s in samples if s["error"]})
    print(f"{args.workload:18} {'fail_ratio':34} {failed / attempted:14.6g} ratio  "
          f"({failed} of {attempted} steps in {len(samples)} samples)"
          + "".join(f"\n  error: {e}" for e in errors))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": statistics.median(values), "unit": unit}
                    for name, (values, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
