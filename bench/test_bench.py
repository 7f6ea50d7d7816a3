"""Checks of the benchmark itself.  Run: python3 -m pytest bench/test_bench.py"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402

SELF_TIME_EXCLUDED = {"loop.run_s", "loop.oracle_s"}   # the total and a part of he.decrypt


def test_overflowing_lattice_run_counts_as_failed_steps():
    # the br-main-lattice shape at H=60 overflows the planned noise budget
    s = run.spawn_sample("br-main-lattice", seed=0, traced=False, horizon=60)
    assert s["error"].startswith("NoiseOverflowError")
    assert 0 < s["completed"] < 60
    assert s["failed_steps"] == 60 - s["completed"]
    assert s["failed_steps"] / s["steps"] > 0


def test_traced_self_times_add_up_to_run_wall_time():
    s = run.spawn_sample("br-main-lattice", seed=0, traced=True, horizon=6)
    layers = s["layers"]
    assert s["unwrapped"] == []
    self_times = [v for k, v in layers.items()
                  if k.startswith(("loop.", "he.", "quantizer."))
                  and k.endswith(("_s", ".s")) and k not in SELF_TIME_EXCLUDED]
    assert sum(self_times) == pytest.approx(layers["loop.run_s"], rel=1e-3)
    assert layers["he.decrypt.oracle_share"] == 0.5
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(layers) | {"trace.overhead_ratio"} == {m["name"] for m in spec["per_layer"]}


def test_digest_mismatch_fails_the_check():
    with pytest.raises(run.BenchError):
        run.check("br-main-mock", [{"error": None, "digests": ["0" * 64]}])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "br-main-mock", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
