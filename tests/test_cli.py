import argparse
import csv
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from encloop import replace
from fractions import Fraction
from pathlib import Path

import pytest

import encloop
from encloop import cli, he, kernel, loop
from encloop.cli import main
from encloop.fixtures import FIXTURES, batch_reactor, batch_reactor_exact_observer
from encloop.planner import MainPlanOptions, plan_main, plan_preliminary


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_plan_prelim_batch_infeasible(capsys):
    code, out, _ = run_cli(capsys, "plan", "--fixture", "batch-reactor",
                           "--scheme", "prelim")
    assert code == 2
    rep = json.loads(out)
    assert rep["feasible"] is False
    assert rep["s_F"] == "1/100"
    assert abs(rep["rho_c"] - 0.8655) < 1e-3
    assert "s_F" in rep["reason"]


def test_plan_out_writes_the_infeasible_report(capsys, tmp_path):
    path = tmp_path / "plan.json"
    code, out, _ = run_cli(capsys, "plan", "--fixture", "batch-reactor",
                           "--scheme", "prelim", "--out", str(path))
    assert code == 2
    assert json.loads(out)["feasible"] is False
    assert path.read_text() == out


def test_plan_main_batch_published_parameters(capsys):
    code, out, _ = run_cli(capsys, "plan", "--fixture", "batch-reactor",
                           "--scheme", "main")
    assert code == 0
    rep = json.loads(out)
    assert rep["omega"] == "1/10000"
    assert rep["s1"] == "1"
    assert rep["s2"] == "1/100"
    assert rep["q_log2"] == 62.0
    assert rep["q"] == str(2**62)


def test_plan_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "plan", "--fixture", "batch-reactor")
    _, out2, _ = run_cli(capsys, "plan", "--fixture", "batch-reactor")
    assert out1 == out2


def test_plan_exact_observer(capsys):
    code, out, _ = run_cli(capsys, "plan", "--fixture", "batch-reactor",
                           "--observer", "exact")
    assert code == 0
    rep = json.loads(out)
    assert rep["omega"] == "1/460000"
    assert rep["tail_sound"] is True
    assert rep["deadbeat_index"] == 2
    assert rep["q"] == str(2**65)


def test_simulate_main_writes_outputs(capsys, tmp_path):
    out_prefix = str(tmp_path / "run")
    code, out, _ = run_cli(capsys, "simulate", "--fixture", "batch-reactor",
                           "--scheme", "main", "--backend", "mock",
                           "--horizon", "25", "--out", out_prefix)
    assert code == 0
    summary = json.loads(out)
    assert summary["recovery_failures"] == 0
    assert summary["saturation_count"] == 0
    csv_lines = (tmp_path / "run.csv").read_text().splitlines()
    assert len(csv_lines) == 26
    assert csv_lines[0].startswith("t,u_true_0,u_a_0,diff_inf,log2_alpha")
    saved = json.loads((tmp_path / "run.json").read_text())
    assert saved["steps"] == 25


def test_simulate_small_q_override_fails_with_code_3(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--fixture", "batch-reactor",
                           "--scheme", "main", "--horizon", "30",
                           "--override", "q=2199023255552")  # 2^41
    assert code == 3
    assert json.loads(out)["recovery_failures"] > 0


def test_simulate_long_lattice_run(capsys):
    """The planned noise budget holds past the horizons that once overflowed
    it (exit 5 at H >= 55)."""
    code, out, err = run_cli(capsys, "simulate", "--fixture", "batch-reactor",
                             "--backend", "lattice", "--horizon", "60")
    assert code == 0, err
    summary = json.loads(out)
    assert summary["backend"] == "lattice"
    assert summary["recovery_failures"] == 0 and summary["oracle_mismatches"] == 0


def test_simulate_prelim_fixture(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--fixture", "coupled-tanks",
                           "--scheme", "prelim", "--horizon", "60")
    assert code == 0
    assert json.loads(out)["recovery_failures"] == 0


def test_override_validation_rejects_bad_omega(capsys):
    code, _, err = run_cli(capsys, "plan", "--fixture", "batch-reactor",
                           "--override", "omega=1/3")
    assert code == 1
    assert "integrality" in err


def test_override_omega_recertifies_every_omega_matrix(capsys):
    code, out, _ = run_cli(capsys, "plan", "--fixture", "batch-reactor",
                           "--observer", "exact", "--override", "omega=1/920000")
    assert code == 0
    rep = json.loads(out)
    assert rep["omega"] == "1/920000"
    scales = {name: c["scale"] for name, c in rep["certificates"].items()
              if name.endswith("/omega")}
    assert len(scales) == 7
    assert set(scales.values()) == {"1/920000"}


def test_override_validation_rejects_unknown_key(capsys):
    code, _, err = run_cli(capsys, "plan", "--fixture", "batch-reactor",
                           "--override", "zoom=0.5")
    assert code == 1


def test_compare_batch(capsys):
    code, out, _ = run_cli(capsys, "compare", "--fixture", "batch-reactor",
                           "--horizon", "10")
    assert code == 0
    assert "n + n_x + w" in out          # symbolic row
    rows = table_rows(out)
    assert rows["ctrl<->act ciphertexts / step (here)"] == ["2", "9"]
    assert rows["measured / step"] == ["-", "9 ciphertexts, 9 Dec, 0 Enc"]
    assert "break-even" not in out       # no verdict from unmeasured costs


def test_compare_hypothetical_wide_input(capsys):
    code, out, _ = run_cli(capsys, "compare", "--hypothetical", "n=4,n_x=4,w=10")
    assert code == 0
    rows = table_rows(out)
    assert rows["ctrl<->act ciphertexts / step (here)"] == ["20", "18"]
    assert "measured / step" not in rows
    assert "break-even" not in out


def table_rows(out: str) -> dict:
    """{label: [with re-encryption, re-encryption free]} of the compare table,
    whose columns are separated by two or more spaces."""
    return {cells[0]: cells[1:] for cells in
            (re.split(r"\s{2,}", line.strip()) for line in out.splitlines()[1:])}


def test_config_rejects_float_matrix_entries(capsys, tmp_path):
    cfg = {
        "plant": {"A": [[0.5]], "B": [["1"]], "C": [["1"]]},
        "controller": {"F": [["0.5"]], "G": [["0"]], "R": [["0"]],
                       "H": [["0"]], "J": [["0"]], "S": [["0"]]},
        "reference": ["0"],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "plan", "--config", str(path),
                           "--scheme", "prelim")
    assert code == 1
    assert "decimal string" in err


def test_config_scenario_roundtrip(capsys, tmp_path):
    cfg = {
        "plant": {"A": [["0.4"]], "B": [["1"]], "C": [["1"]],
                  "x_p0_bound": "1"},
        "controller": {"F": [["0", "1/2"], ["0", "0"]],
                       "G": [["0"], ["0"]], "R": [["0"], ["0"]],
                       "H": [["0.05", "0.15"]], "J": [["0"]], "S": [["0"]],
                       "x0": ["0", "0"]},
        "reference": ["0"],
        "x_p0": ["0.5"],
        "scheme": "prelim",
        "horizon": 40,
    }
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "plan", "--config", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["s2"] == "1/20"
    code, out, _ = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 0
    assert json.loads(out)["recovery_failures"] == 0


def test_unknown_fixture(capsys):
    code, _, err = run_cli(capsys, "plan", "--fixture", "nope")
    assert code == 1
    assert "unknown fixture" in err


SCALAR_PLANT = {  # a scalar plant and controller; each scalar config is a variant of it
    "plant": {"A": [["0.2"]], "B": [["1"]], "C": [["1"]], "x_p0_bound": "1"},
    "controller": {"F": [["0.5"]], "G": [["-0.1"]], "R": [["0"]], "H": [["0.1"]],
                   "J": [["-0.2"]], "S": [["0"]]},
    "x_p0": ["1"], "reference": ["0"]}


def scalar(plant=(), controller=(), **config) -> dict:
    """`SCALAR_PLANT` with the given plant, controller and config entries."""
    return {**SCALAR_PLANT, **config,
            "plant": {**SCALAR_PLANT["plant"], **dict(plant)},
            "controller": {**SCALAR_PLANT["controller"], **dict(controller)}}


SCALAR_CONFIGS = {
    # F/omega = [[1]]: the prelim noise table never ends
    "never-ending": scalar(),
    # R and S of no columns: a controller of no reference input
    "no-reference": scalar(controller={"R": [[]], "S": [[]]}, reference=[]),
    # an all-zero matrix has the integer scale 1
    "all-zero": scalar({"A": [["0.4"]]}, {k: [["0"]] for k in "FGRHJS"}),
    "zero-F": scalar(controller={"F": [["0"]]}),
    # a static gain u = J y + S r: JSON writes G and R of no rows without a width
    "no-state": scalar(controller={"F": [], "G": [], "R": [], "H": [[]]}),
    # G s1/omega is not integral, so `rebuild` keeps GC/omega and JC/s2 on the
    # observer state instead of G and J on its output
    "gc-fallback": scalar({"C": [["2"]]}, {"G": [["-0.05"]]}),
}

RUNS = [
    # (scenario, scheme, horizon, override, lattice pad in bits).  The batch
    # reactor's pad at H=1 is its encrypt-only bootstrap's, at H=2 that and
    # one step's, and from H=3 on the same 48 bits, since only the bounded
    # increments are decrypted; the tanks' prelim pad is the same at every
    # horizon.  q=8193 and 2^65+1 are odd: Q is no power of two, so payloads
    # reduce slot by slot, and centering mod q is asymmetric.
    ("batch-reactor", "main", 1, None, 10),
    ("batch-reactor", "main", 2, None, 38),
    ("batch-reactor", "main", 200, None, 48),
    ("batch-reactor", "main", 1000, None, 48),
    ("batch-reactor", "main", 40, "q=36893488147419103233", 48),
    ("batch-reactor", "main", 200, "q=36893488147419103233", 48),
    ("coupled-tanks", "prelim", 1, None, 16),
    ("coupled-tanks", "prelim", 200, None, 16),
    ("coupled-tanks", "prelim", 200, "q=8193", 16),
    ("coupled-tanks", "main", 1, None, 10),
    ("coupled-tanks", "main", 2, None, 20),
    ("coupled-tanks", "main", 100, None, 22),
    ("never-ending", "prelim", 1000, None, 20),
    ("no-reference", "prelim", 200, None, 18),
    ("no-reference", "main", 200, None, 11),
    ("all-zero", "prelim", 200, None, 2),
    ("all-zero", "main", 200, None, 12),
    ("zero-F", "prelim", 200, None, 14),
    ("zero-F", "main", 200, None, 11),
    ("no-state", "prelim", 200, None, 10),
    ("no-state", "main", 200, None, 11),
    ("gc-fallback", "main", 200, None, 10),
]
RUN_IDS = ["-".join(str(x) for x in run[:4] if x) for run in RUNS]


def simulate_argv(tmp_path, scenario, scheme, horizon, override, backend) -> list:
    """The `simulate` arguments of a table run on `backend`, at seed 7; a
    scalar config is written to `tmp_path` first."""
    if scenario in FIXTURES:
        where = ["--fixture", scenario]
    else:
        path = tmp_path / f"{scenario}.json"
        path.write_text(json.dumps(SCALAR_CONFIGS[scenario]))
        where = ["--config", str(path)]
    return ["simulate", *where, "--scheme", scheme, "--backend", backend, "--horizon",
            str(horizon), "--seed", "7", *(["--override", override] if override else [])]


@pytest.mark.parametrize("scenario,scheme,horizon,override,pad", RUNS, ids=RUN_IDS)
def test_a_lattice_run_at_its_pad_writes_the_mock_trace(capsys, monkeypatch, tmp_path, scenario,
                                                       scheme, horizon, override, pad):
    """Each table run plans, and on the lattice backend, at its planned pad,
    recovers every step and writes the mock run's trace CSV byte for byte;
    a controller of no reference input gets no message from the provider."""
    pads, sized = [], loop.lattice_params

    def recording(plan, horizon):
        params = sized(plan, horizon)
        pads.append(params.lattice.pad_bits)
        return params

    monkeypatch.setattr(loop, "lattice_params", recording)
    for backend in ("lattice", "mock"):
        code, out, err = run_cli(capsys, *simulate_argv(tmp_path, scenario, scheme, horizon,
                                                        override, backend),
                                 "--out", str(tmp_path / backend))
        assert (code, err) == (0, "")
        summary = json.loads(out)
        assert summary["recovery_failures"] == summary["oracle_mismatches"] == 0
        assert (summary["msgs_provider_to_ctrl"] == 0) == (scenario == "no-reference")
    assert pads == [pad]
    assert (tmp_path / "lattice.csv").read_bytes() == (tmp_path / "mock.csv").read_bytes()


def test_the_table_in_one_interpreter(capsys, monkeypatch, tmp_path):
    """A child interpreter, under another hash seed than this one, makes
    each table run on each backend cold, as a fresh process would
    (`kernel._kernels` cleared).  Meanwhile this process makes each twice
    in a row, keeping the kernels and noise tables it builds across plans,
    pads and q overrides: each repeat makes no `compile()` call and builds
    no noise table (a kept one is extended, never rebuilt), and every run
    writes the cold run's CSV, summary and stdout."""
    argvs = [simulate_argv(tmp_path, *run[:4], backend)
             for run in RUNS for backend in ("lattice", "mock")]
    (tmp_path / "runs.json").write_text(json.dumps(argvs))
    code = ("import contextlib, json, sys\n"
            "from encloop import kernel\n"
            "from encloop.cli import main\n"
            "for k, argv in enumerate(json.load(open(f'{sys.argv[1]}/runs.json'))):\n"
            "    kernel._kernels.clear()\n"
            "    prefix = f'{sys.argv[1]}/cold{k}'\n"
            "    with open(f'{prefix}.out', 'w') as out, contextlib.redirect_stdout(out):\n"
            "        assert main(argv + ['--out', prefix]) == 0, argv\n")
    src = str(Path(encloop.__file__).resolve().parents[1])
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
    compiles, tables, compile_, init = [0], [0], compile, loop.NoiseTable.__init__

    def counting_compile(*args):
        compiles[0] += 1
        return compile_(*args)

    def counting_init(table, *args):
        tables[0] += 1
        init(table, *args)

    # `kernel.Source.define` compiles through the name `compile`
    monkeypatch.setattr(kernel, "compile", counting_compile, raising=False)
    monkeypatch.setattr(loop.NoiseTable, "__init__", counting_init)

    def written(prefix, out):
        """A run's stdout `out`, and the CSV and summary JSON it wrote."""
        return (out, *(prefix.with_suffix(x).read_bytes() for x in (".csv", ".json")))

    def made(argv, prefix):
        code, out, err = run_cli(capsys, *argv, "--out", str(prefix))
        assert (code, err) == (0, ""), argv
        return written(prefix, out)

    with subprocess.Popen([sys.executable, "-c", code, str(tmp_path)], env=env,
                          stderr=subprocess.PIPE, text=True) as child:
        warm = []
        for k, argv in enumerate(argvs):
            once = made(argv, tmp_path / f"once{k}")
            before = compiles[0], tables[0]
            warm.append((once, made(argv, tmp_path / f"twice{k}")))
            assert (compiles[0], tables[0]) == before, argv
        assert compiles[0] and tables[0]
        assert (child.communicate(timeout=120)[1], child.returncode) == ("", 0)
    for k, argv in enumerate(argvs):
        prefix = tmp_path / f"cold{k}"
        cold = written(prefix, prefix.with_suffix(".out").read_text())
        assert warm[k] == (cold, cold), argv


@pytest.mark.parametrize("argv,failures", [
    ("--fixture batch-reactor --scheme main --override q=2199023255552", 198),  # 2^41
    ("--fixture coupled-tanks --scheme prelim --override q=32", 199),
], ids=["batch-main-q41", "tanks-prelim-q32"])
def test_a_run_below_its_planned_modulus_counts_every_failure(capsys, tmp_path, argv, failures):
    """Far below the planned modulus, the batch reactor's main lifts fail
    from t = 2 on (its sensor gap passes the float range at t = 54), and the
    tanks' prelim lifts from t = 1 on: of 200 steps, 198 and 199 fail.  On
    each backend the run exits 3 with nothing on stderr and counts them in
    its summary, and the two backends write the same trace CSV."""
    for backend in ("lattice", "mock"):
        prefix = tmp_path / backend
        code, out, err = run_cli(capsys, "simulate", *argv.split(), "--horizon", "200",
                                 "--seed", "7", "--backend", backend, "--out", str(prefix))
        assert (code, err) == (3, "")
        for summary in (out, prefix.with_suffix(".json").read_text()):
            assert json.loads(summary)["recovery_failures"] == failures
    assert (tmp_path / "lattice.csv").read_bytes() == (tmp_path / "mock.csv").read_bytes()


@pytest.mark.parametrize("A,code", [("0.49999999999999999", 0), ("0.50000000000000001", 2)],
                         ids=["below", "above"])
def test_prelim_boundary_plans(capsys, tmp_path, A, code):
    """B = 0 makes A a mode of the closed loop, and F is nilpotent
    (s_F = 1/2): the float radius reads 0.5 at A = 1/2 -+ 10^-17, and only
    the exact Schur-Cohn test tells them apart.  The loop below s_F plans,
    and the one above is infeasible."""
    path = tmp_path / "boundary.json"
    path.write_text(json.dumps(scalar({"A": [[A]], "B": [["0"]]}, {
        "F": [["0", "0.5"], ["0", "0"]], "G": [["-0.1"], ["0"]], "R": [["0"], ["0"]],
        "H": [["0.1", "0"]]})))
    got, out, err = run_cli(capsys, "plan", "--config", str(path), "--scheme", "prelim")
    assert (got, err) == (code, "")
    assert json.loads(out)["feasible"] is (code == 0)


def test_prelim_full_plan_lists_the_integer_matrices(capsys):
    """`plan --full` reports each certificate's integer matrix on the prelim
    route as on the main route."""
    code, out, _ = run_cli(capsys, "plan", "--fixture", "coupled-tanks",
                           "--scheme", "prelim", "--full")
    tanks = FIXTURES["coupled-tanks"]()
    plan = plan_preliminary(tanks.plant, tanks.ctrl, reference_bound=max(
        abs(x) for x in tanks.reference.data))
    assert code == 0
    reported = json.loads(out)["integer_matrices"]
    assert reported == {name: cert.int_rows() for name, cert in plan.certificates.items()}
    assert set(reported) == set(loop.PRELIM_CERTIFICATES.values())


PRELIM_CONFIG = {
    "plant": {"A": [["0.4"]], "B": [["1"]], "C": [["1"]], "x_p0_bound": "1"},
    "controller": {"F": [["0", "1/2"], ["0", "0"]],
                   "G": [["0"], ["0"]], "R": [["0"], ["0"]],
                   "H": [["0.05", "0.15"]], "J": [["0"]], "S": [["0"]],
                   "x0": ["0", "0"]},
    "reference": ["0"],
    "x_p0": ["0.5"],
    "scheme": "prelim",
    "horizon": 40,
}


def test_zero_output_matrix_plans_the_smallest_modulus(capsys, tmp_path):
    """With H = 0 every bound the prelim planner sizes q from is 0; the plan
    still takes q = 4, the smallest modulus an override may set."""
    path = tmp_path / "zero_h.json"
    path.write_text(json.dumps({**PRELIM_CONFIG, "controller": {
        **PRELIM_CONFIG["controller"], "H": [["0", "0"]]}}))
    code, out, _ = run_cli(capsys, "plan", "--config", str(path))
    assert code == 0
    assert json.loads(out)["q"] == "4"
    for backend in ("mock", "lattice"):
        code, out, err = run_cli(capsys, "simulate", "--config", str(path),
                                 "--backend", backend)
        assert code == 0, err
        assert json.loads(out)["recovery_failures"] == 0


def exact_plan_pinned(**pins):
    sc, design = batch_reactor(), batch_reactor_exact_observer()
    return plan_main(sc.plant, sc.ctrl, MainPlanOptions(
        L=design.L, L_exact=design.L, reference=sc.reference, **pins))


def test_override_omega_replans_every_derived_value(capsys):
    code, out, _ = run_cli(capsys, "plan", "--fixture", "batch-reactor",
                           "--observer", "exact", "--override", "omega=1/920000")
    assert code == 0
    rep = json.loads(out)
    assert rep["q"] == str(2**68)
    pinned = exact_plan_pinned(omega=Fraction(1, 920000))
    assert rep == {**pinned.to_json(), "feasible": True}


def test_override_omega_and_l0_equal_the_pinned_plan(capsys):
    code, out, _ = run_cli(capsys, "plan", "--fixture", "batch-reactor",
                           "--observer", "exact", "--override", "omega=1/920000",
                           "--override", "l0=1/1000")
    assert code == 0
    pinned = exact_plan_pinned(omega=Fraction(1, 920000), l0=Fraction(1, 1000))
    assert json.loads(out) == {**pinned.to_json(), "feasible": True}


def test_override_l0_below_the_reference_floor_rejected(capsys):
    code, _, err = run_cli(capsys, "plan", "--fixture", "batch-reactor",
                           "--observer", "exact", "--override", "l0=1e-30")
    assert code == 1
    assert "below" in err


def test_simulate_prelim_rejects_omega_override(capsys):
    code, _, err = run_cli(capsys, "simulate", "--fixture", "coupled-tanks",
                           "--scheme", "prelim", "--horizon", "5",
                           "--override", "omega=1/2")
    assert code == 1
    assert "omega" in err


def test_compare_applies_overrides(capsys):
    code, _, err = run_cli(capsys, "compare", "--fixture", "batch-reactor",
                           "--horizon", "5", "--override", "omega=1/3")
    assert code == 1
    assert "integrality" in err


def test_config_overrides_are_validated(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**PRELIM_CONFIG, "overrides": {"zoom": "0.5"}}))
    code, _, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 1
    assert "zoom" in err


@pytest.mark.parametrize("command", ["plan", "simulate"])
def test_command_line_override_beats_config_override(capsys, tmp_path, command):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**PRELIM_CONFIG, "overrides": {"q": 8}}))
    code, out, _ = run_cli(capsys, command, "--config", str(path),
                           "--override", "q=4096")
    assert code == 0
    rep = json.loads(out)
    assert (rep["plan"] if command == "simulate" else rep)["q"] == "4096"


def test_summary_of_a_run_without_increments_is_strict_json(capsys, tmp_path):
    """A batch reactor at rest (reference and x_p0 all 0) sends only zero
    increments: the summary writes the -inf max log2 increment as null, not
    as the -Infinity that strict JSON parsers reject; the CSV keeps -inf."""
    sc = batch_reactor()

    def rows(M):
        return [[str(x) for x in M.data[i * M.cols:(i + 1) * M.cols]] for i in range(M.rows)]

    cfg = {"plant": {"A": rows(sc.plant.A), "B": rows(sc.plant.B), "C": rows(sc.plant.C),
                     "x_p0_bound": "2"},
           "controller": {"F": rows(sc.ctrl.F), "G": rows(sc.ctrl.G), "R": rows(sc.ctrl.R_ref),
                          "H": rows(sc.ctrl.H), "J": rows(sc.ctrl.J), "S": rows(sc.ctrl.S)},
           "L": rows(sc.L_published), "reference": ["0"] * 4, "x_p0": ["0"] * 4}
    path, prefix = tmp_path / "rest.json", tmp_path / "P"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "simulate", "--config", str(path), "--horizon", "3",
                           "--out", str(prefix))
    assert code == 0

    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")

    for text in (out, (tmp_path / "P.json").read_text()):
        summary = json.loads(text, parse_constant=refuse)
        assert summary["max_log2_increment"] is None and summary["final_diff_inf"] == 0.0
    assert (tmp_path / "P.csv").read_text().splitlines()[1].split(",")[4:8] == ["-inf"] * 4


def test_encryption_error_exits_5(capsys, monkeypatch):
    def overflow(plan, cfg):
        raise he.NoiseOverflowError("noise bound past the declared budget")

    monkeypatch.setattr(loop, "run_closed_loop_main", overflow)
    code, _, err = run_cli(capsys, "simulate", "--fixture", "batch-reactor",
                           "--horizon", "5")
    assert code == 5
    assert err == "encryption error: noise bound past the declared budget\n"


UNOBSERVABLE = {  # C reads the first state only, and A never mixes in the second
    "plant": {"A": [["1/2", "0"], ["0", "1/3"]], "B": [["1"], ["1"]], "C": [["1", "0"]]},
    "controller": {"F": [["1/2"]], "G": [["1"]], "R": [["0"]], "H": [["1"]], "J": [["1"]],
                   "S": [["0"]]},
    "reference": ["0"]}

DIVERGING = {  # a plant of pole 1000 with an output feedback that cancels it exactly
    "plant": {"A": [["1000"]], "B": [["1"]], "C": [["1"]], "x_p0_bound": "1"},
    "controller": {"F": [["0"]], "G": [["0"]], "R": [[]], "H": [["0"]], "J": [["-1000"]],
                   "S": [[]]},
    "x_p0": ["1"], "reference": []}


@pytest.mark.parametrize("argv,code,prefix", [
    ("simulate --fixture batch-reactor --override range_level=1 --horizon 20", 4, ""),
    ("simulate --fixture batch-reactor --scheme prelim", 2, "infeasible: "),
    ("compare --fixture coupled-tanks --scheme prelim", 1,
     "config error: compare measures the main scheme only"),
    ("simulate --config {tmp}/unobservable.json", 1, "planning failed: "),
    ("plan --override q=2", 1, "config error: q override must be >= 4"),
    ("plan --override range_level=0", 1, "config error: range_level override must be >= 1"),
    ("plan --override q=x", 1, "config error: override q='x' is not a number"),
    ("plan --override q", 1, "config error: override 'q' is not key=value"),
    ("plan --config {tmp}/listed.json", 1, "config error: config 'overrides' must be an object"),
    ("plan --config {tmp}/missing.json", 1, "config error: cannot read config: "),
    ("simulate --fixture batch-reactor --override omega=2", 1,
     "config error: pinned omega = 2 does not lie in (0, 1)"),
    ("simulate --fixture batch-reactor --override omega=1/3", 1,
     "config error: A/omega fails integrality at the pinned omega = 1/3"),
    ("simulate --horizon 60 --override q=2199023255552", 3, ""),
    ("simulate --fixture coupled-tanks --scheme main --horizon 1000 --override q=16", 3, ""),
    ("simulate --config {tmp}/diverging.json --scheme main --observer exact --horizon 200 "
     "--override q=16", 3, ""),
], ids=["saturation", "infeasible-simulate", "compare-prelim", "unobservable", "q-below-min",
        "range-level-0", "q-not-a-number", "override-without-value", "overrides-a-list",
        "unreadable-config", "omega-outside-0-1", "omega-not-integerizing",
        "recovery-gap-past-float-range", "recovery-tanks-q-16", "recovery-plant-past-float-range"])
def test_exit_code_of_each_failure(capsys, tmp_path, argv, code, prefix):
    """Each failure exits with its documented code and names itself on
    stderr; a run whose recovery fails, or that saturates, prints its
    summary and nothing on stderr.  The first two recovery failures drive
    the sensor gap past the float range, which the trace records as its
    log2; the third drives the exact plant state past it, whose final
    floats are then infinities."""
    (tmp_path / "unobservable.json").write_text(json.dumps(UNOBSERVABLE))
    (tmp_path / "diverging.json").write_text(json.dumps(DIVERGING))
    (tmp_path / "listed.json").write_text(json.dumps({**UNOBSERVABLE, "overrides": ["q=8"]}))
    got, out, err = run_cli(capsys, *shlex.split(argv.format(tmp=tmp_path)))
    assert got == code
    if prefix:
        assert err.startswith(prefix) and not out
    else:
        failures = {3: "recovery_failures", 4: "saturation_count"}[code]
        assert err == "" and json.loads(out)[failures] > 0


def documented_exit_codes(text: str) -> dict:
    """{code: meaning} from an 'Exit codes: 0 success, 1 ....' sentence."""
    sentence = text.split("Exit codes:", 1)[1].split(".", 1)[0]
    return {int(code): " ".join(meaning.split())
            for code, meaning in re.findall(r"`?(\d+)`? ([^,]+)", sentence)}


def test_exit_codes_documented_as_defined():
    defined = {v for k, v in vars(cli).items() if k.startswith("EXIT_")}
    in_doc = documented_exit_codes(cli.__doc__)
    readme = Path(__file__).resolve().parents[1] / "README.md"
    in_readme = documented_exit_codes(readme.read_text())
    assert set(in_doc) == defined
    assert in_readme == in_doc


def _plan_digest(plan) -> str:
    """SHA-256 over a plan's exact fields: the scales, the modulus, the
    quantizer range, the observer report, the gain, the dimensions and every
    certificate's scale and integer rows.  The float bounds are left out, as
    their last bits follow the order of float operations, which is no part
    of the plan."""
    fields = [(name, getattr(plan, name)) for name in (
        "omega", "s1", "s2", "l0", "q", "range_level", "deadbeat_index",
        "tail_sound", "L", "dims") if hasattr(plan, name)]
    certs = [(name, cert.scale, cert.int_rows())
             for name, cert in sorted(plan.certificates.items())]
    h = hashlib.sha256()
    for part in (fields, certs):
        h.update(repr(part).encode())
    return h.hexdigest()


GOLDEN_PLANS = [
    # (fixture, scheme, observer, overrides, digest)
    ("batch-reactor", "main", "published", [],
     "051b9f91daa483342ce8a9d5179408a4407b734b0fd8ceaed75dad69b6673a8c"),
    ("batch-reactor", "main", "exact", [],
     "95cb9389047e8dc77e3c8f51727d9fab6a93933ccbbb84c3133a2210947ac2e2"),
    ("batch-reactor", "main", "exact", ["omega=1/920000"],
     "089b9029e2cd5f2438f86c52ca081de3441ffa4126e8b998a0725544613d3024"),
    ("coupled-tanks", "prelim", "exact", [],
     "13ea31434636e086c0fae5878d903e3d85233bafb8e07057caa7fcf216803227"),
]


@pytest.mark.parametrize("fixture,scheme,observer,overrides,digest", GOLDEN_PLANS,
                         ids=[f"{g[0]}-{g[1]}-{g[2]}{'-pinned' if g[3] else ''}"
                              for g in GOLDEN_PLANS])
def test_golden_plan(fixture, scheme, observer, overrides, digest):
    """Every exact plan field stays bit-identical along the CLI's planning
    path (observer resolution, pins, both schemes)."""
    args = argparse.Namespace(scheme=scheme, observer=observer, override=overrides)
    plan = cli._plan(args, FIXTURES[fixture](), {})
    assert _plan_digest(plan) == digest


def _float_digest(values) -> str:
    """SHA-256 over the repr of floats: their shortest round-trip strings."""
    return hashlib.sha256(repr(values).encode()).hexdigest()


GOLDEN_PLAN_FLOATS = [
    # (fixture, observer, digest) of a main plan's float fields
    ("batch-reactor", "published",
     "6ad1ec5fbc0f826086e401bb18f0270f62d468b079a9d0b1947cd68cf038d4fa"),
    ("batch-reactor", "exact",
     "762076f8fe8e702c14572a2d0fe69cead6eb0de47cc13e3e5706295d28d3ea08"),
    ("coupled-tanks", "exact",
     "a72c047748010e9a69303a6a2be0d3afe1144fd5a489a153e8528d539c0e2b28"),
]


@pytest.mark.parametrize("fixture,observer,digest", GOLDEN_PLAN_FLOATS,
                         ids=[f"{g[0]}-{g[1]}" for g in GOLDEN_PLAN_FLOATS])
def test_golden_plan_floats(fixture, observer, digest):
    """A main plan's float fields, which `_plan_digest` leaves out, are the
    same on every supported Python: each bound is an exact Fraction rounded
    once, and each radius comes from an exact characteristic polynomial."""
    args = argparse.Namespace(scheme="main", observer=observer, override=[])
    plan = cli._plan(args, FIXTURES[fixture](), {})
    values = [(name, getattr(plan, name)) for name in (
        "C_e", "q_bound", "bootstrap_bound", "rho_observer", "rho_observer_eig",
        "rho_observer_grid")]
    assert _float_digest(values) == digest


GOLDEN_RUN_FLOATS = [
    # (fixture, scheme, digest) of a mock run at H=40, seed 7
    ("batch-reactor", "main",
     "b54da239f947645d83a1a8d97e38937936b1879a54ebde86afacdfd366f06cc3"),
    ("coupled-tanks", "prelim",
     "a24645f8c8372eb65712b5a346095bee0dcf5810448c31a9f8a3be5d372e0a75"),
]


@pytest.mark.parametrize("fixture,scheme,digest", GOLDEN_RUN_FLOATS,
                         ids=[f"{g[0]}-{g[1]}" for g in GOLDEN_RUN_FLOATS])
def test_golden_run_floats(capsys, tmp_path, fixture, scheme, digest):
    """A run's float columns (u_true_* and diff_inf) and its final_diff_inf,
    which the `GOLDEN` digests of test_loop leave out, are the same on every
    supported Python: the reference loop sums its dot products left to
    right."""
    out = tmp_path / "run"
    code, _, _ = run_cli(capsys, "simulate", "--fixture", fixture, "--scheme", scheme,
                         "--horizon", "40", "--seed", "7", "--out", str(out))
    assert code == 0
    with open(f"{out}.csv", newline="") as f:
        columns = [[v for k, v in row.items() if k.startswith("u_true_") or k == "diff_inf"]
                   for row in csv.DictReader(f)]
    final = json.loads(Path(f"{out}.json").read_text())["final_diff_inf"]
    assert _float_digest((columns, final)) == digest


def test_python_dash_m_runs_the_cli():
    src = str(Path(encloop.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-m", "encloop", "plan", "--fixture",
                           "coupled-tanks", "--scheme", "prelim"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["q"]


def test_no_route_imports_numpy_or_scipy():
    """encloop's runtime needs neither numpy nor scipy: in a fresh
    interpreter whose `sys.meta_path` refuses to import either, planning with
    both observer modes and on the prelim route, and simulating both routes
    on both backends at a short horizon, each return 0."""
    code = (
        "import sys\n"
        "class Refuse:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] in ('numpy', 'scipy'):\n"
        "            raise ImportError(f'{name} is refused')\n"
        "sys.meta_path.insert(0, Refuse())\n"
        "from encloop.cli import main\n"
        "runs = [['plan', '--fixture', 'batch-reactor', '--observer', 'published'],\n"
        "        ['plan', '--fixture', 'batch-reactor', '--observer', 'exact'],\n"
        "        ['plan', '--fixture', 'coupled-tanks', '--scheme', 'prelim']]\n"
        "for backend in ['mock', 'lattice']:\n"
        "    for fixture, scheme in [('batch-reactor', 'main'), ('coupled-tanks', 'prelim')]:\n"
        "        runs.append(['simulate', '--fixture', fixture, '--scheme', scheme,\n"
        "                     '--backend', backend, '--horizon', '5'])\n"
        "for argv in runs:\n"
        "    assert main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))\n"
    )
    src = str(Path(encloop.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"


def test_import_loads_neither_dataclasses_nor_inspect():
    """Every command is a fresh process that pays for `import encloop`: in
    a fresh interpreter it loads neither `dataclasses`, which compiles each
    record's methods as the class is made, nor `inspect`, which
    `dataclasses` imports (`encloop.records`)."""
    code = ("import sys\n"
            "import encloop, encloop.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    src = str(Path(encloop.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("spec", ["n=4", "n=4,n_x=4", "n=4,n_x=x,w=1", "n=4,n_x=4,w",
                                  "n=4,n_x=4,w=10,q=3", "n=4,n_x=-1,w=1"])
def test_compare_hypothetical_rejects_bad_dimensions(capsys, spec):
    code, _, err = run_cli(capsys, "compare", "--hypothetical", spec)
    assert code == 1
    assert err.startswith("config error: ")


@pytest.mark.parametrize("observer", ["exact"])
def test_unknown_config_scheme_rejected(capsys, tmp_path, observer):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**PRELIM_CONFIG, "scheme": "foo"}))
    code, _, err = run_cli(capsys, "plan", "--config", str(path),
                           "--observer", observer)
    assert code == 1
    assert err.startswith("config error: ") and "foo" in err


@pytest.mark.parametrize("command", ["plan", "simulate"])
@pytest.mark.parametrize("key,value", [("reference", ["0", "0"]),
                                       ("x_p0", ["0.5", "0.5"])],
                         ids=["reference", "x_p0"])
def test_config_vector_of_wrong_length_rejected(capsys, tmp_path, key, value,
                                                command):
    # one entry too many: the controller takes one reference, the plant has
    # one state
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**PRELIM_CONFIG, key: value}))
    horizon = [] if command == "plan" else ["--horizon", "3"]
    code, _, err = run_cli(capsys, command, "--config", str(path), *horizon)
    assert code == 1
    assert err.startswith("config error: bad config: ") and key in err


@pytest.mark.parametrize("horizon", ["0", "-3"])
def test_nonpositive_horizon_rejected(capsys, horizon):
    code, _, err = run_cli(capsys, "simulate", "--fixture", "coupled-tanks",
                           "--scheme", "prelim", "--horizon", horizon)
    assert code == 1
    assert err.startswith("config error: ") and "horizon" in err


def test_nonpositive_config_horizon_rejected(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**PRELIM_CONFIG, "horizon": -3}))
    code, _, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 1
    assert err.startswith("config error: ") and "horizon" in err


RUN_SETTINGS = [("backend", "foo"),
                ("horizon", [1]), ("horizon", 2.7), ("horizon", True), ("horizon", "x"),
                ("seed", [1]), ("seed", 2.7), ("seed", True)]


@pytest.mark.parametrize("key,value", RUN_SETTINGS,
                         ids=[f"{k}={json.dumps(v)}" for k, v in RUN_SETTINGS])
def test_config_run_setting_rejected(capsys, tmp_path, key, value):
    """A config's backend is mock or lattice, and its horizon and seed are
    JSON integers or strings of one, like the flags that set them."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**PRELIM_CONFIG, key: value}))
    code, _, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 1
    assert err.startswith("config error: ") and key in err


def test_config_run_settings_as_strings(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**PRELIM_CONFIG, "horizon": "7", "seed": "3",
                                "backend": "lattice"}))
    code, out, _ = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 0
    summary = json.loads(out)
    assert (summary["steps"], summary["seed"], summary["backend"]) == (7, 3, "lattice")


@pytest.mark.parametrize("argv", [
    ["sweep", "--fixture", "coupled-tanks"],
    ["simulate", "--backend", "foo"],
    ["simulate", "--horizon", "x"],
], ids=["unknown-command", "bad-choice", "bad-int"])
def test_usage_error_is_a_config_error(capsys, argv):
    """argparse's own exit 2 would read as "infeasible"."""
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: encloop") and "\nconfig error: " in err


@pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]],
                         ids=["encloop", "simulate"])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: encloop")


def readme_cli_lines() -> list:
    """The `encloop ...` commands of the README's CLI block, with their
    continuation lines joined, each with the exit code its comment states."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    out = []
    for line in block.replace("\\\n", " ").splitlines():
        command, _, comment = line.partition("#")
        if command.strip():
            out.append((shlex.split(command), 2 if "exit 2" in comment else 0))
    return out


def test_readme_cli_examples_run_as_written(capsys, tmp_path):
    """Each command exits as its comment states: only the batch reactor's
    prelim plan exits 2 (infeasible), and every other command exits 0."""
    lines = readme_cli_lines()
    assert lines and all(argv[0] == "encloop" for argv, _ in lines)
    assert [argv[1:] for argv, want in lines if want == 2] == [
        ["plan", "--fixture", "batch-reactor", "--scheme", "prelim"]]
    for argv, want in lines:
        argv = argv[1:]
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv[i] = str(tmp_path / Path(argv[i]).name)
        assert main(argv) == want, " ".join(argv)
        capsys.readouterr()


@pytest.mark.parametrize("overrides,below", [
    ([], None),
    (["q=0x20000000000"], ["q"]),                    # 2^41 < 2^65
    (["q=0x200000000000000000"], None),              # 2^69 > 2^65
    (["q=0x20000000000", "range_level=1"], ["q", "range_level"]),
])
def test_plan_lists_overrides_below_the_plan(capsys, overrides, below):
    argv = ["plan", "--fixture", "batch-reactor", "--observer", "exact"]
    for item in overrides:
        argv += ["--override", item]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out).get("overrides_below_plan") == below


def test_exact_observer_needs_a_rounding_of_the_design(capsys, tmp_path):
    """The design for A = 0.4, C = 1 is L = 0.4.  A published 0.7 is not its
    rounding to one decimal, so `exact` has no companion; `published` plans,
    and so does `exact` once the config drops "L"."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**PRELIM_CONFIG, "scheme": "main", "L": [["0.7"]]}))
    code, _, err = run_cli(capsys, "plan", "--config", str(path), "--observer", "exact")
    assert code == 1
    assert err.startswith("config error: ") and "rounding" in err and '"L"' in err
    code, out, _ = run_cli(capsys, "plan", "--config", str(path), "--observer", "published")
    assert code == 0
    assert json.loads(out)["L"] == [["7/10"]]
    path.write_text(json.dumps({**PRELIM_CONFIG, "scheme": "main"}))
    code, out, _ = run_cli(capsys, "plan", "--config", str(path), "--observer", "exact")
    assert code == 0
    assert json.loads(out)["L"] == [["2/5"]]


@pytest.mark.parametrize("argv", [
    ["plan", "--fixture", "coupled-tanks", "--scheme", "prelim"],
    ["simulate", "--fixture", "coupled-tanks", "--scheme", "prelim", "--horizon", "3"],
], ids=["plan", "simulate"])
def test_unwritable_out_is_a_config_error(capsys, tmp_path, argv):
    out = tmp_path / "missing" / "run"
    code, _, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 1
    assert err.startswith("config error: cannot write ") and "missing" in err



class ClosedStdout:
    """A stdout whose reader has gone, as after `| head`: a write raises
    `BrokenPipeError`."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


@pytest.mark.parametrize("argv,want", [
    (["plan", "--fixture", "coupled-tanks", "--scheme", "main", "--observer", "exact"], 0),
    (["plan", "--fixture", "batch-reactor", "--scheme", "prelim"], 2),
    (["simulate", "--fixture", "coupled-tanks", "--scheme", "prelim", "--horizon", "3"], 0),
    (["compare", "--hypothetical", "n=4,n_x=4,w=10"], 0),
], ids=["plan", "infeasible-plan", "simulate", "compare"])
def test_closed_stdout_keeps_the_exit_code(capsys, monkeypatch, argv, want):
    """A reader that stops early is no config error: nothing on stderr, and
    the exit code the command has with stdout open."""
    monkeypatch.setattr(sys, "stdout", ClosedStdout())
    assert main(argv) == want
    assert capsys.readouterr().err == ""


def test_plan_without_a_published_gain_names_the_exact_observer(capsys):
    """`plan` defaults to the published gain, which the coupled tanks lack."""
    code, out, err = run_cli(capsys, "plan", "--fixture", "coupled-tanks", "--scheme", "main")
    assert (code, out) == (1, "")
    assert err == ("config error: scenario carries no published observer gain; "
                   "--observer exact runs the minimal-index deadbeat design\n")

INEXACT_ENTRIES = [
    # (id, path of the key in the config, value)
    ("reference-float", ("reference",), [0.1]),
    ("reference-string", ("reference",), "3"),
    ("x_p0-float", ("x_p0",), [0.5]),
    ("x_p0-string", ("x_p0",), "5"),
    ("x0-float", ("controller", "x0"), [0, 0.5]),
    ("x_p0_bound-float", ("plant", "x_p0_bound"), 0.1),
    ("x_p0_bound-bool", ("plant", "x_p0_bound"), True),
    ("l0-float", ("overrides", "l0"), 0.5),
]


@pytest.mark.parametrize("path,value", [e[1:] for e in INEXACT_ENTRIES],
                         ids=[e[0] for e in INEXACT_ENTRIES])
def test_config_entry_under_the_matrix_rule(capsys, tmp_path, path, value):
    """Every exact config entry follows the matrix-entry rule: vectors are
    JSON lists, and bare floats and booleans are rejected."""
    cfg = json.loads(json.dumps({**PRELIM_CONFIG, "scheme": "main"}))
    *parents, key = path
    node = cfg
    for name in parents:
        node = node.setdefault(name, {})
    node[key] = value
    file = tmp_path / "cfg.json"
    file.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "plan", "--config", str(file), "--observer", "exact")
    assert code == 1
    assert err.startswith("config error: ") and key in err


@pytest.mark.parametrize("command", ["plan", "simulate"])
@pytest.mark.parametrize("scheme", ["main", "prelim"])
def test_initial_state_outside_its_bound_rejected(capsys, tmp_path, scheme, command):
    """Every plan is sized from x_p0_bound, so an x_p0 entry beyond it is a
    config error naming both values, not a run that saturates (the README
    config with "x_p0": ["1234.567"] used to exit 3 on the main route)."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**PRELIM_CONFIG, "scheme": scheme,
                                "x_p0": ["1234.567"]}))
    horizon = [] if command == "plan" else ["--horizon", "5"]
    code, _, err = run_cli(capsys, command, "--config", str(path), *horizon)
    assert code == 1
    assert err.startswith("config error: bad config: ")
    assert "1234567/1000" in err and "x_p0_bound 1" in err


@pytest.mark.parametrize("x_p0,bound,ok", [(["-1"], "1", True), (["1/2"], None, False),
                                           (["0"], None, True), (["-1.01"], "1", False)],
                         ids=["at-bound", "absent-bound", "zero-absent-bound", "negative"])
def test_initial_state_bound_edges(capsys, tmp_path, x_p0, bound, ok):
    cfg = json.loads(json.dumps({**PRELIM_CONFIG, "x_p0": x_p0}))
    if bound is None:
        del cfg["plant"]["x_p0_bound"]
    else:
        cfg["plant"]["x_p0_bound"] = bound
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "plan", "--config", str(path))
    assert code == (0 if ok else 1), err


def test_fixture_initial_states_within_their_bounds():
    for make in FIXTURES.values():
        sc = make()
        assert max(abs(x) for x in sc.x_p0) <= sc.plant.x_p0_bound
        with pytest.raises(ValueError, match="exceeds x_p0_bound"):
            replace(sc, x_p0=(sc.plant.x_p0_bound + 1, *sc.x_p0[1:]))


OUT_OF_RANGE_ENTRIES = [
    # (id, scheme, command, {key path: value}, words the message names)
    ("B-zero-denominator-plan", "prelim", "plan", {("plant", "B"): [["1/0"]]},
     "zero denominator"),
    ("B-zero-denominator-simulate", "prelim", "simulate", {("plant", "B"): [["1/0"]]},
     "zero denominator"),
    ("x_p0_bound-plan", "prelim", "plan", {("plant", "x_p0_bound"): "1e400"}, "float range"),
    ("x_p0_bound-simulate", "prelim", "simulate", {("plant", "x_p0_bound"): "1e400"},
     "float range"),
    # `plan` runs the published gain, here the deadbeat one of A = 0.4, C = 1
    ("x_p0_bound-main-plan", "main", "plan",
     {("plant", "x_p0_bound"): "1e400", ("L",): [["0.4"]]}, "float range"),
    ("x_p0_bound-main-simulate", "main", "simulate", {("plant", "x_p0_bound"): "1e400"},
     "float range"),
    # the prelim bounds are exact, and only their reported values are floats:
    # a value outranges them where a matrix reads it (S the reference, J the
    # 1/s2 that a tiny H makes); a reference that no matrix reads outranges
    # the float reference loop of a run
    ("reference-plan", "prelim", "plan",
     {("reference",): ["1e400"], ("controller", "S"): [["0.1"]]}, "float range"),
    ("reference-simulate", "prelim", "simulate", {("reference",): ["1e400"]}, "float range"),
    ("H-underflow-plan", "prelim", "plan",
     {("controller", "H"): [["1e-400", "0"]], ("controller", "J"): [["-0.1"]]},
     "float range"),
]


@pytest.mark.parametrize("scheme,command,edits,words",
                         [e[1:] for e in OUT_OF_RANGE_ENTRIES],
                         ids=[e[0] for e in OUT_OF_RANGE_ENTRIES])
def test_entry_outside_the_planners_range_rejected(capsys, tmp_path, scheme, command,
                                                   edits, words):
    """A zero denominator, or an exact value beyond the float range of the
    planner's bounds, is a one-line config error, not a traceback."""
    cfg = json.loads(json.dumps({**PRELIM_CONFIG, "scheme": scheme}))
    for path, value in edits.items():
        *parents, key = path
        node = cfg
        for name in parents:
            node = node[name]
        node[key] = value
    file = tmp_path / "cfg.json"
    file.write_text(json.dumps(cfg))
    horizon = [] if command == "plan" else ["--horizon", "3"]
    code, _, err = run_cli(capsys, command, "--config", str(file), *horizon)
    assert code == 1
    assert err.startswith("config error: ") and words in err
    assert err.count("\n") == 1
