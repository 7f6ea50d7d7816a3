import json

from encloop.cli import main


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
    assert "9" in out and "2" in out     # measured 9 vs analytic 2w
    assert "0 Enc" in out
    assert "re-encryption favored" in out


def test_compare_hypothetical_wide_input(capsys):
    code, out, _ = run_cli(capsys, "compare", "--hypothetical", "n=4,n_x=4,w=10")
    assert code == 0
    assert "re-encryption-free scheme favored" in out


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


def test_sweep_aggregates_runs(capsys, tmp_path):
    out_path = str(tmp_path / "sweep.json")
    code, out, _ = run_cli(capsys, "sweep", "--fixture", "coupled-tanks",
                           "--scheme", "prelim", "--horizon", "30",
                           "--seeds", "3", "--jobs", "2", "--out", out_path)
    assert code == 0
    rep = json.loads(out)
    assert len(rep["runs"]) == 3
    assert rep["total_recovery_failures"] == 0
    assert {r["seed"] for r in rep["runs"]} == {0, 1, 2}


def test_unknown_fixture(capsys):
    code, _, err = run_cli(capsys, "plan", "--fixture", "nope")
    assert code == 1
    assert "unknown fixture" in err


def test_zero_matrix_controller_rejected(capsys, tmp_path):
    cfg = {
        "plant": {"A": [["0.4"]], "B": [["1"]], "C": [["1"]]},
        "controller": {"F": [["0"]], "G": [["0"]], "R": [["0"]],
                       "H": [["0"]], "J": [["0"]], "S": [["0"]]},
        "reference": ["0"],
    }
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "plan", "--config", str(path),
                           "--scheme", "prelim")
    assert code == 1
    assert "zero" in err.lower()
