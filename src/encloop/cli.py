"""Command-line front end: plan parameters, run the closed loop, compare overheads.

Exit codes: 0 success, 1 config/validation error, 2 infeasible,
3 runtime recovery failure, 4 quantizer saturation.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import he, loop
from .exactmat import (
    ExactMatError,
    RationalMatrix,
    fraction_to_str,
    is_integer_after_scale,
    matrix_from_json,
)
from .fixtures import FIXTURES, Scenario, batch_reactor_exact_observer
from .planner import (
    ControllerModel,
    InfeasibleError,
    MainPlan,
    MainPlanOptions,
    NoIntegerOmegaError,
    NotObservableError,
    PlannerError,
    PlantModel,
    _main_integer_targets,
    check_prelim_feasible,
    design_deadbeat_observer,
    plan_main,
    plan_preliminary,
    recover_exact_deadbeat,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_RECOVERY = 3
EXIT_SATURATION = 4


class ConfigError(Exception):
    pass


def _load_scenario(args) -> tuple:
    """Returns (Scenario, config dict)."""
    if args.config:
        try:
            with open(args.config) as f:
                cfg = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config: {e}")
        try:
            p = cfg["plant"]
            c = cfg["controller"]
            plant = PlantModel(
                A=matrix_from_json(p["A"], "A"),
                B=matrix_from_json(p["B"], "B"),
                C=matrix_from_json(p["C"], "C"),
                x_p0_bound=Fraction(str(p.get("x_p0_bound", "0"))),
            )
            ctrl = ControllerModel(
                F=matrix_from_json(c["F"], "F"),
                G=matrix_from_json(c["G"], "G"),
                R_ref=matrix_from_json(c["R"], "R"),
                H=matrix_from_json(c["H"], "H"),
                J=matrix_from_json(c["J"], "J"),
                S=matrix_from_json(c["S"], "S"),
                x0=RationalMatrix.column([str(x) for x in c.get(
                    "x0", ["0"] * matrix_from_json(c["F"], "F").rows)]),
            )
            reference = RationalMatrix.column([str(x) for x in cfg["reference"]])
            x_p0 = tuple(Fraction(str(x)) for x in cfg.get(
                "x_p0", ["0"] * plant.n))
            L = matrix_from_json(cfg["L"], "L") if "L" in cfg else None
            sc = Scenario("config", plant, ctrl, reference, x_p0, L_published=L)
        except (KeyError, ValueError, TypeError) as e:
            raise ConfigError(f"bad config: {e}")
        return sc, cfg
    name = args.fixture or "batch-reactor"
    if name not in FIXTURES:
        raise ConfigError(f"unknown fixture {name!r}; have {sorted(FIXTURES)}")
    return FIXTURES[name](), {}


def _parse_overrides(pairs):
    out = {}
    allowed = {"q", "omega", "s1", "s2", "l0", "range_level"}
    for item in pairs or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        k, v = item.split("=", 1)
        if k not in allowed:
            raise ConfigError(f"unknown override {k!r}; allowed: {sorted(allowed)}")
        out[k] = v
    return out


def _observer_for(scenario: Scenario, mode: str):
    """Resolve the observer gain pair (runtime L, exact companion) for a scenario."""
    if mode == "published":
        if scenario.L_published is None:
            raise ConfigError("scenario carries no published observer gain")
        L = scenario.L_published
        rec = recover_exact_deadbeat(scenario.plant.A, scenario.plant.C, L)
        return L, (rec.L if rec is not None else None)
    if mode == "exact":
        if scenario.L_published is not None:
            if scenario.name == "batch-reactor":
                design = batch_reactor_exact_observer()
            else:
                design = recover_exact_deadbeat(
                    scenario.plant.A, scenario.plant.C, scenario.L_published)
            if design is None:
                raise ConfigError("no exact deadbeat companion near the published gain")
            return design.L, design.L
        design = design_deadbeat_observer(scenario.plant.A, scenario.plant.C)
        return design.L, design.L
    if mode == "design":
        design = design_deadbeat_observer(scenario.plant.A, scenario.plant.C)
        return design.L, design.L
    raise ConfigError(f"unknown observer mode {mode!r}")


def _build_main_plan(scenario: Scenario, observer_mode: str) -> MainPlan:
    L, L_exact = _observer_for(scenario, observer_mode)
    return plan_main(
        scenario.plant, scenario.ctrl,
        MainPlanOptions(L=L, L_exact=L_exact, reference=scenario.reference),
    )


def _apply_overrides(plan: MainPlan, overrides: dict, scenario: Scenario) -> MainPlan:
    """Substitute overridden values, re-running the exact validations the
    planner ran; reject anything that breaks a certificate."""
    from dataclasses import replace

    if not overrides:
        return plan
    plant, ctrl = scenario.plant, scenario.ctrl
    kw = {}
    if "omega" in overrides:
        omega = Fraction(overrides["omega"])
        if not (0 < omega < 1):
            raise ConfigError("omega override must lie in (0, 1)")
        targets = _main_integer_targets(plant, ctrl, plan.L, plan.s2)
        certs = dict(plan.certificates)
        for name, mat in targets.items():
            ok, cert = is_integer_after_scale(mat, omega, source=name)
            if not ok:
                raise ConfigError(f"omega override breaks integrality of {name}")
            certs[name] = cert
        kw["omega"] = omega
        kw["certificates"] = certs
    for key in ("s1", "s2"):
        if key in overrides:
            raise ConfigError(f"{key} cannot be overridden without re-planning; "
                              "edit the config instead")
    if "l0" in overrides:
        l0 = Fraction(overrides["l0"])
        if l0 <= 0:
            raise ConfigError("l0 override must be positive")
        for x in ctrl.x0.data:
            if (x / l0).denominator != 1:
                raise ConfigError("l0 override does not divide the controller "
                                  "initial state exactly")
        kw["l0"] = l0
    if "q" in overrides:
        q = int(overrides["q"], 0)
        if q < 4:
            raise ConfigError("q override must be >= 4")
        kw["q"] = q
    if "range_level" in overrides:
        r = int(overrides["range_level"], 0)
        if r < 1:
            raise ConfigError("range_level override must be >= 1")
        kw["range_level"] = r
    return replace(plan, **kw)


def _apply_prelim_overrides(plan, overrides, scenario):
    from dataclasses import replace

    if not overrides:
        return plan
    kw = {}
    if "q" in overrides:
        q = int(overrides["q"], 0)
        if q < 4:
            raise ConfigError("q override must be >= 4")
        kw["q"] = q
    for key in ("omega", "s1", "s2", "l0", "range_level"):
        if key in overrides:
            raise ConfigError(f"{key} override is not supported for the prelim scheme")
    return replace(plan, **kw)


def cmd_plan(args) -> int:
    scenario, cfg = _load_scenario(args)
    scheme = args.scheme or cfg.get("scheme", "main")
    if scheme == "prelim":
        report = check_prelim_feasible(scenario.plant, scenario.ctrl)
        if not report.feasible:
            print(json.dumps({
                "scheme": "prelim",
                "feasible": False,
                "rho_c": report.rho_c,
                "s_F": fraction_to_str(report.s_F),
                "reason": report.reason,
            }, indent=2, sort_keys=True))
            return EXIT_INFEASIBLE
        ref_bound = max((abs(x) for x in scenario.reference.data), default=Fraction(0))
        plan = plan_preliminary(scenario.plant, scenario.ctrl, reference_bound=ref_bound)
        out = plan.to_json()
        out["feasible"] = True
    else:
        plan = _build_main_plan(scenario, args.observer)
        plan = _apply_overrides(plan, _parse_overrides(args.override), scenario)
        out = plan.to_json(include_integer_matrices=args.full)
        out["feasible"] = True
    text = json.dumps(out, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    print(text)
    return EXIT_OK


def _backend_params(backend: str, plan, scenario, horizon: int) -> he.SchemeParams:
    if backend == "mock":
        return he.SchemeParams.mock(plan.q)
    if isinstance(plan, MainPlan):
        return loop.lattice_params_for_main(plan, plan.dims, horizon)
    width = max(scenario.plant.n, scenario.ctrl.n_x, scenario.ctrl.w,
                scenario.ctrl.n_r, scenario.plant.v)
    return loop.lattice_params(plan.q, width, horizon)


def cmd_simulate(args) -> int:
    scenario, cfg = _load_scenario(args)
    scheme = args.scheme or cfg.get("scheme", "main")
    backend = args.backend or cfg.get("backend", "mock")
    horizon = args.horizon or int(cfg.get("horizon", 100))
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    overrides = _parse_overrides(args.override)
    overrides.update({k: str(v) for k, v in cfg.get("overrides", {}).items()})

    if scheme == "prelim":
        report = check_prelim_feasible(scenario.plant, scenario.ctrl)
        if not report.feasible:
            print(report.reason, file=sys.stderr)
            return EXIT_INFEASIBLE
        ref_bound = max((abs(x) for x in scenario.reference.data), default=Fraction(0))
        plan = plan_preliminary(scenario.plant, scenario.ctrl, reference_bound=ref_bound)
        plan = _apply_prelim_overrides(plan, overrides, scenario)
        run = loop.run_closed_loop_prelim
    else:
        plan = _build_main_plan(scenario, args.observer)
        plan = _apply_overrides(plan, overrides, scenario)
        run = loop.run_closed_loop_main

    params = _backend_params(backend, plan, scenario, horizon)
    trace = run(plan, loop.RunConfig(
        plant=scenario.plant, ctrl=scenario.ctrl, reference=scenario.reference,
        x_p0=scenario.x_p0, horizon=horizon, params=params, seed=seed,
    ))
    summary = trace.summary()
    summary["plan"] = plan.to_json()
    summary["backend"] = backend
    summary["seed"] = seed
    if args.out:
        trace.to_csv(args.out + ".csv")
        with open(args.out + ".json", "w") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
            f.write("\n")
    print(json.dumps(summary, indent=2, sort_keys=True))
    if trace.recovery_failures:
        return EXIT_RECOVERY
    if trace.saturation_count:
        return EXIT_SATURATION
    return EXIT_OK


def _sweep_one(payload):
    scenario, scheme, plan, params, horizon, seed = payload
    run = loop.run_closed_loop_prelim if scheme == "prelim" else loop.run_closed_loop_main
    trace = run(plan, loop.RunConfig(
        plant=scenario.plant, ctrl=scenario.ctrl, reference=scenario.reference,
        x_p0=scenario.x_p0, horizon=horizon, params=params, seed=seed,
    ))
    out = trace.summary()
    out["seed"] = seed
    return out


def cmd_sweep(args) -> int:
    """Fan independent seeded runs out over a process pool."""
    from concurrent.futures import ProcessPoolExecutor

    scenario, cfg = _load_scenario(args)
    scheme = args.scheme or cfg.get("scheme", "main")
    horizon = args.horizon or int(cfg.get("horizon", 100))
    if scheme == "prelim":
        ref_bound = max((abs(x) for x in scenario.reference.data), default=Fraction(0))
        plan = plan_preliminary(scenario.plant, scenario.ctrl, reference_bound=ref_bound)
    else:
        plan = _build_main_plan(scenario, args.observer)
        plan = _apply_overrides(plan, _parse_overrides(args.override), scenario)
    backend = args.backend or cfg.get("backend", "mock")
    params = _backend_params(backend, plan, scenario, horizon)
    jobs = [(scenario, scheme, plan, params, horizon, s) for s in range(args.seeds)]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_sweep_one, jobs))
    else:
        results = [_sweep_one(j) for j in jobs]
    report = {
        "runs": results,
        "total_recovery_failures": sum(r["recovery_failures"] for r in results),
        "total_saturations": sum(r["saturation_count"] for r in results),
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    print(text)
    if report["total_recovery_failures"]:
        return EXIT_RECOVERY
    if report["total_saturations"]:
        return EXIT_SATURATION
    return EXIT_OK


def cmd_compare(args) -> int:
    if args.hypothetical:
        dims = {}
        for part in args.hypothetical.split(","):
            k, v = part.split("=")
            dims[k.strip()] = int(v)
        n, n_x, w = dims["n"], dims["n_x"], dims["w"]
        measured = None
    else:
        scenario, _ = _load_scenario(args)
        plan = _build_main_plan(scenario, args.observer)
        params = he.SchemeParams.mock(plan.q)
        trace = loop.run_closed_loop_main(plan, loop.RunConfig(
            plant=scenario.plant, ctrl=scenario.ctrl, reference=scenario.reference,
            x_p0=scenario.x_p0, horizon=args.horizon, params=params, seed=0,
        ))
        d = plan.dims
        n, n_x, w = d["n"], d["n_x"], d["w"]
        measured = trace

    rows = [
        ("", "with re-encryption", "re-encryption free"),
        ("ctrl<->act ciphertexts / step", "2w", "n + n_x + w"),
        ("actuator work / step", "w Dec + w Enc", "(n + n_x + w) Dec, 0 Enc"),
        ("ctrl<->act ciphertexts / step (here)", f"{2 * w}", f"{n + n_x + w}"),
    ]
    if measured is not None:
        steps = len(measured.records)
        rows.append((
            "measured / step",
            "-",
            f"{measured.msgs_ctrl_to_act // steps} ciphertexts, "
            f"{measured.actuator_dec_ops // steps} Dec, "
            f"{measured.actuator_enc_ops} Enc",
        ))
    width0 = max(len(r[0]) for r in rows)
    width1 = max(len(r[1]) for r in rows)
    for r in rows:
        print(f"{r[0]:<{width0}}  {r[1]:<{width1}}  {r[2]}")
    # crude break-even on actuator compute: one encryption costs roughly 3-4
    # decryptions, so re-encryption wins when n + n_x outweighs (3~4) w
    lo, hi = 3 * w, 4 * w
    if n + n_x < lo:
        note = "re-encryption-free scheme favored (n + n_x < 3w)"
    elif n + n_x > hi:
        note = "re-encryption favored at the actuator (n + n_x > 4w)"
    else:
        note = "comparable actuator compute (3w <= n + n_x <= 4w)"
    print(f"break-even: {note}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="encloop",
        description="Convert a linear dynamic controller to integer coefficients "
                    "and run it closed-loop over additively homomorphic encryption.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, observer_default):
        p.add_argument("--config", help="scenario JSON (matrices as decimal strings)")
        p.add_argument("--fixture", help=f"built-in scenario: {sorted(FIXTURES)}")
        p.add_argument("--scheme", choices=["prelim", "main"])
        p.add_argument("--observer", choices=["published", "exact", "design"],
                       default=observer_default,
                       help="main scheme observer gain: the scenario's published "
                            "matrix, its exact deadbeat companion, or a fresh design")
        p.add_argument("--override", action="append", metavar="KEY=VALUE",
                       help="override a planned value (q, omega, l0, range_level)")

    p_plan = sub.add_parser("plan", help="compute and print scheme parameters")
    common(p_plan, "published")
    p_plan.add_argument("--full", action="store_true",
                        help="include the integer controller matrices")
    p_plan.add_argument("--out", help="also write the report to this path")
    p_plan.set_defaults(func=cmd_plan)

    p_sim = sub.add_parser("simulate", help="run the encrypted closed loop")
    common(p_sim, "exact")
    p_sim.add_argument("--backend", choices=["mock", "lattice"])
    p_sim.add_argument("--horizon", type=int)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--out", help="output prefix (.csv trace + .json summary)")
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="communication/computation overhead table")
    common(p_cmp, "exact")
    p_cmp.add_argument("--horizon", type=int, default=20)
    p_cmp.add_argument("--hypothetical", metavar="n=..,n_x=..,w=..",
                       help="print the analytic comparison for given dimensions")
    p_cmp.set_defaults(func=cmd_compare)

    p_swp = sub.add_parser("sweep", help="independent seeded runs, aggregated")
    common(p_swp, "exact")
    p_swp.add_argument("--backend", choices=["mock", "lattice"])
    p_swp.add_argument("--horizon", type=int)
    p_swp.add_argument("--seeds", type=int, default=4)
    p_swp.add_argument("--jobs", type=int, default=1)
    p_swp.add_argument("--out", help="write the aggregate report to this path")
    p_swp.set_defaults(func=cmd_sweep)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (InfeasibleError, NoIntegerOmegaError) as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (NotObservableError, PlannerError) as e:
        print(f"planning failed: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (ExactMatError, ValueError) as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
