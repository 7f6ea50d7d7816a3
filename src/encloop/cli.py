"""Command-line front end: plan parameters, run the closed loop, compare overheads.

Exit codes: 0 success, 1 config/validation error, 2 infeasible,
3 runtime recovery failure, 4 quantizer saturation, 5 encryption error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from fractions import Fraction

from . import he, loop
from .exactmat import (
    ExactMatError,
    RationalMatrix,
    column_from_json,
    fraction_to_str,
    json_entry,
    matrix_from_json,
)
from .fixtures import FIXTURES, Scenario
from .planner import (
    MIN_Q,
    ControllerModel,
    InfeasibleError,
    MainPlan,
    MainPlanOptions,
    PinError,
    PlannerError,
    PlantModel,
    PrelimInfeasibleError,
    deadbeat_companion,
    design_deadbeat_observer,
    plan_main,
    plan_preliminary,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_RECOVERY = 3
EXIT_SATURATION = 4
EXIT_ENCRYPTION = 5


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
                x_p0_bound=column_from_json([p.get("x_p0_bound", "0")], "x_p0_bound")[0, 0],
            )
            reference = column_from_json(cfg["reference"], "reference")
            # JSON cannot write the width of G and R of no rows (no state)
            G, R = matrix_from_json(c["G"], "G"), matrix_from_json(c["R"], "R")
            ctrl = ControllerModel(
                F=matrix_from_json(c["F"], "F"),
                G=G if G.rows else RationalMatrix.zeros(0, plant.v),
                R_ref=R if R.rows else RationalMatrix.zeros(0, reference.rows),
                H=matrix_from_json(c["H"], "H"),
                J=matrix_from_json(c["J"], "J"),
                S=matrix_from_json(c["S"], "S"),
                x0=column_from_json(c.get("x0", ["0"] * len(c["F"])), "x0"),
            )
            x_p0 = tuple(column_from_json(cfg.get("x_p0", ["0"] * plant.n), "x_p0").data)
            L = matrix_from_json(cfg["L"], "L") if "L" in cfg else None
            sc = Scenario("config", plant, ctrl, reference, x_p0, L_published=L)
        except (KeyError, ValueError, TypeError) as e:
            raise ConfigError(f"bad config: {e}")
        return sc, cfg
    name = args.fixture or "batch-reactor"
    if name not in FIXTURES:
        raise ConfigError(f"unknown fixture {name!r}; have {sorted(FIXTURES)}")
    return FIXTURES[name](), {}


def _overrides(args, cfg: dict, scheme: str) -> dict:
    """The config's overrides, then the command line's (which win), checked
    against the scheme and parsed: omega and l0 to Fractions, q and
    range_level to ints."""
    given = cfg.get("overrides", {})
    if not isinstance(given, dict):
        raise ConfigError("config 'overrides' must be an object")
    try:
        pairs = {k: str(json_entry(v, f"override {k}")) for k, v in given.items()}
    except ValueError as e:
        raise ConfigError(str(e))
    for item in args.override or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        k, v = item.split("=", 1)
        pairs[k] = v
    allowed = ["q"] if scheme == "prelim" else ["l0", "omega", "q", "range_level"]
    out = {}
    for k, v in pairs.items():
        if k not in allowed:
            raise ConfigError(f"unknown override {k!r} for the {scheme} scheme; "
                              f"allowed: {allowed}")
        try:
            out[k] = Fraction(v) if k in ("omega", "l0") else int(v, 0)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"override {k}={v!r} is not a number")
    if out.get("q", MIN_Q) < MIN_Q:
        raise ConfigError(f"q override must be >= {MIN_Q}")
    if out.get("range_level", 1) < 1:
        raise ConfigError("range_level override must be >= 1")
    return out


def _print(text: str):
    """Prints `text` to stdout.  A reader that closed stdout early (`| head`)
    ends the output, not the command: the rest is dropped, stdout is
    detached so that nothing flushes to it at exit, and the command keeps
    its own exit code."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        sys.stdout = None


def _observer_for(scenario: Scenario, mode: str):
    """Resolve the observer gain pair (runtime L, exact companion) for a scenario:
    `published` runs the published gain, `exact` the minimal-index deadbeat
    design once the published gain is found to be its rounding (the design
    alone when there is no published gain)."""
    A, C, L_published = scenario.plant.A, scenario.plant.C, scenario.L_published
    if mode == "exact" and L_published is None:
        L = design_deadbeat_observer(A, C).L
        return L, L
    if L_published is None:
        raise ConfigError("scenario carries no published observer gain; "
                          "--observer exact runs the minimal-index deadbeat design")
    companion = deadbeat_companion(A, C, L_published)
    if mode == "published":
        return L_published, (companion.L if companion is not None else None)
    if companion is None:
        raise ConfigError("the published observer gain is not a rounding of the "
                          "minimal-index deadbeat design; without a published "
                          "gain (no \"L\" in the config) `exact` runs the design")
    return companion.L, companion.L


def _planned(args, scenario: Scenario, cfg: dict):
    """The one planning path of every subcommand: scheme, observer and
    overrides resolved into a plan.  omega and l0 are pinned in `plan_main`,
    which derives every other value from them.  Returns that plan and the
    q and range_level overrides, which `_plan` sets on it as given."""
    scheme = args.scheme or cfg.get("scheme", "main")
    if scheme not in ("main", "prelim"):
        raise ConfigError(f"unknown scheme {scheme!r}; have ['main', 'prelim']")
    overrides = _overrides(args, cfg, scheme)
    try:
        if scheme == "prelim":
            ref_bound = max((abs(x) for x in scenario.reference.data), default=Fraction(0))
            plan = plan_preliminary(scenario.plant, scenario.ctrl, reference_bound=ref_bound)
        else:
            L, L_exact = _observer_for(scenario, args.observer)
            plan = plan_main(scenario.plant, scenario.ctrl, MainPlanOptions(
                L=L, L_exact=L_exact, reference=scenario.reference,
                omega=overrides.pop("omega", None), l0=overrides.pop("l0", None)))
    except OverflowError as e:
        # the plans are exact, but report bounds and radii as floats: `float` of
        # an exact bound, or a radius's float coefficients, can overflow
        raise ConfigError(f"a config value lies beyond the float range of the "
                          f"planner's bounds ({e})") from None
    return plan, overrides


def _plan(args, scenario: Scenario, cfg: dict):
    """The plan of `_planned` with q and range_level set as given, which can
    void its guarantees."""
    plan, given = _planned(args, scenario, cfg)
    return replace(plan, **given)


def cmd_plan(args) -> int:
    scenario, cfg = _load_scenario(args)
    try:
        planned, given = _planned(args, scenario, cfg)
    except PrelimInfeasibleError as e:
        code, out = EXIT_INFEASIBLE, {
            "scheme": "prelim",
            "feasible": False,
            "rho_c": e.report.rho_c,
            "s_F": fraction_to_str(e.report.s_F),
            "reason": e.report.reason,
        }
    else:
        code, plan = EXIT_OK, replace(planned, **given)
        out = plan.to_json(args.full)
        out["feasible"] = True
        below = sorted(k for k, v in given.items() if v < getattr(planned, k))
        if below:
            out["overrides_below_plan"] = below
    text = json.dumps(out, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    _print(text)
    return code


def _backend_params(backend: str, plan, scenario, horizon: int) -> he.SchemeParams:
    """The HE parameters of a horizon-long run of `plan`.  The lattice pad
    follows from the plan alone; `scenario` stays for callers that pass it."""
    if backend == "mock":
        return he.SchemeParams.mock(plan.q)
    return loop.lattice_params(plan, horizon)


def _config_int(cfg: dict, key: str, default: int) -> int:
    """A config's integer setting: a JSON integer or a string of one."""
    value = cfg.get(key, default)
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"config {key!r} must be an integer, got {value!r}")


def _run_config(args, cfg: dict, scenario: Scenario, plan) -> loop.RunConfig:
    """The run settings: the command line's, else the config's, else the defaults."""
    backend = args.backend or cfg.get("backend", "mock")
    if backend not in ("mock", "lattice"):
        raise ConfigError(f"unknown backend {backend!r}; have ['mock', 'lattice']")
    horizon = args.horizon if args.horizon is not None else _config_int(cfg, "horizon", 100)
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    seed = args.seed if args.seed is not None else _config_int(cfg, "seed", 0)
    return loop.RunConfig(
        plant=scenario.plant, ctrl=scenario.ctrl, reference=scenario.reference,
        x_p0=scenario.x_p0, horizon=horizon,
        params=_backend_params(backend, plan, scenario, horizon), seed=seed,
    )


def _run(plan, run_cfg: loop.RunConfig) -> loop.ClosedLoopTrace:
    run = loop.run_closed_loop_main if isinstance(plan, MainPlan) else loop.run_closed_loop_prelim
    try:
        return run(plan, run_cfg)
    except OverflowError as e:
        # the unquantized reference loop takes the reference in floats, and
        # the exact prelim planner accepts a reference beyond the float range
        # where no matrix reads it
        raise ConfigError(f"a config value lies beyond the float range of the "
                          f"reference loop ({e})") from None


def cmd_simulate(args) -> int:
    scenario, cfg = _load_scenario(args)
    plan = _plan(args, scenario, cfg)
    run_cfg = _run_config(args, cfg, scenario, plan)
    trace = _run(plan, run_cfg)
    summary = trace.summary()
    summary["plan"] = plan.to_json()
    summary["backend"] = run_cfg.params.backend
    summary["seed"] = run_cfg.seed
    if args.out:
        trace.to_csv(args.out + ".csv")
        with open(args.out + ".json", "w") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
            f.write("\n")
    _print(json.dumps(summary, indent=2, sort_keys=True))
    if trace.recovery_failures:
        return EXIT_RECOVERY
    if trace.saturation_count:
        return EXIT_SATURATION
    return EXIT_OK


def _hypothetical_dims(spec: str) -> tuple:
    """(n, n_x, w) from "n=..,n_x=..,w=..", each a nonnegative integer."""
    dims = {}
    for part in spec.split(","):
        k, _, v = part.partition("=")
        try:
            dims[k.strip()] = int(v)
        except ValueError:
            raise ConfigError(f"--hypothetical {part!r} is not key=integer")
    if sorted(dims) != ["n", "n_x", "w"] or min(dims.values()) < 0:
        raise ConfigError(f"--hypothetical needs n, n_x and w, each >= 0; got {spec!r}")
    return dims["n"], dims["n_x"], dims["w"]


def cmd_compare(args) -> int:
    if args.hypothetical:
        n, n_x, w = _hypothetical_dims(args.hypothetical)
        measured = None
    else:
        scenario, cfg = _load_scenario(args)
        plan = _plan(args, scenario, cfg)
        if not isinstance(plan, MainPlan):
            raise ConfigError("compare measures the main scheme only")
        measured = _run(plan, _run_config(args, cfg, scenario, plan))
        d = plan.dims
        n, n_x, w = d["n"], d["n_x"], d["w"]

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
            f"{measured.step_msgs['ctrl_to_act']} ciphertexts, "
            f"{measured.actuator_dec_ops // steps} Dec, "
            f"{measured.actuator_enc_ops} Enc",
        ))
    width0 = max(len(r[0]) for r in rows)
    width1 = max(len(r[1]) for r in rows)
    _print("\n".join(f"{r[0]:<{width0}}  {r[1]:<{width1}}  {r[2]}" for r in rows))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like every other config error; argparse's own
    exit 2 means "infeasible" here.  Subparsers are made of this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"config error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(
        prog="encloop",
        description="Convert a linear dynamic controller to integer coefficients "
                    "and run it closed-loop over additively homomorphic encryption.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, observer_default):
        p.add_argument("--config", help="scenario JSON (matrices as decimal strings)")
        p.add_argument("--fixture", help=f"built-in scenario: {sorted(FIXTURES)}")
        p.add_argument("--scheme", choices=["prelim", "main"])
        p.add_argument("--observer", choices=["published", "exact"],
                       default=observer_default,
                       help="main scheme observer gain: the scenario's published "
                            "matrix, or its exact deadbeat companion")
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
    p_cmp.set_defaults(func=cmd_compare, backend="mock", seed=0)  # measured on mock only

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, PinError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleError as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except PlannerError as e:
        print(f"planning failed: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (ExactMatError, ValueError) as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except he.HEError as e:
        print(f"encryption error: {e}", file=sys.stderr)
        return EXIT_ENCRYPTION
    except OSError as e:  # `_load_scenario` reads the config; this is --out
        print(f"config error: cannot write {e.filename}: {e.strerror}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
