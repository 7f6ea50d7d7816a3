"""The fixed cost of a warm step, as a count: the Python-level calls one
step of a run makes.  Numpy-free.

A step's integer arithmetic grows with t, its glue does not: each party
step, kernel, `he` op, record and comprehension is a Python call, the same
number at every t.  `sys.setprofile` counts them (its "call" events; a
builtin is a "c_call" and does not count) in two warm runs of different
horizons, whose difference is what the extra steps make: set-up and the
bootstrap cancel.  Each case has two bounds: the count on Python 3.10 and
3.11, and the lower one from 3.12 on, where comprehensions are inlined and
count less, so that every version catches one more call."""

import gc
import sys

import pytest

from encloop import fixtures, he, loop, planner

# calls per warm step, at most: on 3.10 and 3.11, and from 3.12 on
BOUNDS = {"batch-main-mock": (45, 40), "batch-main-lattice": (46, 41),
          "tanks-prelim-lattice": (40, 33)}


def batch_main(backend):
    sc, design = fixtures.batch_reactor(), fixtures.batch_reactor_exact_observer()
    plan = planner.plan_main(sc.plant, sc.ctrl, planner.MainPlanOptions(
        L=design.L, L_exact=design.L, reference=sc.reference))
    return sc, plan, loop.run_closed_loop_main, backend


def tanks_prelim(backend):
    sc = fixtures.coupled_tanks()
    plan = planner.plan_preliminary(
        sc.plant, sc.ctrl, reference_bound=max(abs(x) for x in sc.reference.data))
    return sc, plan, loop.run_closed_loop_prelim, backend


def counted(run, plan, cfg) -> int:
    """The "call" events of a run of `cfg`, with the collector off, so that
    no collection calls a Python callback inside the count."""
    calls = [0]

    def count(frame, event, arg):
        if event == "call":
            calls[0] += 1

    gc.disable()
    sys.setprofile(count)
    try:
        run(plan, cfg)
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls[0]


@pytest.mark.parametrize("case,route", [
    ("batch-main-mock", lambda: batch_main("mock")),
    ("batch-main-lattice", lambda: batch_main("lattice")),
    ("tanks-prelim-lattice", lambda: tanks_prelim("lattice")),
])
def test_a_warm_step_makes_few_calls(case, route):
    """Runs of 20 and 30 steps, each after a run that compiles its kernels
    and fills its noise table, differ by 10 steps' calls."""
    sc, plan, run, backend = route()
    params = (loop.lattice_params(plan, 30) if backend == "lattice"
              else he.SchemeParams.mock(plan.q))
    counts = []
    for horizon in (20, 30):
        cfg = loop.RunConfig(plant=sc.plant, ctrl=sc.ctrl, reference=sc.reference,
                             x_p0=sc.x_p0, horizon=horizon, params=params, seed=1)
        run(plan, cfg)  # warm
        counts.append(counted(run, plan, cfg))
    per_step, rest = divmod(counts[1] - counts[0], 10)
    assert rest == 0 and per_step <= BOUNDS[case][sys.version_info >= (3, 12)]
