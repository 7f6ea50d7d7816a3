import random
from fractions import Fraction

import pytest
from hypothesis import settings

from encloop.exactmat import RationalMatrix, inf_norm, block_closed_loop
from encloop.fixtures import batch_reactor, batch_reactor_exact_observer, coupled_tanks
from encloop.planner import (
    ControllerModel,
    MainPlanOptions,
    PlantModel,
    check_prelim_feasible,
    design_deadbeat_observer,
    observability_matrix,
    plan_main,
    plan_preliminary,
)


# CI runs with --hypothesis-profile=ci: a failing example also prints the
# blob that replays it (@reproduce_failure).
settings.register_profile("ci", print_blob=True)


@pytest.fixture(scope="session")
def batch():
    return batch_reactor()


@pytest.fixture(scope="session")
def batch_companion():
    return batch_reactor_exact_observer()


@pytest.fixture(scope="session")
def published_plan(batch, batch_companion):
    return plan_main(
        batch.plant, batch.ctrl,
        MainPlanOptions(L=batch.L_published, L_exact=batch_companion.L,
                        reference=batch.reference),
    )


@pytest.fixture(scope="session")
def sound_plan(batch, batch_companion):
    return plan_main(
        batch.plant, batch.ctrl,
        MainPlanOptions(L=batch_companion.L, L_exact=batch_companion.L,
                        reference=batch.reference),
    )


@pytest.fixture(scope="session")
def tanks():
    return coupled_tanks()


@pytest.fixture(scope="session")
def tanks_plan(tanks):
    bound = max(abs(x) for x in tanks.reference.data)
    return plan_preliminary(tanks.plant, tanks.ctrl, reference_bound=bound)


@pytest.fixture(scope="session")
def tanks_main_plan(tanks):
    """The coupled tanks on the main route, with the exact deadbeat design,
    as `encloop simulate --fixture coupled-tanks --scheme main` plans it."""
    L = design_deadbeat_observer(tanks.plant.A, tanks.plant.C).L
    return plan_main(tanks.plant, tanks.ctrl, MainPlanOptions(
        L=L, L_exact=L, reference=tanks.reference))


# -- random system generators -------------------------------------------------


def dec_entry(rng: random.Random, span: int, decimals: int = 1) -> Fraction:
    """Uniform multiple of 10^-decimals in [-span, span]/10^decimals."""
    return Fraction(rng.randint(-span, span), 10**decimals)


def dec_matrix(rng, rows, cols, span, decimals=1):
    return RationalMatrix(rows, cols,
                          [dec_entry(rng, span, decimals) for _ in range(rows * cols)])


def pm_one_matrix(rng, rows, cols):
    vals = [Fraction(rng.choice([-1, 0, 1])) for _ in range(rows * cols)]
    return RationalMatrix(rows, cols, vals)


def random_main_system(rng: random.Random):
    """Observable plant + contractive pre-given controller that plan_main accepts."""
    while True:
        n = rng.randint(1, 3)
        v = rng.randint(1, min(2, n))
        w = rng.randint(1, 2)
        n_x = rng.randint(1, 3)
        n_r = rng.randint(1, 2)
        A = dec_matrix(rng, n, n, 3)
        B = dec_matrix(rng, n, w, 5)
        C = pm_one_matrix(rng, v, n)
        F = dec_matrix(rng, n_x, n_x, 3)
        G = dec_matrix(rng, n_x, v, 3)
        R = dec_matrix(rng, n_x, n_r, 3)
        H = dec_matrix(rng, w, n_x, 3)
        J = dec_matrix(rng, w, v, 3)
        S = dec_matrix(rng, w, n_r, 3)
        x0 = dec_matrix(rng, n_x, 1, 5)
        try:
            plant = PlantModel(A, B, C, x_p0_bound=Fraction(1))
            ctrl = ControllerModel(F, G, R, H, J, S, x0)
        except Exception:
            continue
        if observability_matrix(A, C).rank() < n:
            continue
        if inf_norm(block_closed_loop(plant, ctrl)) >= Fraction(9, 10):
            continue
        try:
            design = design_deadbeat_observer(A, C)
        except Exception:
            continue
        reference = dec_matrix(rng, n_r, 1, 9)
        x_p0 = tuple(dec_entry(rng, 9) for _ in range(n))
        return plant, ctrl, design, reference, x_p0


def random_prelim_system(rng: random.Random):
    """Feasible direct-conversion fixture: nilpotent F (s_F = 1/2) and a closed
    loop contracting below 0.45 in the infinity norm."""
    while True:
        w = rng.randint(1, 2)
        v = rng.randint(1, 2)
        n = 2
        n_x = 2
        n_r = 1
        A = dec_matrix(rng, n, n, 1)
        B = dec_matrix(rng, n, w, 3)
        C = dec_matrix(rng, v, n, 4)
        F = RationalMatrix.from_rows([[0, Fraction(rng.choice([-1, 1]), 2)], [0, 0]])
        G = dec_matrix(rng, n_x, v, 1)
        R = dec_matrix(rng, n_x, n_r, 1)
        H = dec_matrix(rng, w, n_x, 1)
        J = dec_matrix(rng, w, v, 1)
        S = dec_matrix(rng, w, n_r, 1)
        x0 = dec_matrix(rng, n_x, 1, 4)
        try:
            plant = PlantModel(A, B, C, x_p0_bound=Fraction(1))
            ctrl = ControllerModel(F, G, R, H, J, S, x0)
            rep = check_prelim_feasible(plant, ctrl)
        except Exception:
            continue
        # margin below s_F = 1/2 keeps the difference series well convergent
        if not rep.feasible or rep.rho_c > 0.45:
            continue
        reference = dec_matrix(rng, n_r, 1, 9)
        x_p0 = tuple(dec_entry(rng, 9) for _ in range(n))
        return plant, ctrl, reference, x_p0
