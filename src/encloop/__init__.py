"""encloop: integer-coefficient conversion of linear dynamic controllers and
their closed-loop execution over additively homomorphic encryption."""

from .exactmat import (
    IntegralityCertificate,
    RationalMatrix,
    block_closed_loop,
    inf_norm,
    is_integer_after_scale,
    max_integer_scale,
    spectral_radius,
)
from .planner import (
    ControllerModel,
    MainPlan,
    MainPlanOptions,
    PlantModel,
    PrelimPlan,
    check_prelim_feasible,
    compute_Ce,
    compute_M,
    deadbeat_companion,
    design_deadbeat_observer,
    plan_main,
    plan_preliminary,
    q_bound_main,
)
from .quantizer import QuantizerSpec, quantize_scalar, quantize_vector
from .records import replace
from .loop import (
    ClosedLoopTrace,
    RunConfig,
    centered_mod_recover,
    run_closed_loop_main,
    run_closed_loop_prelim,
)
from . import he

__all__ = [
    "RationalMatrix",
    "IntegralityCertificate",
    "max_integer_scale",
    "is_integer_after_scale",
    "inf_norm",
    "spectral_radius",
    "block_closed_loop",
    "QuantizerSpec",
    "quantize_scalar",
    "quantize_vector",
    "PlantModel",
    "ControllerModel",
    "PrelimPlan",
    "MainPlan",
    "MainPlanOptions",
    "check_prelim_feasible",
    "plan_preliminary",
    "plan_main",
    "compute_M",
    "compute_Ce",
    "q_bound_main",
    "design_deadbeat_observer",
    "deadbeat_companion",
    "centered_mod_recover",
    "run_closed_loop_main",
    "run_closed_loop_prelim",
    "RunConfig",
    "ClosedLoopTrace",
    "replace",
    "he",
]

__version__ = "0.1.0"
