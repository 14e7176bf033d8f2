"""Probabilistic transmission expansion planning.

Selects new transmission lines and sizes their capacities by combining
Monte Carlo contingency simulation, nodal adequacy accounting,
roulette-wheel capacity growth, and a genetic-algorithm search over
build plans. Deterministic N-1/N-2 contingency enumeration is available
as an alternative to sampling for direct comparison.

The package namespace holds three groups of names: what the demos
import, what the README's "Lower-level entry points" paragraph names,
and the exception classes. Everything else, the types those names
return included, is imported from its module (``gridtep.contingency``,
``gridtep.costs``, ``gridtep.sizing``, ...).
"""

from .adequacy import line_overloads, nodal_balance
from .costs import objective
from .dcflow import flow_residual, solve, solve_with_outages
from .errors import (
    CaseParseError,
    CaseValidationError,
    GridTepError,
    NetworkDisconnectedError,
    ResampleBudgetError,
    UnbalancedInjectionsError,
)
from .evaluation import (CapacityEvaluation, PlanEvaluator, PlanSettings,
                         RunContext)
from .network import (
    ActiveNetwork,
    Bus,
    Chromosome,
    LineSpec,
    apply_plan,
    load_case,
)
from .planner import GaConfig, run
from .rng import chromosome_entropy, substream
from .sizing import sizing_loop

__version__ = "0.1.0"

__all__ = [
    "ActiveNetwork",
    "Bus",
    "CapacityEvaluation",
    "CaseParseError",
    "CaseValidationError",
    "Chromosome",
    "GaConfig",
    "GridTepError",
    "LineSpec",
    "NetworkDisconnectedError",
    "PlanEvaluator",
    "PlanSettings",
    "ResampleBudgetError",
    "RunContext",
    "UnbalancedInjectionsError",
    "apply_plan",
    "chromosome_entropy",
    "flow_residual",
    "line_overloads",
    "load_case",
    "nodal_balance",
    "objective",
    "run",
    "solve",
    "solve_with_outages",
    "sizing_loop",
    "substream",
]
