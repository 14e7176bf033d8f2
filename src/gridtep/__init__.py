"""Probabilistic transmission expansion planning.

Selects new transmission lines and sizes their capacities by combining
Monte Carlo contingency simulation, nodal adequacy accounting,
roulette-wheel capacity growth, and a genetic-algorithm search over
build plans. Deterministic N-1/N-2 contingency enumeration is available
as an alternative to sampling for direct comparison.

The package namespace holds what the demos and the README use, with the
types they return and raise; everything else is imported from its
module (``gridtep.costs``, ``gridtep.sizing``, ...).
"""

from .adequacy import (
    ExpectationReport,
    NodalBalance,
    balance_from_diffs,
    line_overloads,
    nodal_balance,
    nodal_diff,
)
from .contingency import OutageState, enumerate_deterministic, sample_state
from .costs import CostBreakdown, objective
from .dcflow import FlowSolution, flow_residual, solve, solve_with_outages
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
    NetworkCase,
    apply_plan,
    load_case,
)
from .planner import FitnessRecord, GaConfig, PlanResult, run
from .rng import chromosome_entropy, substream
from .sizing import SizingTrace, sizing_loop

__version__ = "0.1.0"

__all__ = [
    "ActiveNetwork",
    "Bus",
    "CapacityEvaluation",
    "CaseParseError",
    "CaseValidationError",
    "Chromosome",
    "CostBreakdown",
    "ExpectationReport",
    "FitnessRecord",
    "FlowSolution",
    "GaConfig",
    "GridTepError",
    "LineSpec",
    "NetworkCase",
    "NetworkDisconnectedError",
    "NodalBalance",
    "OutageState",
    "PlanEvaluator",
    "PlanResult",
    "PlanSettings",
    "ResampleBudgetError",
    "RunContext",
    "SizingTrace",
    "UnbalancedInjectionsError",
    "apply_plan",
    "balance_from_diffs",
    "chromosome_entropy",
    "enumerate_deterministic",
    "flow_residual",
    "line_overloads",
    "load_case",
    "nodal_balance",
    "nodal_diff",
    "objective",
    "run",
    "sample_state",
    "solve",
    "solve_with_outages",
    "sizing_loop",
    "substream",
]
