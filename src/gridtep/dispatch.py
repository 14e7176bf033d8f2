"""Merit-order generation dispatch.

Online units are loaded cheapest-first (ties broken by bus id) until the
scenario demand is covered; the marginal unit takes the remainder. No
unit takes a balancing role: the dispatch itself matches generation to
demand, and the DC solve always pins the case's slack bus as its angle
reference, whichever units are online. If online capacity falls short of
demand, every bus's demand is curtailed proportionally so the dispatch
still balances, and the shortfall is reported for the adequacy
accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import NetworkCase


@dataclass(frozen=True)
class DispatchResult:
    schedule: tuple[float, ...]  # MW per generator, case fleet order
    served_demand: np.ndarray  # MW per bus, after any curtailment
    deficit: float  # MW of demand that could not be covered


def merit_order(case: NetworkCase) -> list[int]:
    """Fleet indices sorted by operating cost, ties by bus id."""
    return sorted(
        range(len(case.generators)),
        key=lambda k: (case.generators[k].operating_cost, case.generators[k].bus),
    )


def merit_order_dispatch(
    case: NetworkCase,
    demand: np.ndarray,
    offline: frozenset[int] = frozenset(),
) -> DispatchResult:
    """Dispatch the online fleet against a per-bus demand vector."""
    demand = np.asarray(demand, dtype=float)
    total_demand = float(demand.sum())

    schedule = [0.0] * len(case.generators)
    remaining = total_demand
    for k in merit_order(case):
        if k in offline or remaining <= 0:
            continue
        take = min(case.generators[k].capacity_mw, remaining)
        schedule[k] = take
        remaining -= take

    if remaining > 1e-9:
        # Online capacity short of demand: shed load proportionally so the
        # network problem stays balanced; the deficit feeds the DNS tally.
        deficit = remaining
        served = demand * ((total_demand - deficit) / total_demand) \
            if total_demand > 0 else demand.copy()
    else:
        deficit = 0.0
        served = demand.copy()

    return DispatchResult(
        schedule=tuple(schedule),
        served_demand=served,
        deficit=deficit,
    )


def bus_generation(case: NetworkCase, schedule: tuple[float, ...]) -> np.ndarray:
    """Aggregate a fleet schedule into per-bus generation totals."""
    g = np.zeros(len(case.buses))
    for k, mw in enumerate(schedule):
        if mw:
            g[case.bus_index[case.generators[k].bus]] += mw
    return g
