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
    """Dispatch the online fleet against a per-bus demand vector: a
    one-row ``dispatch_rows``."""
    schedule, served, deficit = dispatch_rows(
        case, np.asarray(demand, dtype=float)[None],
        units_out(case, [offline]))
    return DispatchResult(schedule=tuple(schedule[0].tolist()),
                          served_demand=served[0], deficit=float(deficit[0]))


def dispatch_rows(case: NetworkCase, demand: np.ndarray, offline: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merit dispatch of many rows at once: row r dispatches the units not
    marked in row r of the bool (rows, generators) ``offline`` against the
    per-bus demand row ``demand[r]``.

    Returns (schedule, served demand, deficit) with a leading row axis.
    The loop runs over the merit order, each step over all rows, with the
    float operations a one-row dispatch makes, so every row gets the bits
    it would get alone.
    """
    total = demand.sum(axis=1)
    remaining = total.copy()
    schedule = np.zeros(offline.shape)
    for k in merit_order(case):
        on = ~offline[:, k] & (remaining > 0)
        take = np.minimum(case.generators[k].capacity_mw, remaining)
        schedule[on, k] = take[on]
        remaining = np.where(on, remaining - take, remaining)

    # Online capacity short of demand: shed load proportionally so the
    # network problem stays balanced; the deficit feeds the DNS tally.
    short = remaining > 1e-9
    deficit = np.where(short, remaining, 0.0)
    served = demand.copy()
    shed = short & (total > 0)
    served[shed] = demand[shed] * ((total[shed] - deficit[shed])
                                   / total[shed])[:, None]
    return schedule, served, deficit


def units_out(case: NetworkCase, sets) -> np.ndarray:
    """Bool (rows, generators) mask of each listed set of fleet indices."""
    mask = np.zeros((len(sets), len(case.generators)), dtype=bool)
    for row, units in enumerate(sets):
        mask[row, list(units)] = True
    return mask


def bus_generation(case: NetworkCase, schedule) -> np.ndarray:
    """Aggregate a fleet schedule, or a (rows, generators) array of them,
    into per-bus generation totals, unit after unit in fleet order."""
    schedule = np.asarray(schedule, dtype=float)
    g = np.zeros((*schedule.shape[:-1], len(case.buses)))
    for k, unit in enumerate(case.generators):
        g[..., case.bus_index[unit.bus]] += schedule[..., k]
    return g
