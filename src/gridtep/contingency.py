"""Contingency state generation.

Two sources of outage states share one representation:

* Monte Carlo sampling — each line and generator is drawn out with its
  forced outage rate. States that island the network or leave fewer than
  the minimum number of generators online are rejected and redrawn, up
  to a resample budget.
* Deterministic enumeration — every single (N-1) or pair (N-2) outage
  over lines and generators, with the same feasibility screen.

A state islands the network when any demand bus, or any bus hosting an
online generator, is cut off from the slack bus. Buses with neither
demand nor online generation may dangle; the load-flow treats them as
zero-injection dead ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, compress
from operator import lt

import numpy as np

from .dcflow import fill_slack_connected, slack_connected
from .errors import ResampleBudgetError
from .network import ActiveNetwork, NetworkCase
# is_islanded reads the union-find through slack_connected's memo and no
# longer calls connected_components itself. The name stays importable from
# here because perfbench/tracer.py rebinds contingency.connected_components.
from .network import connected_components  # noqa: F401


@dataclass(frozen=True)
class OutageState:
    lines_out: frozenset[int]  # line ids
    gens_out: frozenset[int]  # fleet indices
    # Element-wise draws sample_state made to reach this state, rejected
    # infeasible ones included. Bookkeeping only: not part of equality.
    draws: int = field(default=1, compare=False)


def is_islanded(
    case: NetworkCase,
    net: ActiveNetwork,
    lines_out: frozenset[int],
    gens_out: frozenset[int] = frozenset(),
) -> bool:
    """True when a demand bus or an online generator's bus loses its path
    to the slack bus once the given lines are removed."""
    live = slack_connected(net, lines_out)
    if live.all():
        return False
    for b in case.buses:
        if b.base_demand > 0 and not live[net.bus_index[b.id]]:
            return True
    for k, g in enumerate(case.generators):
        if k not in gens_out and not live[net.bus_index[g.bus]]:
            return True
    return False


def _feasible(
    case: NetworkCase,
    net: ActiveNetwork,
    lines_out: frozenset[int],
    gens_out: frozenset[int],
) -> bool:
    online = len(case.generators) - len(gens_out)
    if online < case.min_online_generators:
        return False
    return not is_islanded(case, net, lines_out, gens_out)


def sample_state(
    case: NetworkCase,
    net: ActiveNetwork,
    rng: np.random.Generator,
    max_draws: int = 1000,
) -> OutageState:
    """Draw one feasible outage state.

    Each element goes out when its uniform draw falls below its forced
    outage rate. Infeasible draws (islanding / too few units online) are
    rejected and redrawn; the returned state's ``draws`` counts them all.
    Finding no feasible state within ``max_draws`` draws raises
    ResampleBudgetError.
    """
    line_ids, line_rates = net.line_ids, net.line_outage_rates
    gen_rates = case.generator_outage_rates
    n_lines = len(line_ids)
    for draw in range(1, max_draws + 1):
        # One call gives the same uniforms as one for the lines followed
        # by one for the generators.
        u = rng.random(n_lines + len(gen_rates)).tolist()
        lines_out = frozenset(compress(line_ids, map(lt, u, line_rates)))
        gens_out = frozenset(compress(
            range(len(gen_rates)), map(lt, u[n_lines:], gen_rates)))
        if _feasible(case, net, lines_out, gens_out):
            return OutageState(lines_out=lines_out, gens_out=gens_out,
                               draws=draw)
    raise ResampleBudgetError(
        f"no feasible outage state within {max_draws} draws")


def enumerate_deterministic(
    case: NetworkCase, net: ActiveNetwork, order: int
) -> list[OutageState]:
    """All feasible outage states of the given contingency order.

    Order 1 lists every single line or generator outage; order 2 lists
    every unordered pair of element outages. The intact state is never
    included.
    """
    if order not in (1, 2):
        raise ValueError(f"contingency order must be 1 or 2, got {order}")

    elements: list[tuple[frozenset[int], frozenset[int]]] = []
    for ln in net.lines:
        elements.append((frozenset([ln.id]), frozenset()))
    for k in range(len(case.generators)):
        elements.append((frozenset(), frozenset([k])))

    if order == 1:
        combos = elements
    else:
        combos = [
            (l1 | l2, g1 | g2)
            for (l1, g1), (l2, g2) in combinations(elements, 2)
        ]

    fill_slack_connected(net, [lo for lo, _ in combos])
    return [
        OutageState(lines_out=lo, gens_out=go)
        for lo, go in combos
        if _feasible(case, net, lo, go)
    ]
