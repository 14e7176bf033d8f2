"""Contingency state generation.

Two sources of outage states share one representation:

* Monte Carlo sampling — each line and generator is drawn out with its
  forced outage rate. States that island the network or leave fewer than
  the minimum number of generators online are rejected and redrawn, up
  to a resample budget. ``RoundSampler`` draws many slot streams at once:
  one uniform row per stream, packed into an outage code, each distinct
  code screened once per sampler, and only the rejected rows redrawn.
* Deterministic enumeration — every single (N-1) or pair (N-2) outage
  over lines and generators, with the same feasibility screen.

Both screen for islands after a batched reachability pass
(``dcflow.fill_slack_connected``): enumeration over all its outage sets,
sampling over each round's new ones.

A state islands the network when any demand bus, or any bus hosting an
online generator, is cut off from the slack bus. Buses with neither
demand nor online generation may dangle; the load-flow treats them as
zero-injection dead ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, compress

import numpy as np

from .dcflow import fill_slack_connected, slack_connected
from .errors import ResampleBudgetError
from .network import ActiveNetwork, NetworkCase
from .rng import Streams
# Unused here: no path reaches the union-find, as the batched pass fills
# slack_connected's memo. The name stays importable only because
# perfbench/tracer.py rebinds contingency.connected_components.
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


class RoundSampler:
    """Feasible outage states drawn from many PCG64 streams at once.

    A draw is one uniform per line, then one per generator, from the
    stream: an element is out when its uniform is below its forced outage
    rate. A drawn row is packed into an outage code, bytes of one bit per
    element, so any number of elements fits; each distinct code is turned
    into its (lines out, generators out) sets and screened once, and the
    answer is kept for every later draw: a round's new codes together,
    after one ``fill_slack_connected`` pass over their line sets.
    """

    def __init__(self, case: NetworkCase, net: ActiveNetwork,
                 streams: Streams):
        self.case = case
        self.net = net
        self.streams = streams
        self.rates = np.array(net.line_outage_rates
                              + case.generator_outage_rates)
        # outage code -> (lines_out, gens_out), or None when infeasible
        self._screened: dict[bytes, tuple | None] = {}

    def draw(self, index: np.ndarray, budgets: np.ndarray, part: int):
        """Draw one feasible state from each stream ``index`` lists (no
        stream twice), redrawing only the rejected rows, within each
        stream's budget of element-wise draws.

        Returns ``(states, draws, exhausted)``: per position, the state's
        (lines_out, gens_out) and the draws made, the accepted one
        included; and the first position whose budget ran out, or None.
        Positions after it are left unresolved: a slot-by-slot sampler
        would stop there. ``part`` bounds the streams per kernel pass.
        """
        states = [None] * len(index)
        draws = np.zeros(len(index), dtype=np.int64)
        spent = np.flatnonzero(budgets <= 0)
        exhausted = int(spent[0]) if len(spent) else len(index)
        todo = np.arange(exhausted)
        n, width = len(self.rates), (len(self.rates) + 7) // 8
        while len(todo):
            out = self.streams.random(index[todo], n, part) < self.rates
            draws[todo] += 1
            packed = np.packbits(out, axis=1).tobytes()
            codes = [packed[k * width:(k + 1) * width]
                     for k in range(len(todo))]
            self._screen(codes)
            rejected = []
            for k, (pos, code) in enumerate(zip(todo.tolist(), codes)):
                state = self._screened[code]
                if state is None:
                    rejected.append(k)
                else:
                    states[pos] = state
            todo = todo[rejected]
            spent = todo[draws[todo] >= budgets[todo]]
            if len(spent):
                exhausted = int(spent[0])
                todo = todo[todo < exhausted]
        return states, draws, None if exhausted == len(index) else exhausted

    def _screen(self, codes: list[bytes]) -> None:
        """Screen each code not seen before once, and keep the answers."""
        new = [code for code in dict.fromkeys(codes)
               if code not in self._screened]
        n, n_lines = len(self.rates), len(self.net.line_ids)
        out = [np.unpackbits(np.frombuffer(code, dtype=np.uint8),
                             count=n).tolist() for code in new]
        sets = [(frozenset(compress(self.net.line_ids, row[:n_lines])),
                 frozenset(compress(range(n - n_lines), row[n_lines:])))
                for row in out]
        fill_slack_connected(self.net, [lines_out for lines_out, _ in sets])
        for code, state in zip(new, sets):
            ok = _feasible(self.case, self.net, *state)
            self._screened[code] = state if ok else None


def sample_state(
    case: NetworkCase,
    net: ActiveNetwork,
    rng: np.random.Generator,
    max_draws: int = 1000,
) -> OutageState:
    """Draw one feasible outage state from a PCG64 Generator: a
    ``RoundSampler`` of its one stream, which the Generator then goes on
    from.

    Infeasible draws (islanding / too few units online) are rejected and
    redrawn; the returned state's ``draws`` counts them all. Finding no
    feasible state within ``max_draws`` draws raises ResampleBudgetError.
    """
    streams = Streams.of(rng)
    (state,), (draws,), exhausted = RoundSampler(case, net, streams).draw(
        np.zeros(1, dtype=np.intp), np.array([max_draws]), 1)
    streams.store(rng)
    if exhausted is not None:
        raise ResampleBudgetError(
            f"no feasible outage state within {max_draws} draws")
    return OutageState(lines_out=state[0], gens_out=state[1],
                       draws=int(draws))


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
