"""Contingency state generation.

Two sources of outage states share one representation, a row of a bool
outage mask: the network's lines in line order, then the generators in
fleet order, True where the element is out.

* Monte Carlo sampling — each line and generator is drawn out with its
  forced outage rate. States that island the network or leave fewer than
  the minimum number of generators online are rejected and redrawn, up
  to a resample budget. ``RoundSampler`` draws many slot streams at once,
  one or more states ahead per stream, each from a given position: the
  PCG64 kernel (``rng.Streams.codes``) hands back each drawn row as an
  outage code of uint64 words, one bit per element, without making a
  uniform. Each distinct code gets an integer id once per sampler, and a
  draw hands back ids: only a pass's new codes are unpacked into mask
  rows and screened, and only the rejected rows are redrawn.
* Deterministic enumeration — every single (N-1) or pair (N-2) outage
  over lines and generators, with the same feasibility screen
  (``enumerate_outages``).

Both call one batched screen (``screen``) on their mask rows: the
minimum-online test and the island test as array operations over
states, after one reachability pass (``dcflow.slack_connected``) over
their in-service lines, all of them for enumeration and each round's
new ones for sampling. Line and generator id sets appear only in the
one-state views, which convert at their edge: ``sample_state`` (the
per-draw definition of what ``RoundSampler`` draws, one mask row at a
time from a Generator), ``enumerate_deterministic``, ``is_islanded`` and
``_feasible``.

A state islands the network when any demand bus, or any bus hosting an
online generator, is cut off from the slack bus. Buses with neither
demand nor online generation may dangle; the load-flow treats them as
zero-injection dead ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import combinations, compress

import numpy as np

from .dcflow import _in_service, slack_connected
from .dispatch import units_out
from .errors import ResampleBudgetError
from .network import ActiveNetwork, NetworkCase
from .rng import Streams, limits, unpack
# Unused here: no path reaches the union-find, as the island test reads
# the batched reachability pass. The name stays importable only because
# perfbench/tracer.py rebinds contingency.connected_components.
from .network import connected_components  # noqa: F401


@dataclass(frozen=True)
class OutageState:
    lines_out: frozenset[int]  # line ids
    gens_out: frozenset[int]  # fleet indices
    # Element-wise draws sample_state made to reach this state, rejected
    # infeasible ones included. Bookkeeping only: not part of equality.
    draws: int = field(default=1, compare=False)


def screen(case: NetworkCase, net: ActiveNetwork, out: np.ndarray
           ) -> np.ndarray:
    """Bool per row of the bool (states, lines + generators) outage mask
    ``out``: True where the state is feasible, i.e. it leaves at least
    the minimum number of generators online and islands nothing. Both
    tests run as array operations over the states."""
    online = len(case.generators) - out[:, len(net.lines):].sum(axis=1)
    return ((online >= case.min_online_generators)
            & ~_islanded(case, net, out))


def _islanded(case: NetworkCase, net: ActiveNetwork, out: np.ndarray
              ) -> np.ndarray:
    """Bool per row of the outage mask ``out``: a demand bus, or the bus
    of a unit still online, no longer reaches the slack bus."""
    n_lines = len(net.lines)
    cut = ~slack_connected(net, ~out[:, :n_lines])
    return ((cut & (case.base_demand > 0)).any(axis=1)
            | (cut[:, case.generator_buses] & ~out[:, n_lines:]).any(axis=1))


def _encode(case: NetworkCase, net: ActiveNetwork, states) -> np.ndarray:
    """The outage mask of (lines out, generators out) id-set pairs, a row
    each; ``_decode`` reads it back."""
    return np.hstack([~_in_service(net, [lines for lines, _ in states]),
                      units_out(case, [gens for _, gens in states])])


def _decode(net: ActiveNetwork, out: np.ndarray) -> list[tuple]:
    """(lines out, generators out) id sets of each row of an outage
    mask."""
    n_lines = len(net.line_ids)
    units = range(out.shape[1] - n_lines)
    return [(frozenset(compress(net.line_ids, row[:n_lines])),
             frozenset(compress(units, row[n_lines:])))
            for row in out.tolist()]


def is_islanded(
    case: NetworkCase,
    net: ActiveNetwork,
    lines_out: frozenset[int],
    gens_out: frozenset[int] = frozenset(),
) -> bool:
    """True when a demand bus or an online generator's bus loses its path
    to the slack bus once the given lines are removed: the island test of
    ``screen`` on one state."""
    out = _encode(case, net, [(lines_out, gens_out)])
    return bool(_islanded(case, net, out)[0])


def _feasible(
    case: NetworkCase,
    net: ActiveNetwork,
    lines_out: frozenset[int],
    gens_out: frozenset[int],
) -> bool:
    """``screen`` on one state."""
    return bool(screen(case, net, _encode(case, net,
                                          [(lines_out, gens_out)]))[0])


class RoundSampler:
    """Feasible outage states drawn from many PCG64 streams at once.

    A draw is one uniform per line, then one per generator, from the
    stream: an element is out when its uniform is below its forced outage
    rate. The kernel decides that on PCG64's integer output against each
    rate's exact bound (``limits``) and returns a drawn row as an outage
    code, uint64 words of one bit per element, element 0 first, so any
    number of elements fits. Each distinct code gets an integer id, a row
    of ``out`` (its outage mask) and of ``feasible``: a pass's codes are
    told apart by one ``np.unique`` over them, as plain integers when one
    word holds them, and only the codes not seen before are unpacked
    (``rng.unpack``) and screened, together (``screen``). ``draw``
    redraws only the rejected rows, pass after pass: a pass draws each
    pending stream's rows up to its next states or its budget and numbers
    the accepted rows within their streams. The sampler keeps no stream
    positions: each draw says where each stream starts.
    """

    def __init__(self, case: NetworkCase, net: ActiveNetwork,
                 streams: Streams):
        self.case = case
        self.net = net
        self.streams = streams
        self.limits = limits(net.line_outage_rates
                             + case.generator_outage_rates)
        self._ids: dict = {}  # outage code (int, or tuple of words) -> id
        self.out = np.zeros((0, len(self.limits)), dtype=bool)  # per id
        self.feasible = np.zeros(0, dtype=bool)  # per id

    def draw(self, index: np.ndarray, at: np.ndarray, budgets: np.ndarray,
             ahead: int = 1):
        """Draw the first ``ahead`` feasible states of each stream ``index``
        lists from its element-wise draw ``at[k]`` on, redrawing only the
        rejected rows, within each stream's budget of element-wise draws.

        Returns ``(ids, draws)``, two (streams, ``ahead``) arrays: the id
        of each stream's j-th state and the element-wise draws from
        ``at[k]`` up to and including it. Past the stream's budget the id
        is -1 and the draws are all it made, its budget.
        """
        made = np.zeros(len(index), dtype=np.int64)  # element-wise draws
        todo = np.flatnonzero(budgets > 0)
        ids = np.full((len(index), ahead), -1, dtype=np.intp)
        draws = np.zeros((len(index), ahead), dtype=np.int64)
        got = np.zeros(len(index), dtype=np.intp)  # states found
        while len(todo):
            rows = np.minimum(ahead - got[todo], budgets[todo] - made[todo])
            drawn = self._id(self.streams.codes(
                index[todo], at[todo] + made[todo], self.limits, rows))
            ok = self.feasible[drawn]
            # Rows run stream after stream; number each one, and each
            # accepted one's state, from 0 within its stream.
            ends = np.cumsum(rows)
            firsts = np.repeat(ends - rows, rows)
            hits = np.cumsum(ok)
            before = hits - ok  # accepted rows before this one
            pos = np.repeat(todo, rows)[ok]
            state = got[pos] + (before - before[firsts])[ok]
            ids[pos, state] = drawn[ok]
            draws[pos, state] = (np.repeat(made[todo], rows) + 1
                                 + np.arange(len(ok)) - firsts)[ok]
            got[todo] += hits[ends - 1] - before[ends - rows]
            made[todo] += rows
            todo = todo[(got[todo] < ahead) & (made[todo] < budgets[todo])]
        return ids, np.where(ids < 0, made[:, None], draws)

    def _id(self, codes: np.ndarray) -> np.ndarray:
        """The id of each row of (rows, words) outage codes; codes not
        seen before are unpacked, screened and given the next ids."""
        if codes.shape[1] == 1:  # the codes as plain integers
            codes, inverse = np.unique(codes[:, 0], return_inverse=True)
            keys = codes.tolist()
            codes = codes[:, None]
        else:
            codes, inverse = np.unique(codes, axis=0, return_inverse=True)
            keys = list(map(tuple, codes.tolist()))
        ids = np.array([self._ids.get(key, -1) for key in keys],
                       dtype=np.intp)
        new = np.flatnonzero(ids < 0)
        if len(new):
            out = unpack(codes[new], len(self.limits))
            ids[new] = np.arange(len(self.out), len(self.out) + len(new))
            self._ids.update(zip([keys[k] for k in new.tolist()],
                                 ids[new].tolist()))
            self.out = np.concatenate([self.out, out])
            self.feasible = np.concatenate([
                self.feasible, screen(self.case, self.net, out)])
        return ids[inverse.ravel()]


def sample_state(
    case: NetworkCase,
    net: ActiveNetwork,
    rng: np.random.Generator,
    max_draws: int = 1000,
) -> OutageState:
    """Draw one feasible outage state from ``rng``: a row of uniforms per
    draw, one per line then one per generator, an element being out where
    its uniform is below its forced outage rate.

    Infeasible draws (islanding / too few units online) are rejected and
    redrawn; the returned state's ``draws`` counts them all. Finding no
    feasible state within ``max_draws`` draws raises ResampleBudgetError.
    """
    rates = np.array(net.line_outage_rates + case.generator_outage_rates)
    for draws in range(1, max_draws + 1):
        out = rng.random((1, len(rates))) < rates
        if screen(case, net, out)[0]:
            ((lines_out, gens_out),) = _decode(net, out)
            return OutageState(lines_out=lines_out, gens_out=gens_out,
                               draws=draws)
    raise ResampleBudgetError(
        f"no feasible outage state within {max_draws} draws")


def enumerate_outages(case: NetworkCase, net: ActiveNetwork, order: int
                      ) -> np.ndarray:
    """The outage mask rows of all feasible states of the given
    contingency order.

    Order 1 lists every single line or generator outage; order 2 lists
    every unordered pair of element outages, in ``combinations`` order
    over lines then generators. The intact state is never included.
    """
    if order not in (1, 2):
        raise ValueError(f"contingency order must be 1 or 2, got {order}")
    out = _picks(len(net.lines) + len(case.generators), order)
    return out[screen(case, net, out)]


@cache
def _picks(n: int, order: int) -> np.ndarray:
    """Read-only outage mask of every ``order``-element outage of ``n``
    elements, a row each in ``combinations`` order: a function of the two
    counts alone, so plans of the same size share it."""
    picks = np.array(list(combinations(range(n), order)),
                     dtype=np.intp).reshape(-1, order)
    out = np.zeros((len(picks), n), dtype=bool)
    out[np.arange(len(picks))[:, None], picks] = True
    out.flags.writeable = False
    return out


def enumerate_deterministic(
    case: NetworkCase, net: ActiveNetwork, order: int
) -> list[OutageState]:
    """All feasible outage states of the given contingency order, as id
    sets: ``enumerate_outages`` decoded."""
    return [OutageState(lines_out=lines, gens_out=gens) for lines, gens
            in _decode(net, enumerate_outages(case, net, order))]
