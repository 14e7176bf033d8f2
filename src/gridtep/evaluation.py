"""Plan evaluation engine.

A ``RunContext`` holds what every plan of a run shares and no plan
changes: the case, the 12 monthly demand vectors, base schedules and
G_inv, the expected-cost rates as arrays, and the memo of merit
dispatch. ``planner.run`` and the ``adequacy`` command build one per
call, so nothing derived from the case outlives the run.

A ``PlanEvaluator`` is bound to one topology (an applied build plan) and
prices rating vectors for it, one rating per line. Merit dispatch and
the DC solve of an outage state do not depend on ratings, so each
distinct state of a scenario is built once, into a row of a
``ScenarioBatch``, which keeps what the adequacy kernel reads of it
apart from the ratings: |flow|, the flow's direction and the validity
screen's limits. A rating vector then runs one ``adequacy.kernel`` pass
over the batch's rows.

A state is a month and a row of a bool outage mask, the network's lines
then the generators (``contingency``), from the sampler or the
enumeration to the DC solve. A build (``build_records``) solves its
states in one ``dcflow.solve_rows`` call per ``KERNEL_ROWS`` states.
Merit dispatch depends only on the month and the generator part of the
row, so the run context dispatches each distinct pair once per run, in
one ``dispatch.dispatch_rows`` call for the pairs new to it, and every
plan reuses it.

Monte Carlo mode prices the 12 months together, from one batch. Slot
``slot`` of month ``month`` draws from stream ``(month - 1) * n_slots +
slot`` of one array of PCG64 streams (``substreams``), which draws what
``substream`` gives that slot. ``_McsScenario`` counts each stream's
draws, and a ``contingency.RoundSampler`` draws pending streams from
those positions as arrays and hands back an integer id per drawn state;
the scenario builds each (month, id) once. A slot's sample at a
rating vector is the first state of its stream that passes the validity
screen, so estimates across sizing iterations share common random
numbers; slots with none yet are resolved in redraw rounds that draw
ahead (``_McsScenario.result``), with the figures, draw counts and
errors of one state per round. ``MAX_RESAMPLES`` bounds every
element-wise draw of a slot, island rejections included. A month's
``samples_drawn`` sums, over slots, the draws up to and including the
slot's accepted state.

Deterministic modes (N-1 / N-2) run the enumerated states of the peak
month with equal weights; states invalid at the current capacities are
dropped and the weights renormalized, and when none is left the capacity
vector cannot be priced (GridTepError). Their peak-month expectations
are replicated across all 12 months for the annual cost formulas.

Both kinds of scenario reduce their states' kernel figures to the
report's arrays with per-state weights, one dot product per month and
field (``expectations``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .adequacy import ExpectationReport, flow_terms, kernel, screen_limits
from .contingency import (OutageState, RoundSampler, _encode,
                          enumerate_outages)
from .costs import (CostBreakdown, ExpectedCost, TransmissionInvestment,
                    generation_investment, objective)
from .dispatch import bus_generation, dispatch_rows
from .dcflow import solve_rows
from .errors import GridTepError, ResampleBudgetError
from .network import MONTHS, ActiveNetwork, NetworkCase, scenario_demand
from .rng import DOMAIN_MCS, substreams
# Unused here, but perfbench/tracer.py rebinds them on this module.
from .contingency import enumerate_deterministic, sample_state  # noqa: F401
from .dcflow import solve_with_outages  # noqa: F401
from .dispatch import merit_order_dispatch  # noqa: F401
from .rng import substream  # noqa: F401

MODE_MCS = "mcs"
MODE_N1 = "n1"
MODE_N2 = "n2"
MODES = (MODE_MCS, MODE_N1, MODE_N2)

POLICY_NL = "nl"  # sizing may resize candidate lines only
POLICY_WEL = "wel"  # sizing may resize every line
POLICIES = (POLICY_NL, POLICY_WEL)

MAX_RESAMPLES = 1000  # element-wise draws per Monte Carlo slot
# Rows per adequacy-kernel pass (at least), and per build (at most). A
# pass costs some tens of NumPy calls whatever its size, which outweighs
# per-row work now that rows carry integer state ids, not Python keys. On
# the bundled case 256 runs as fast as 512, whose temporaries add about
# 0.5 MB to a study's peak.
KERNEL_ROWS = 256
# Rows a redraw round draws at most, unless more streams are pending, when
# it draws one state each. Without a bound, a capacity vector that leaves
# every state invalid (zero ratings) doubles thousands of streams' draws
# each round up to the resample budget, and one round's arrays take
# gigabytes. 4096 rows keep a round's arrays to a few MB, and still let a
# few hundred slots that reject more than nine states in ten double their
# draws every round.
ROUND_ROWS = 16 * KERNEL_ROWS


def is_integer(value) -> bool:
    """An int or numpy integer; as in case files, a bool is not a number."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class PlanSettings:
    """How a plan is priced: the contingency mode, the sizing policy and
    their knobs. ``PlanEvaluator`` reads the mode and ``n_mcs``;
    ``sizing_loop`` reads the rest. Out-of-range values raise ValueError
    here, so neither has to check them."""

    mode: str = MODE_MCS  # mcs | n1 | n2
    policy: str = POLICY_NL  # nl | wel
    n_mcs: int = 1000  # Monte Carlo samples per month
    delta_f: float = 5.0  # MW added per roulette hit
    congestion_threshold: float = 0.1  # P_con must strictly exceed this

    def __post_init__(self):
        # Each check is a comparison that NaN fails, so NaN is rejected.
        for name, rule, ok in (
            ("mode", f"one of {', '.join(MODES)}", self.mode in MODES),
            ("policy", f"one of {', '.join(POLICIES)}",
             self.policy in POLICIES),
            ("n_mcs", "an integer >= 1",
             is_integer(self.n_mcs) and self.n_mcs >= 1),
            ("delta_f", "finite and > 0", 0 < self.delta_f < math.inf),
            ("congestion_threshold", ">= 0", self.congestion_threshold >= 0),
        ):
            if not ok:
                raise ValueError(
                    f"{name} must be {rule}, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class StateRecord:
    """Capacity-independent facts about one dispatched, solved state, or
    about a batch of them: ``build_records`` adds a leading row axis to
    every field."""

    flows: np.ndarray  # per line, unconstrained DC flows
    demand: np.ndarray  # per bus, served demand entering the balance
    generation: np.ndarray  # per bus, dispatched output
    deficit: float  # MW of demand curtailed for lack of online capacity
    ego: np.ndarray  # per generator, cut-off base-dispatch output


def _columns(recs: StateRecord) -> list[np.ndarray]:
    """What the kernel reads of a batch of records, none of it
    rating-dependent, a row per record: the flows' terms (|f|, forward,
    backward), the demand and generation and the screen's limits (per bus,
    then system), and last the dispatch deficit and the cut-off base
    output (ego)."""
    return [*flow_terms(recs.flows), recs.demand, recs.generation,
            *screen_limits(recs.demand, recs.generation), recs.deficit,
            recs.ego]


class ScenarioBatch:
    """Dispatched, solved outage states of one or more scenario months,
    stacked for vector math: a row per state, holding what the kernel
    reads of it.

    Rows are append-only: a state keeps its row for the batch's lifetime,
    and the stacked arrays grow in place, so earlier rows are never copied
    per append. The batch keeps no map from states to rows: each caller
    adds a state once and remembers its row (``_McsScenario`` by (month,
    sampler id), enumeration by adding its distinct states once).
    """

    def __init__(self, context: RunContext, net: ActiveNetwork):
        self.context = context
        self.case = case = context.case
        self.net = net
        self._n = 0
        n_lines, n_buses = len(net.lines), net.n_buses
        # Row storage with spare capacity; rows [0, _n) are live, and
        # _live holds views of them.
        self._cols = self._live = _columns(StateRecord(
            flows=np.zeros((0, n_lines)), demand=np.zeros((0, n_buses)),
            generation=np.zeros((0, n_buses)), deficit=np.zeros(0),
            ego=np.zeros((0, len(case.generators)))))

    def __len__(self) -> int:
        return self._n

    def add(self, month: np.ndarray, out: np.ndarray) -> int:
        """Append the states of month ``month[k]`` with the outages of row
        k of the bool outage mask ``out`` as rows in order, with their
        kernel terms and screen limits; returns the first one's row. They
        are dispatched and solved ``KERNEL_ROWS`` at a time, so a build's
        temporaries stay small however many states a round holds."""
        start = self._n
        for lo in range(0, len(out), KERNEL_ROWS):
            hi = lo + KERNEL_ROWS
            recs = build_records(self.context, self.net, month[lo:hi],
                                 out[lo:hi])
            end = self._n + len(recs.deficit)
            if end > len(self._cols[0]):
                size = max(16, 2 * len(self._cols[0]), end)
                self._cols = [np.resize(col, (size, *col.shape[1:]))
                              for col in self._cols]
            for col, new in zip(self._cols, _columns(recs)):
                col[self._n:end] = new
            self._n = end
            self._live = [col[:end] for col in self._cols]
        return start

    @property
    def ego(self) -> np.ndarray:
        """(rows, generators) cut-off base-dispatch output of each row."""
        return self._live[-1]

    def evaluate(self, capacities: np.ndarray, start: int = 0
                 ) -> "BatchEvaluation":
        """Capacity-dependent quantities for every state from row ``start``
        on, through the adequacy kernel.

        A one-row matrix product takes numpy's matrix-vector path, which
        rounds differently from the matrix-matrix one; evaluating at least
        two rows keeps each row's figures independent of how rows are
        split into calls. The kernel runs over consecutive parts of at
        least ``KERNEL_ROWS`` rows, or over all of them when there are
        fewer, so its temporaries stay small however many rows a year
        holds.
        """
        lo = max(0, min(start, self._n - 2))
        n_parts = max(1, (self._n - lo) // KERNEL_ROWS)
        if n_parts == 1 and lo == start:
            return self._kernel(capacities, lo, self._n)
        bounds = [lo + k * (self._n - lo) // n_parts
                  for k in range(n_parts + 1)]
        return BatchEvaluation.concat([
            self._kernel(capacities, a, b)
            for a, b in zip(bounds, bounds[1:])]).take(slice(start - lo, None))

    def _kernel(self, capacities: np.ndarray, a: int, b: int
                ) -> "BatchEvaluation":
        """The kernel's figures of rows ``a`` to ``b``; a pass over every
        live row reads the live columns as they are."""
        cols = self._live[:-1]
        if (a, b) != (0, self._n):
            cols = [col[a:b] for col in cols]
        *terms, deficit = cols
        valid, dns, gns, wheeling, congested = kernel(self.net, capacities,
                                                      *terms)
        return BatchEvaluation(valid, dns + deficit, gns, wheeling, congested)


@dataclass(frozen=True)
class BatchEvaluation:
    valid: np.ndarray  # bool per distinct state
    dns: np.ndarray  # MW per distinct state (deficit included)
    gns: np.ndarray
    wheeling: np.ndarray
    congested: np.ndarray  # (states, lines) bool

    @staticmethod
    def concat(parts: list["BatchEvaluation"]) -> "BatchEvaluation":
        """Evaluations of consecutive row ranges, joined in row order."""
        if len(parts) == 1:
            return parts[0]
        return BatchEvaluation(*(
            np.concatenate([getattr(p, name) for p in parts])
            for name in _BATCH_FIELDS))

    def take(self, rows) -> "BatchEvaluation":
        """The given rows, in the given order."""
        return BatchEvaluation(*(getattr(self, name)[rows]
                                 for name in _BATCH_FIELDS))


_BATCH_FIELDS = tuple(f.name for f in fields(BatchEvaluation))


def expectations(w: np.ndarray, ev: BatchEvaluation, ego: np.ndarray,
                 bounds, samples_used, samples_drawn) -> ExpectationReport:
    """The ``ExpectationReport`` of consecutive groups of rows: row k of
    each field holds the expectations over rows ``bounds[k]`` to
    ``bounds[k + 1]`` of ``ev`` and ``ego`` with per-row weights ``w``,
    each from one dot product over that slice."""
    n = len(bounds) - 1
    edns, egns, ewl = np.empty(n), np.empty(n), np.empty(n)
    ego_out = np.empty((n, ego.shape[1]))
    congestion = np.empty((n, ev.congested.shape[1]))
    dns, gns, wheeling, congested = ev.dns, ev.gns, ev.wheeling, ev.congested
    for k, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        wk = w[a:b]
        edns[k] = wk.dot(dns[a:b])
        egns[k] = wk.dot(gns[a:b])
        ewl[k] = wk.dot(wheeling[a:b])
        ego_out[k] = wk.dot(ego[a:b])
        congestion[k] = wk.dot(congested[a:b])
    return ExpectationReport(
        edns=edns, egns=egns, ewl=ewl, ego=ego_out,
        congestion_probability=congestion,
        samples_used=np.asarray(samples_used),
        samples_drawn=np.asarray(samples_drawn))


@dataclass(frozen=True)
class CapacityEvaluation:
    """Everything one rating vector costs and suffers."""

    report: ExpectationReport  # 12 monthly rows
    breakdown: CostBreakdown  # k$; J = EC + T_inv + G_inv
    congestion_probability: np.ndarray  # per line, mean over the 12 months


def _firsts(keys: np.ndarray, size: int) -> np.ndarray:
    """Where each distinct key of ``keys``, integers in [0, size), first
    appears, in order of appearance."""
    first = np.full(size, len(keys))
    at = np.arange(len(keys))
    np.minimum.at(first, keys, at)
    return at[first[keys] == at]


class _McsScenario:
    """Monte Carlo slots of the 12 scenario months, priced together.

    Slot ``slot`` of month ``month`` draws from stream ``(month - 1) *
    n_slots + slot``. ``draws`` holds each stream's element-wise draws so
    far, where its next draw starts, and ``states[:n_states]`` each state
    a slot has used as (stream, batch row, draws so far), in one-state
    round order; spare rows follow, as in ScenarioBatch. ``row_of`` holds
    the batch row of each (month, sampler id) built, so each is built
    once. ``first_used`` lists the rows in the order slots first used
    them, and ``first_month`` the month of each. States drawn ahead and
    not used are built, and found in ``row_of`` when the stream draws them
    again.
    """

    def __init__(self, batch, entropy, n_slots):
        self.batch = batch
        self.n_slots = n_slots
        self.sampler = RoundSampler(batch.case, batch.net, substreams(
            entropy, (DOMAIN_MCS,), np.repeat(MONTHS, n_slots),
            np.tile(np.arange(n_slots), len(MONTHS))))
        self.draws = np.zeros(len(MONTHS) * n_slots, dtype=np.int64)
        self.states = np.zeros((0, 3), dtype=np.int64)
        self.n_states = 0
        # Batch row of each (month - 1, sampler state id), -1 when unbuilt;
        # grown with spare ids as the sampler meets new outage codes.
        self.row_of = np.full((len(MONTHS), 0), -1, dtype=np.intp)
        self.listed = np.zeros(0, dtype=bool)  # per batch row
        # Every listed row and its month (0-based), in order of first use.
        self.first_used = np.zeros(0, dtype=np.intp)
        self.first_month = np.zeros(0, dtype=np.intp)
        self._by_month = None  # what _months returns, until rows are listed

    def _budget_error(self, stream) -> ResampleBudgetError:
        month, slot = divmod(int(stream), self.n_slots)
        return ResampleBudgetError(
            f"slot {slot} of month {month + 1}: no valid sample within "
            f"{MAX_RESAMPLES} draws")

    def _build(self, months, ids):
        """The batch rows of the drawn states ``ids`` of months ``months``
        (0-based), flat arrays in one-state round order; -1 where no state
        is. The new ones are built in one call, in that order."""
        sampler = self.sampler
        n_ids = len(sampler.out)
        if n_ids > self.row_of.shape[1]:
            self.row_of = np.pad(self.row_of, ((0, 0), (0, n_ids)),
                                 constant_values=-1)
        rows = self.row_of[months, ids]
        unbuilt = np.flatnonzero((rows < 0) & (ids >= 0))
        if len(unbuilt):
            # Each new (month, id) once, in order of first appearance.
            m, i = months[unbuilt], ids[unbuilt]
            new = _firsts(m * n_ids + i, len(MONTHS) * n_ids)
            start = self.batch.add(m[new] + 1, sampler.out[i[new]])
            self.row_of[m[new], i[new]] = np.arange(start, len(self.batch))
            rows = self.row_of[months, ids]
        return np.where(ids < 0, -1, rows)

    def _use(self, streams, rows, so_far):
        """Record states as used, in one-state round order: each one's
        stream, batch row and stream's draws so far."""
        new = np.column_stack([streams, rows, so_far])
        end = self.n_states + len(new)
        if end > len(self.states):
            self.states = np.resize(self.states, (max(16, 2 * end), 3))
        self.states[self.n_states:end] = new
        self.n_states = end
        # A month lists a row when one of its slots first uses it.
        if len(self.listed) < len(self.batch):
            self.listed = np.concatenate([self.listed, np.zeros(
                len(self.batch) - len(self.listed), dtype=bool)])
        fresh = np.flatnonzero(~self.listed[rows])
        if len(fresh):
            fresh = fresh[_firsts(rows[fresh], len(self.listed))]
            self.listed[rows[fresh]] = True
            self.first_used = np.concatenate([self.first_used, rows[fresh]])
            self.first_month = np.concatenate([
                self.first_month, streams[fresh] // self.n_slots])
            self._by_month = None

    def _months(self):
        """Each month's rows in the order its slots first used them, the
        months one after another; where each month's rows begin (13
        bounds); and those rows' ego."""
        if self._by_month is None:
            order = np.argsort(self.first_month, kind="stable")
            rows = self.first_used[order]
            bounds = np.searchsorted(self.first_month[order],
                                     np.arange(len(MONTHS) + 1))
            self._by_month = rows, bounds.tolist(), self.batch.ego[rows]
        return self._by_month

    def result(self, capacities: np.ndarray) -> ExpectationReport:
        """The 12 months' ``ExpectationReport`` at these ratings.

        Streams with no valid state yet, or no state at all, are pending,
        in ascending stream order. Redraw rounds resolve them: round 0
        draws one state per pending stream, and each later round twice as
        many per stream still pending as the round before, each round's
        in one sampling pass, one build and one kernel call over the rows
        it added. A round draws at most ``ROUND_ROWS`` states, or one per
        pending stream when more are pending. Every round, one state wide
        or more, takes the same update: a stream uses its states up to
        its first valid one, so a lone slot that needs N states in a row
        takes about log2(N + 1) rounds, and every figure is the one
        drawing a state per round gives. Errors are raised where that
        one-state order meets them: a budget that runs out names the slot
        of the first one-state round where one does, and if a drawn-ahead
        build raises a GridTepError, the round is drawn again, and the
        call finished, one state per stream. When it raises a
        GridTepError, ``draws`` counts each pending stream's draws up to
        that one-state round.
        """
        batch = self.batch
        parts = [batch.evaluate(capacities)] if len(batch) else []
        valid = parts[0].valid if parts else np.zeros(0, dtype=bool)
        rows = np.full(len(self.draws), -1, dtype=np.intp)  # -1: pending
        drawn = np.zeros(len(self.draws), dtype=np.int64)
        stream, row, so_far = self.states[:self.n_states].T
        ok = np.flatnonzero(valid[row])
        first = ok[_firsts(stream[ok], len(self.draws))]
        rows[stream[first]], drawn[stream[first]] = row[first], so_far[first]
        pending = np.flatnonzero(rows < 0)

        ahead, grow = 1, True
        evaluated = len(batch)
        while len(pending):
            at = self.draws[pending]
            ids, draws = self.sampler.draw(pending, at, MAX_RESAMPLES - at,
                                           ahead)
            # A budget that runs out before a stream's first state raises
            # before any state is built.
            empty = np.flatnonzero(ids[:, 0] < 0)
            if len(empty):
                self.draws[pending] = at + draws[:, 0]
                raise self._budget_error(pending[empty[0]])
            try:
                # The j-th states of all pending streams, j after j, as
                # (ahead, streams) batch rows.
                new_rows = self._build(
                    np.tile(pending // self.n_slots, ahead),
                    ids.T.ravel()).reshape(ahead, -1)
            except GridTepError:
                if ahead == 1:
                    self.draws[pending] = at + draws[:, 0]
                    raise
                # The state that failed may be one no slot reaches. Drawn
                # again one state per round, the error comes back where a
                # slot does reach it. Rows a failed build added stay
                # unused: their states are built again when drawn again.
                ahead, grow = 1, False
                continue
            if len(batch) > evaluated:
                parts.append(batch.evaluate(capacities, evaluated))
                valid = np.concatenate([valid, parts[-1].valid])
                evaluated = len(batch)
            draws = draws.T
            hit = (new_rows >= 0) & valid[new_rows]
            # Each stream uses its states up to its first valid one, all of
            # them when none is.
            seen = np.logical_or.accumulate(hit)
            use = np.ones_like(hit)
            use[1:] = ~seen[:-1]
            done = seen[-1]
            short = ~done & (new_rows[-1] < 0)  # out of budget, none valid
            spent = np.where(use, draws, 0)  # draws up to each used state
            if short.any():
                # The one-state round where a budget first runs out.
                got = (new_rows >= 0).sum(axis=0)
                last = got[short].min()
                self.draws[pending] = at + spent[:last + 1].max(axis=0)
                raise self._budget_error(pending[short & (got == last)][0])
            self.draws[pending] = at + spent.max(axis=0)
            flat = np.flatnonzero(use)  # state-major: one-state round order
            pos = flat % len(pending)
            self._use(pending[pos], new_rows.ravel()[flat],
                      at[pos] + draws.ravel()[flat])
            rows[pending] = np.where(hit & use, new_rows, -1).max(axis=0)
            # Streams still pending are set again when they are done.
            drawn[pending] = self.draws[pending]
            pending = pending[~done]
            if grow and len(pending):
                ahead = min(2 * ahead, max(1, ROUND_ROWS // len(pending)))

        # Each month's expectations reduce over its own rows, in the order
        # it first used them, gathered once for all months.
        ev = BatchEvaluation.concat(parts)
        w = np.bincount(rows, minlength=len(batch)) / self.n_slots
        order, bounds, ego = self._months()
        return expectations(
            w[order], ev.take(order), ego, bounds,
            np.full(len(MONTHS), self.n_slots),
            drawn.reshape(len(MONTHS), self.n_slots).sum(axis=1))


class _DeterministicScenario:
    """Enumerated equal-weight states of the peak month, which stands in
    for all 12."""

    def __init__(self, batch, mode, month, order):
        self.batch = batch
        self.mode = mode
        self.month = month
        out = enumerate_outages(batch.case, batch.net, order)
        self.n_states = len(out)
        batch.add(np.full(len(out), month), out)

    def result(self, capacities: np.ndarray) -> ExpectationReport:
        ev = self.batch.evaluate(capacities)
        w = ev.valid / self.n_states
        total = np.add.reduce(w)
        if not total > 0:
            raise GridTepError(
                f"mode {self.mode}, month {self.month}: none of the "
                f"{self.n_states} enumerated states passes the validity "
                "screen at these ratings")
        # The peak month's expectations, as ``expectations`` takes them
        # over all rows, each repeated for the 12 months.
        w = w / total
        months = len(MONTHS)
        return ExpectationReport(
            *(w.dot(x)[None].repeat(months, axis=0) for x in (
                ev.dns, ev.gns, ev.wheeling, self.batch.ego, ev.congested)),
            samples_used=np.full(months, np.count_nonzero(ev.valid)),
            samples_drawn=np.full(months, self.n_states))


def build_record(context: RunContext, net: ActiveNetwork, month: int,
                 state: OutageState) -> StateRecord:
    """Dispatch and solve one outage state of month ``month``
    (capacity-independent): a one-row ``build_records``."""
    out = _encode(context.case, net, [(state.lines_out, state.gens_out)])
    rec = build_records(context, net, np.array([month]), out)
    return StateRecord(flows=rec.flows[0], demand=rec.demand[0],
                       generation=rec.generation[0],
                       deficit=float(rec.deficit[0]), ego=rec.ego[0])


def build_records(context: RunContext, net: ActiveNetwork,
                  month: np.ndarray, out: np.ndarray) -> StateRecord:
    """Dispatch and solve a non-empty batch of outage states, a row each.

    Row k is month ``month[k]`` with the outages of row k of the bool
    (states, lines + generators) outage mask ``out``. The merit dispatch
    comes from the run's memo (``RunContext.dispatch``), the DC flows
    from one ``solve_rows`` call.
    """
    n_lines = len(net.lines)
    served, generation, deficit, ego = context.dispatch(month,
                                                        out[:, n_lines:])
    sol = solve_rows(net, generation - served, ~out[:, :n_lines])
    return StateRecord(flows=sol.flows, demand=served, generation=generation,
                       deficit=deficit, ego=ego)


def base_schedules(case: NetworkCase) -> np.ndarray:
    """Intact-fleet merit dispatch for each of the 12 months, a row each."""
    schedule, _, _ = dispatch_rows(
        case, np.array([scenario_demand(case, m) for m in MONTHS]),
        np.zeros((len(MONTHS), len(case.generators)), dtype=bool))
    return schedule


class RunContext:
    """What every plan of one run shares and no plan changes: the case,
    its monthly demand vectors (a row per month), base schedules and
    G_inv, the expected-cost rates as arrays, and the memo of merit
    dispatch. ``planner.run`` and the ``adequacy`` command build one per
    call, so nothing here outlives the run.
    """

    def __init__(self, case: NetworkCase):
        self.case = case
        self.demand = np.array([scenario_demand(case, m) for m in MONTHS])
        self.schedules = base_schedules(case)
        self.g_inv = generation_investment(case, self.schedules)
        self.expected_cost = ExpectedCost(case.costs, case.generators)
        # (month, generator-outage row) bytes -> (served demand, bus
        # generation, deficit, ego) of that dispatch.
        self.dispatched: dict[bytes, tuple] = {}
        self.rows_requested = self.rows_dispatched = 0

    def dispatch(self, month: np.ndarray, offline: np.ndarray):
        """(served demand, bus generation, deficit, ego) of month
        ``month[k]`` with the units in row k of the bool ``offline`` out,
        a row each. Each distinct pair is dispatched once per run, the
        ones new to it in one ``dispatch_rows`` call; ``rows_requested``
        and ``rows_dispatched`` count the rows asked for and dispatched."""
        # Each row's month (a byte holds it) and generator-outage row, as
        # one byte string, so one 1-D np.unique tells them apart.
        rows = np.column_stack([month, offline]).astype(np.uint8)
        distinct, first, inverse = np.unique(
            rows.view(np.dtype((np.void, rows.shape[1])))[:, 0],
            return_index=True, return_inverse=True)
        keys = distinct.tolist()
        memo = self.dispatched
        misses = [k for k, key in enumerate(keys) if key not in memo]
        self.rows_requested += len(rows)
        if misses:
            at = first[misses]
            self.rows_dispatched += len(at)
            m = month[at] - 1
            schedule, served, deficit = dispatch_rows(
                self.case, self.demand[m], offline[at])
            memo.update(zip([keys[k] for k in misses], zip(
                served, bus_generation(self.case, schedule), deficit,
                np.where(offline[at], self.schedules[m], 0.0))))
        return (np.array(col)[inverse]
                for col in zip(*map(memo.__getitem__, keys)))


class PlanEvaluator:
    """Prices rating vectors for one fixed topology.

    All randomness flows from the entropy key, making evaluations
    replayable. What does not depend on the line plan (G_inv, the base
    schedules, the expected-cost rates, merit dispatch) comes from the
    run's ``RunContext``; T_inv's per-line constants are worked out once
    for the topology.
    """

    def __init__(self, context: RunContext, net: ActiveNetwork,
                 settings: PlanSettings, entropy):
        self.context = context
        self.net = net
        self.t_inv = TransmissionInvestment(net, context.case.costs)
        batch = ScenarioBatch(context, net)
        if settings.mode == MODE_MCS:
            self.scenario = _McsScenario(batch, entropy, settings.n_mcs)
        else:
            order = 1 if settings.mode == MODE_N1 else 2
            self.scenario = _DeterministicScenario(
                batch, settings.mode, context.case.ldc.peak_month(), order)

    def evaluate(self, capacities) -> CapacityEvaluation:
        """Price one rating vector: a rating per line of the topology, in
        line order, each finite and >= 0 MW (else ValueError)."""
        caps = np.asarray(capacities, dtype=float)
        if caps.shape != (len(self.net.lines),):
            raise ValueError(
                f"expected {len(self.net.lines)} ratings, one per line, got "
                f"shape {caps.shape}")
        bad = ~((caps >= 0) & (caps < math.inf))  # NaN fails both
        if bad.any():
            k = int(bad.argmax())
            raise ValueError(
                f"ratings must be finite and >= 0 MW, got {float(caps[k])!r} "
                f"for line {self.net.lines[k].id}")
        report = self.scenario.result(caps)
        ec = self.context.expected_cost
        return CapacityEvaluation(
            report=report,
            breakdown=objective(
                ec.edns(report.edns), ec.egns(report.egns, report.ego),
                ec.ewl(report.ewl), self.t_inv(caps.tolist()),
                self.context.g_inv),
            # np.add.reduce / 12 is the bits of .mean(axis=0), without
            # its wrapper.
            congestion_probability=np.add.reduce(
                report.congestion_probability, axis=0) / len(MONTHS),
        )
