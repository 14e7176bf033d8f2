"""Plan evaluation engine.

A ``PlanEvaluator`` is bound to one topology (an applied build plan) and
prices rating vectors for it, one rating per line. The expensive work
per outage state — merit dispatch and the DC solve — does not depend on
ratings, so it is computed once per distinct state and cached; each
rating vector then only re-runs the cheap truncation arithmetic,
vectorized across all distinct states of a scenario.

A scenario builds its new states together: its enumerated states, or
one redraw round's draws of all months. Merit dispatch depends only on
the month and the generator-outage set, so a scenario's batch runs it
once per distinct (month, ``gens_out``), a build's new ones in one
``dispatch.dispatch_rows`` call, and keeps the result.
``dcflow.solve_rows`` then solves the new states, ``KERNEL_ROWS`` at a
time (``build_records``), each with the bits a one-state solve gives.

Monte Carlo mode prices the 12 months together, from one batch whose rows
are keyed by (month, lines out, generators out). Each (month, slot) has
its own RNG substream: stream ``(month - 1) * n_slots + slot`` of one
array of PCG64 states, seeded in one vectorized pass (``substreams``)
when the evaluator is built, draws what ``substream`` gives that slot.
A ``contingency.RoundSampler`` draws a round's pending streams as arrays:
one uniform row per stream, and per row the integer id of its outage
code, each distinct code decoded and screened once per evaluator, and
only the rejected rows redrawn. A round's rows are keyed by (month, id)
in an array of batch rows, so only the (month, id) pairs not built
before become batch keys, in order of first appearance. The scenario
keeps each stream's draws so far, and every state drawn as a (stream,
batch row, draws so far) entry, in draw order.
A slot's sample at a capacity vector is the first state of its stream
that passes the validity screen, so estimates across sizing iterations
share common random numbers. Each capacity vector evaluates every stored
row in one kernel call and finds each stream's first valid state with
array operations. Streams with no valid state, or no state yet, are
resolved in rounds: a round draws one more state from each pending
stream, in ascending stream order (month by month, slot by slot), builds
the states together and evaluates only the rows it added; the first
capacity vector's round 0 draws every slot's first state. The cost is
linear in the draws, validity redraws included. A kernel row's figures
do not depend on which rows share its call, and each month's
expectations reduce over that month's rows alone, in the order it first
drew them, so every figure is the one a month-by-month pricing gives.
When a slot's budget runs out, or a round's states fail to build, the
round's first error is raised (``_McsScenario._extend``).
``MAX_RESAMPLES`` bounds every element-wise draw of a slot, island
rejections included. A month's ``samples_drawn`` sums, over slots, the
element-wise draws up to and including the slot's accepted state, so it
does not depend on which capacity vectors were priced before.

Deterministic modes (N-1 / N-2) run the enumerated states of the peak
month with equal weights; states invalid at the current capacities are
dropped and the weights renormalized, and when none is left the capacity
vector cannot be priced (GridTepError). Their peak-month expectations
are replicated across all 12 months for the annual cost formulas.

Both kinds of scenario price their distinct states through the adequacy
kernel (``adequacy.nodal_balance`` and ``adequacy.line_overloads``) and
reduce them to expectations with per-state weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .adequacy import ExpectationReport, line_overloads, nodal_balance
from .contingency import OutageState, RoundSampler, enumerate_deterministic
# sample_state is unused here; it stays importable because
# perfbench/tracer.py rebinds evaluation.sample_state.
from .contingency import sample_state  # noqa: F401
from .costs import (CostBreakdown, edns_cost, egns_cost, ewl_cost,
                    generation_investment, objective, transmission_investment)
from .dispatch import bus_generation, dispatch_rows, units_out
# merit_order_dispatch is unused here; it stays importable because
# perfbench/tracer.py rebinds evaluation.merit_order_dispatch.
from .dispatch import merit_order_dispatch  # noqa: F401
# solve_with_outages is unused here; it stays importable because
# perfbench/tracer.py rebinds evaluation.solve_with_outages.
from .dcflow import solve_rows, solve_with_outages  # noqa: F401
from .errors import GridTepError, ResampleBudgetError
from .network import MONTHS, ActiveNetwork, NetworkCase, scenario_demand
# substream is unused here; it stays importable because
# perfbench/tracer.py rebinds evaluation.substream.
from .rng import DOMAIN_MCS, substream, substreams  # noqa: F401

MODE_MCS = "mcs"
MODE_N1 = "n1"
MODE_N2 = "n2"
MODES = (MODE_MCS, MODE_N1, MODE_N2)

POLICY_NL = "nl"  # sizing may resize candidate lines only
POLICY_WEL = "wel"  # sizing may resize every line
POLICIES = (POLICY_NL, POLICY_WEL)

MAX_RESAMPLES = 1000  # element-wise draws per Monte Carlo slot
# Rows per adequacy-kernel pass (at least), and per build and slot
# streams per sampling pass (at most). A pass costs some tens of NumPy
# calls whatever its size, which outweighs per-row work now that rows
# carry integer state ids, not Python keys. On the bundled case 256 runs
# as fast as 512, whose temporaries add about 0.5 MB to a study's peak.
KERNEL_ROWS = 256


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


class ScenarioBatch:
    """Distinct outage states of one or more scenario months, stacked for
    vector math.

    A row is keyed by (month, lines out, generators out). Rows are
    append-only: a state keeps its row for the batch's lifetime, and the
    stacked arrays grow in place, so earlier rows are never copied per
    append. ``month_rows`` lists each month's rows in the order they were
    added.
    """

    def __init__(self, case: NetworkCase, net: ActiveNetwork,
                 schedules: dict[int, tuple[float, ...]]):
        """``schedules`` maps each month the batch holds to its base
        (intact-fleet) schedule."""
        self.case = case
        self.net = net
        self.months = {m: (scenario_demand(case, m), schedule)
                       for m, schedule in schedules.items()}
        self.key_row: dict[tuple[int, frozenset[int], frozenset[int]],
                           int] = {}
        self.month_rows: dict[int, list[int]] = {m: [] for m in self.months}
        # (month, gens_out) -> the month's dispatch with those units out.
        self._dispatched: dict[tuple[int, frozenset[int]], tuple] = {}
        self._n = 0
        n_lines, n_buses = len(net.lines), net.n_buses
        # Row storage with spare capacity; rows [0, _n) are live.
        self._flows = np.zeros((0, n_lines))
        self._demand = np.zeros((0, n_buses))
        self._gen = np.zeros((0, n_buses))
        self._deficit = np.zeros(0)
        self._ego = np.zeros((0, len(case.generators)))

    def __len__(self) -> int:
        return self._n

    def rows(self, keys) -> list[int]:
        """Row index of each (month, lines_out, gens_out) key. Keys not
        seen before take rows in order of first appearance; they are
        dispatched and solved in batches of at most ``KERNEL_ROWS``, so a
        build's temporaries stay small however many keys a round holds."""
        key_row = self.key_row
        new = [key for key in dict.fromkeys(keys) if key not in key_row]
        for lo in range(0, len(new), KERNEL_ROWS):
            part = new[lo:lo + KERNEL_ROWS]
            start = self._append(build_records(
                self.case, self.net, part, self.months, self._dispatched))
            for row, key in enumerate(part, start):
                key_row[key] = row
                self.month_rows[key[0]].append(row)
        return [key_row[key] for key in keys]

    def _append(self, recs: StateRecord) -> int:
        """Append a batch of records; returns the first one's row."""
        start = self._n
        end = start + len(recs.deficit)
        if end > len(self._deficit):
            size = max(16, 2 * len(self._deficit), end)
            self._flows, self._demand, self._gen, self._deficit, self._ego = (
                np.resize(a, (size, *a.shape[1:])) for a in
                (self._flows, self._demand, self._gen, self._deficit,
                 self._ego))
        self._flows[start:end] = recs.flows
        self._demand[start:end] = recs.demand
        self._gen[start:end] = recs.generation
        self._deficit[start:end] = recs.deficit
        self._ego[start:end] = recs.ego
        self._n = end
        return start

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
        bounds = [lo + k * (self._n - lo) // n_parts
                  for k in range(n_parts + 1)]
        return BatchEvaluation.concat([
            self._kernel(capacities, slice(a, b))
            for a, b in zip(bounds, bounds[1:])]).take(slice(start - lo, None))

    def _kernel(self, capacities: np.ndarray, rows: slice
                ) -> "BatchEvaluation":
        flows = self._flows[rows]
        balance = nodal_balance(self.net, flows, self._demand[rows],
                                self._gen[rows], capacities)
        congested, wheeling = line_overloads(flows, capacities)
        return BatchEvaluation(
            valid=balance.valid,
            dns=balance.total_dns + self._deficit[rows],
            gns=balance.total_gns,
            wheeling=wheeling,
            congested=congested,
            ego=self._ego[rows],
        )


@dataclass(frozen=True)
class BatchEvaluation:
    valid: np.ndarray  # bool per distinct state
    dns: np.ndarray  # MW per distinct state (deficit included)
    gns: np.ndarray
    wheeling: np.ndarray
    congested: np.ndarray  # (states, lines) bool
    ego: np.ndarray  # (states, generators) MW

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

    def weighted(self, w: np.ndarray, samples_used: int,
                 samples_drawn: int) -> dict:
        """One scenario's ``ExpectationReport`` entries: expectations over
        the states with per-row weights ``w``."""
        return {
            "edns": float(w @ self.dns),
            "egns": float(w @ self.gns),
            "ewl": float(w @ self.wheeling),
            "ego": w @ self.ego,
            "congestion_probability": w @ self.congested,
            "samples_used": samples_used,
            "samples_drawn": samples_drawn,
        }


_BATCH_FIELDS = tuple(f.name for f in fields(BatchEvaluation))


@dataclass(frozen=True)
class CapacityEvaluation:
    """Everything one rating vector costs and suffers."""

    report: ExpectationReport  # 12 monthly rows
    breakdown: CostBreakdown  # k$; J = EC + T_inv + G_inv
    congestion_probability: np.ndarray  # per line, mean over the 12 months


class _McsScenario:
    """Monte Carlo slots of the 12 scenario months, priced together.

    Slot ``slot`` of month ``month`` draws from stream ``(month - 1) *
    n_slots + slot``. ``draws`` holds each stream's element-wise draws so
    far, and ``states[:n_states]`` each drawn state as (stream, batch row,
    draws so far), in draw order; spare rows follow, as in ScenarioBatch.
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

    def _extend(self, pending):
        """Draw the next state of each pending stream, within what is left
        of its budget, and add the new states to the batch in one call, in
        stream order. Returns their rows and their streams' draws so far.

        The first pending stream whose budget runs out raises before any
        of the round's states is built; an error building them propagates.
        """
        sampler = self.sampler
        ids, draws, exhausted = sampler.draw(
            pending, MAX_RESAMPLES - self.draws[pending], KERNEL_ROWS)
        if exhausted is not None:
            month, slot = divmod(int(pending[exhausted]), self.n_slots)
            raise ResampleBudgetError(
                f"slot {slot} of month {month + 1}: no valid sample within "
                f"{MAX_RESAMPLES} draws")
        n_ids = len(sampler.states)
        if n_ids > self.row_of.shape[1]:
            self.row_of = np.pad(self.row_of, ((0, 0), (0, n_ids)),
                                 constant_values=-1)
        months = pending // self.n_slots
        rows = self.row_of[months, ids]
        unbuilt = np.flatnonzero(rows < 0)
        if len(unbuilt):
            # Each new (month, id) once, in order of first appearance.
            _, first = np.unique(months[unbuilt] * n_ids + ids[unbuilt],
                                 return_index=True)
            new = unbuilt[np.sort(first)]
            self.row_of[months[new], ids[new]] = self.batch.rows([
                (month + 1, *sampler.states[i])
                for month, i in zip(months[new].tolist(), ids[new].tolist())])
            rows = self.row_of[months, ids]
        self.draws[pending] += draws
        new = np.column_stack([pending, rows, self.draws[pending]])
        end = self.n_states + len(new)
        if end > len(self.states):
            self.states = np.resize(self.states, (max(16, 2 * end), 3))
        self.states[self.n_states:end] = new
        self.n_states = end
        return new[:, 1], new[:, 2]

    def result(self, capacities: np.ndarray) -> list[dict]:
        """The 12 months' ``ExpectationReport`` entries at these ratings.

        Streams with no valid state yet, or no state at all, are pending,
        in ascending stream order; a redraw round draws each one's next
        state, so a slot's first draw is round 0, and evaluates only the
        rows it added. A round's first error is raised (``_extend``).
        """
        batch = self.batch
        parts = [batch.evaluate(capacities)] if len(batch) else []
        valid = parts[0].valid if parts else np.zeros(0, dtype=bool)
        rows = np.full(len(self.draws), -1, dtype=np.intp)  # -1: pending
        drawn = np.zeros(len(self.draws), dtype=np.int64)
        stream, row, so_far = self.states[:self.n_states].T
        ok = np.flatnonzero(valid[row])
        found, first = np.unique(stream[ok], return_index=True)
        rows[found], drawn[found] = row[ok[first]], so_far[ok[first]]
        pending = np.flatnonzero(rows < 0)

        while len(pending):
            start = len(batch)
            new_rows, new_drawn = self._extend(pending)
            if len(batch) > start:
                parts.append(batch.evaluate(capacities, start))
                valid = np.concatenate([valid, parts[-1].valid])
            rows[pending], drawn[pending] = new_rows, new_drawn
            pending = pending[~valid[new_rows]]

        # Each month's expectations reduce over its own rows, in the order
        # it first drew them.
        ev = BatchEvaluation.concat(parts)
        w = np.bincount(rows, minlength=len(batch)) / self.n_slots
        drawn = drawn.reshape(len(MONTHS), self.n_slots).sum(axis=1)
        results = []
        for own, month_drawn in zip(batch.month_rows.values(),
                                    drawn.tolist()):
            own = np.array(own)
            results.append(ev.take(own).weighted(w[own], self.n_slots,
                                                 month_drawn))
        return results


class _DeterministicScenario:
    """Enumerated equal-weight states of the peak month, which stands in
    for all 12."""

    def __init__(self, batch, mode, month, order):
        self.batch = batch
        self.mode = mode
        self.month = month
        states = enumerate_deterministic(batch.case, batch.net, order)
        self.n_states = len(states)
        batch.rows([(month, state.lines_out, state.gens_out)
                    for state in states])

    def result(self, capacities: np.ndarray) -> list[dict]:
        ev = self.batch.evaluate(capacities)
        w = ev.valid / self.n_states
        total = w.sum()
        if not total > 0:
            raise GridTepError(
                f"mode {self.mode}, month {self.month}: none of the "
                f"{self.n_states} enumerated states passes the validity "
                "screen at these ratings")
        return [ev.weighted(w / total, int(ev.valid.sum()),
                            self.n_states)] * len(MONTHS)


def build_record(
    case: NetworkCase,
    net: ActiveNetwork,
    demand: np.ndarray,
    state: OutageState,
    base_schedule: tuple[float, ...],
) -> StateRecord:
    """Dispatch and solve one outage state (capacity-independent): a
    one-row ``build_records``."""
    rec = build_records(case, net, [(0, state.lines_out, state.gens_out)],
                        {0: (demand, base_schedule)}, {})
    return StateRecord(flows=rec.flows[0], demand=rec.demand[0],
                       generation=rec.generation[0],
                       deficit=float(rec.deficit[0]), ego=rec.ego[0])


def build_records(
    case: NetworkCase,
    net: ActiveNetwork,
    keys: list[tuple[int, frozenset[int], frozenset[int]]],
    months: dict[int, tuple[np.ndarray, tuple[float, ...]]],
    dispatched: dict,
) -> StateRecord:
    """Dispatch and solve a non-empty batch of outage states, a row each.

    Row k is the state ``keys[k] = (month, lines_out, gens_out)``, and
    ``months`` maps each month to its demand vector and base schedule.
    Merit dispatch runs once per distinct (month, gens_out), the ones not
    yet in ``dispatched`` in one ``dispatch_rows`` call: ``dispatched``
    maps each to its dispatch, and keeps the new ones for later calls. The
    DC flows come from one ``solve_rows`` call.
    """
    wanted = [(month, gens_out) for month, _, gens_out in keys]
    distinct = {key: k for k, key in enumerate(dict.fromkeys(wanted))}
    misses = [key for key in distinct if key not in dispatched]
    if misses:
        offline = units_out(case, [gens_out for _, gens_out in misses])
        demand = np.array([months[month][0] for month, _ in misses])
        base = np.array([months[month][1] for month, _ in misses])
        schedule, served, deficit = dispatch_rows(case, demand, offline)
        dispatched.update(zip(misses, zip(
            served, bus_generation(case, schedule), deficit,
            np.where(offline, base, 0.0))))
    rows = np.fromiter(map(distinct.__getitem__, wanted), np.intp,
                       len(wanted))
    served, generation, deficit, ego = (
        np.array(col)[rows]
        for col in zip(*map(dispatched.__getitem__, distinct)))
    sol = solve_rows(net, generation - served,
                     [lines_out for _, lines_out, _ in keys])
    return StateRecord(flows=sol.flows, demand=served, generation=generation,
                       deficit=deficit, ego=ego)


def base_schedules(case: NetworkCase) -> list[tuple[float, ...]]:
    """Intact-fleet merit dispatch for each of the 12 months."""
    schedule, _, _ = dispatch_rows(
        case, np.array([scenario_demand(case, m) for m in MONTHS]),
        np.zeros((len(MONTHS), len(case.generators)), dtype=bool))
    return [tuple(row) for row in schedule.tolist()]


class PlanEvaluator:
    """Prices rating vectors for one fixed topology.

    All randomness flows from the entropy key, making evaluations
    replayable. G_inv does not depend on the line plan; it is computed
    once, from the base schedules the scenarios share.
    """

    def __init__(
        self,
        case: NetworkCase,
        net: ActiveNetwork,
        settings: PlanSettings,
        entropy,
    ):
        self.case = case
        self.net = net
        self.base_schedules = base_schedules(case)
        self.g_inv = generation_investment(case, self.base_schedules)

        if settings.mode == MODE_MCS:
            self.scenario = _McsScenario(
                ScenarioBatch(case, net,
                              dict(zip(MONTHS, self.base_schedules))),
                entropy, settings.n_mcs)
        else:
            peak = case.ldc.peak_month()
            order = 1 if settings.mode == MODE_N1 else 2
            batch = ScenarioBatch(case, net,
                                  {peak: self.base_schedules[peak - 1]})
            self.scenario = _DeterministicScenario(batch, settings.mode,
                                                   peak, order)

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
        results = self.scenario.result(caps)
        report = ExpectationReport(**{
            f.name: np.array([r[f.name] for r in results])
            for f in fields(ExpectationReport)})
        costs, generators = self.case.costs, self.case.generators
        return CapacityEvaluation(
            report=report,
            breakdown=objective(
                edns_cost(report.edns, costs),
                egns_cost(report.egns, report.ego, costs, generators),
                ewl_cost(report.ewl, costs),
                transmission_investment(self.net, capacities, costs),
                self.g_inv),
            congestion_probability=report.congestion_probability.mean(axis=0),
        )
