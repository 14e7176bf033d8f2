"""Plan evaluation engine.

Prices one topology (an applied build plan) under changing line
capacities. The expensive work per outage state — merit dispatch and the
DC solve — does not depend on capacities, so it is computed once per
distinct state and cached; each capacity assignment then only re-runs
the cheap truncation arithmetic, vectorized across all distinct states
of a scenario.

Monte Carlo mode gives each (scenario, slot) its own RNG substream and
keeps the chain of states the slot has drawn from it. A slot's sample at
a capacity vector is the first state of its chain that passes the
validity screen, so estimates across sizing iterations share common
random numbers. Each capacity vector first evaluates every stored row
once. Slots whose chain holds no valid state are then resolved in
rounds: a round draws one more state from each pending slot's stream, in
slot order, and evaluates only the rows that round added. The cost is
linear in the draws, validity redraws included. ``max_resamples`` bounds
every element-wise draw of a slot, island rejections included.

Deterministic modes (N-1 / N-2) run the enumerated states of the peak
month with equal weights; states invalid at the current capacities are
dropped and the weights renormalized. Their peak-month expectations are
replicated across all 12 months for the annual cost formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adequacy import ExpectationReport
from .contingency import OutageState, SamplerConfig, enumerate_deterministic, sample_state
from .costs import edns_cost, egns_cost, ewl_cost, transmission_investment
from .dispatch import bus_generation, merit_order_dispatch, injections_from_dispatch
from .dcflow import solve_with_outages
from .errors import ResampleBudgetError
from .network import MONTHS, ActiveNetwork, NetworkCase, scenario_demand
from .rng import DOMAIN_MCS, substream
from .sizing import SizingEvaluation

MODE_MCS = "mcs"
MODE_N1 = "n1"
MODE_N2 = "n2"


@dataclass(frozen=True)
class EvalConfig:
    mode: str = MODE_MCS
    n_mcs: int = 1000
    max_resamples: int = 1000


@dataclass(frozen=True)
class StateRecord:
    """Capacity-independent facts about one dispatched, solved state."""

    flows: np.ndarray  # per line, unconstrained DC flows
    demand: np.ndarray  # per bus, served demand entering the balance
    generation: np.ndarray  # per bus, dispatched output
    deficit: float  # MW of demand curtailed for lack of online capacity
    ego: np.ndarray  # per generator, cut-off base-dispatch output


class ScenarioBatch:
    """Distinct outage states of one scenario, stacked for vector math.

    Rows are append-only: a state keeps its row for the batch's lifetime,
    and the stacked arrays grow in place, so earlier rows are never
    copied per append.
    """

    def __init__(self, net: ActiveNetwork, n_generators: int):
        self.key_row: dict[tuple[frozenset[int], frozenset[int]], int] = {}
        self._n = 0
        n_lines, n_buses = len(net.lines), net.n_buses
        # Row storage with spare capacity; rows [0, _n) are live.
        self._flows = np.zeros((0, n_lines))
        self._demand = np.zeros((0, n_buses))
        self._gen = np.zeros((0, n_buses))
        self._deficit = np.zeros(0)
        self._ego = np.zeros((0, n_generators))
        self.a_from = np.zeros((n_lines, n_buses))
        self.a_from[np.arange(n_lines), net.from_idx] = 1.0
        self.a_to = np.zeros((n_lines, n_buses))
        self.a_to[np.arange(n_lines), net.to_idx] = 1.0

    def __len__(self) -> int:
        return self._n

    def row_for(self, key, build) -> int:
        """Row index of the state, computing its record on first sight."""
        row = self.key_row.get(key)
        if row is None:
            row = self._append(build())
            self.key_row[key] = row
        return row

    def _append(self, rec: StateRecord) -> int:
        row = self._n
        if row == len(self._deficit):
            size = max(16, 2 * row)
            self._flows, self._demand, self._gen, self._deficit, self._ego = (
                np.resize(a, (size, *a.shape[1:])) for a in
                (self._flows, self._demand, self._gen, self._deficit,
                 self._ego))
        self._flows[row] = rec.flows
        self._demand[row] = rec.demand
        self._gen[row] = rec.generation
        self._deficit[row] = rec.deficit
        self._ego[row] = rec.ego
        self._n = row + 1
        return row

    def evaluate(self, capacities: np.ndarray, start: int = 0
                 ) -> "BatchEvaluation":
        """Capacity-dependent quantities for every state from row ``start``
        on, at once.

        A one-row matrix product takes numpy's matrix-vector path, which
        rounds differently from the matrix-matrix one; evaluating at least
        two rows keeps each row's figures independent of how rows are
        split into calls.
        """
        lo = max(0, min(start, self._n - 2))
        rows = slice(lo, self._n)
        flows, demand, gen = self._flows[rows], self._demand[rows], self._gen[rows]
        abs_f = np.abs(flows)
        delivered = np.minimum(abs_f, capacities)
        pos = np.where(flows >= 0, delivered, 0.0)
        neg = np.where(flows < 0, delivered, 0.0)
        inflow = pos @ self.a_to + neg @ self.a_from
        outflow = pos @ self.a_from + neg @ self.a_to
        diff = demand - inflow + outflow - gen
        dns = np.maximum(diff, 0.0)
        gns = np.maximum(-diff, 0.0)

        # Isolation screens apply only where a bus has demand/generation;
        # transit buses may carry truncation artifacts (see is_valid_sample).
        bad_bus = np.any((demand > 0) & (dns >= demand), axis=1) | np.any(
            (gen > 0) & (gns >= gen), axis=1)
        dns_tot = dns.sum(axis=1)
        gns_tot = gns.sum(axis=1)
        d_tot = demand.sum(axis=1)
        g_tot = gen.sum(axis=1)
        bad_sys = ((dns_tot >= d_tot) & ~((d_tot == 0) & (dns_tot == 0))) | (
            (gns_tot >= g_tot) & ~((g_tot == 0) & (gns_tot == 0)))

        excess = abs_f - capacities
        congested = excess > 0
        skip = start - lo
        return BatchEvaluation(
            valid=~(bad_bus | bad_sys)[skip:],
            dns=(dns_tot + self._deficit[rows])[skip:],
            gns=gns_tot[skip:],
            wheeling=np.where(congested, excess, 0.0).sum(axis=1)[skip:],
            congested=congested[skip:],
            ego=self._ego[rows][skip:],
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
            np.concatenate([getattr(p, f) for p in parts])
            for f in ("valid", "dns", "gns", "wheeling", "congested", "ego")))


@dataclass(frozen=True)
class ScenarioResult:
    edns: float
    egns: float
    ewl: float
    ego: np.ndarray  # per generator
    congestion_probability: np.ndarray  # per line
    samples_used: int


@dataclass(frozen=True)
class CapacityEvaluation:
    """Everything one capacity assignment costs and suffers."""

    report: ExpectationReport  # 12 monthly rows
    edns_k: float  # k$
    egns_k: float
    ewl_k: float
    ec: float
    t_inv: float
    congestion_probability: np.ndarray  # per line, pooled over scenarios


class _McsScenario:
    """Lazy per-slot sampler for one scenario month."""

    def __init__(self, case, net, month, entropy, n_slots, max_resamples,
                 base_schedule):
        self.case = case
        self.net = net
        self.month = month
        self.entropy = entropy
        self.n_slots = n_slots
        self.max_resamples = max_resamples
        self.base_schedule = base_schedule
        self.batch = ScenarioBatch(net, len(case.generators))
        self.chains: list[list[int]] = [[] for _ in range(n_slots)]
        self.draws = [0] * n_slots  # element-wise draws per slot, all kinds
        self._rngs: list[np.random.Generator | None] = [None] * n_slots
        self.demand = scenario_demand(case, month)

    def _rng(self, slot: int) -> np.random.Generator:
        rng = self._rngs[slot]
        if rng is None:
            rng = substream(self.entropy, DOMAIN_MCS, self.month, slot)
            self._rngs[slot] = rng
        return rng

    def _budget_error(self, slot: int) -> ResampleBudgetError:
        return ResampleBudgetError(
            f"slot {slot} of month {self.month}: no valid sample within "
            f"{self.max_resamples} draws")

    def _extend(self, slot: int) -> int:
        """Draw the slot's next state within what is left of its budget."""
        left = SamplerConfig(max_resamples=self.max_resamples
                             - self.draws[slot])
        try:
            state = sample_state(self.case, self.net, self._rng(slot), left)
        except ResampleBudgetError as exc:
            raise self._budget_error(slot) from exc
        self.draws[slot] += state.draws
        row = self.batch.row_for(
            (state.lines_out, state.gens_out),
            lambda: build_record(self.case, self.net, self.demand, state,
                                 self.base_schedule),
        )
        self.chains[slot].append(row)
        return row

    def result(self, capacities: np.ndarray) -> ScenarioResult:
        for slot in range(self.n_slots):
            if not self.chains[slot]:
                self._extend(slot)
        parts = [self.batch.evaluate(capacities)]
        valid = parts[0].valid
        rows = np.empty(self.n_slots, dtype=np.intp)
        pending = []
        for slot, chain in enumerate(self.chains):
            for row in chain:
                if valid[row]:
                    rows[slot] = row
                    break
            else:
                pending.append(slot)

        # Slots with no valid state yet draw one more each per round, from
        # their own streams; only the rows a round adds are evaluated.
        while pending:
            start = len(self.batch)
            drawn = [self._extend(slot) for slot in pending]
            if len(self.batch) > start:
                parts.append(self.batch.evaluate(capacities, start))
                valid = np.concatenate([valid, parts[-1].valid])
            still = []
            for slot, row in zip(pending, drawn):
                if valid[row]:
                    rows[slot] = row
                elif self.draws[slot] >= self.max_resamples:
                    raise self._budget_error(slot)
                else:
                    still.append(slot)
            pending = still

        ev = BatchEvaluation.concat(parts)
        counts = np.bincount(rows, minlength=len(self.batch)).astype(float)
        w = counts / self.n_slots
        return ScenarioResult(
            edns=float(w @ ev.dns),
            egns=float(w @ ev.gns),
            ewl=float(w @ ev.wheeling),
            ego=w @ ev.ego,
            congestion_probability=w @ ev.congested,
            samples_used=self.n_slots,
        )


class _DeterministicScenario:
    """Enumerated equal-weight states for one scenario month."""

    def __init__(self, case, net, month, order, base_schedule):
        self.case = case
        self.net = net
        self.month = month
        self.demand = scenario_demand(case, month)
        self.batch = ScenarioBatch(net, len(case.generators))
        states = enumerate_deterministic(case, net, order)
        self.weights = np.array([s.weight for s in states])
        for state in states:
            self.batch.row_for(
                (state.lines_out, state.gens_out),
                lambda s=state: build_record(case, net, self.demand, s,
                                             base_schedule),
            )

    def result(self, capacities: np.ndarray) -> ScenarioResult:
        ev = self.batch.evaluate(capacities)
        w = np.where(ev.valid, self.weights, 0.0)
        total = w.sum()
        if total > 0:
            w = w / total
        return ScenarioResult(
            edns=float(w @ ev.dns),
            egns=float(w @ ev.gns),
            ewl=float(w @ ev.wheeling),
            ego=w @ ev.ego,
            congestion_probability=w @ ev.congested,
            samples_used=int(ev.valid.sum()),
        )


def build_record(
    case: NetworkCase,
    net: ActiveNetwork,
    demand: np.ndarray,
    state: OutageState,
    base_schedule: tuple[float, ...],
) -> StateRecord:
    """Dispatch and solve one outage state (capacity-independent)."""
    dispatch = merit_order_dispatch(case, demand, offline=state.gens_out)
    injections = injections_from_dispatch(case, dispatch)
    sol = solve_with_outages(net, injections, state.lines_out)
    ego = np.zeros(len(case.generators))
    for k in state.gens_out:
        ego[k] = base_schedule[k]
    return StateRecord(
        flows=sol.flows,
        demand=dispatch.served_demand,
        generation=bus_generation(case, dispatch.schedule),
        deficit=dispatch.deficit,
        ego=ego,
    )


def base_schedules(case: NetworkCase) -> list[tuple[float, ...]]:
    """Intact-fleet merit dispatch for each of the 12 months."""
    return [
        merit_order_dispatch(case, scenario_demand(case, m)).schedule
        for m in MONTHS
    ]


class PlanEvaluator:
    """Prices capacity assignments for one fixed topology.

    Evaluations are cached by capacity tuple, so the sizing loop's final
    pass and the cost rollup afterwards share work. All randomness flows
    from the entropy key, making evaluations replayable.
    """

    def __init__(
        self,
        case: NetworkCase,
        net: ActiveNetwork,
        config: EvalConfig,
        entropy,
    ):
        self.case = case
        self.net = net
        self.config = config
        self.base_schedules = base_schedules(case)
        self._cache: dict[tuple[float, ...], CapacityEvaluation] = {}

        if config.mode == MODE_MCS:
            self.months = MONTHS
            self.scenarios = [
                _McsScenario(case, net, m, entropy, config.n_mcs,
                             config.max_resamples, self.base_schedules[m - 1])
                for m in self.months
            ]
        elif config.mode in (MODE_N1, MODE_N2):
            peak = case.ldc.peak_month()
            self.months = (peak,)
            order = 1 if config.mode == MODE_N1 else 2
            self.scenarios = [
                _DeterministicScenario(case, net, peak, order,
                                       self.base_schedules[peak - 1])
            ]
        else:
            raise ValueError(f"unknown mode {config.mode!r}")

    def evaluate(self, net: ActiveNetwork) -> CapacityEvaluation:
        if net.line_ids != self.net.line_ids:
            raise ValueError("evaluator is bound to a different topology")
        key = net.capacities
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        caps = np.asarray(key, dtype=float)
        results = [sc.result(caps) for sc in self.scenarios]

        n_gen = len(self.case.generators)
        n_line = len(self.net.lines)
        if self.config.mode == MODE_MCS:
            edns = np.array([r.edns for r in results])
            egns = np.array([r.egns for r in results])
            ewl = np.array([r.ewl for r in results])
            ego = np.array([r.ego for r in results])
            con = np.array([r.congestion_probability for r in results])
            used = np.array([r.samples_used for r in results])
        else:
            # One peak-month evaluation stands in for every month.
            r = results[0]
            edns = np.full(12, r.edns)
            egns = np.full(12, r.egns)
            ewl = np.full(12, r.ewl)
            ego = np.tile(r.ego, (12, 1))
            con = np.tile(r.congestion_probability, (12, 1))
            used = np.full(12, r.samples_used)

        report = ExpectationReport(
            edns=edns, egns=egns, ewl=ewl, ego=ego,
            congestion_probability=con.reshape(12, n_line),
            samples_used=used,
        )
        ego_reshaped = ego.reshape(12, n_gen)
        edns_k = edns_cost(edns, self.case.costs)
        egns_k = egns_cost(egns, ego_reshaped, self.case.costs,
                           self.case.generators)
        ewl_k = ewl_cost(ewl, self.case.costs)
        evaluation = CapacityEvaluation(
            report=report,
            edns_k=edns_k,
            egns_k=egns_k,
            ewl_k=ewl_k,
            ec=edns_k + egns_k + ewl_k,
            t_inv=transmission_investment(net, self.case.costs),
            congestion_probability=con.mean(axis=0),
        )
        self._cache[key] = evaluation
        return evaluation

    def sizing_evaluate(self, net: ActiveNetwork) -> SizingEvaluation:
        ev = self.evaluate(net)
        return SizingEvaluation(
            expected_cost=ev.ec,
            transmission_investment=ev.t_inv,
            congestion_probability=ev.congestion_probability,
        )
