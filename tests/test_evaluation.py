"""Tests for scenario evaluation: batching, caching, determinism."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridtep import contingency
from gridtep.adequacy import is_valid_sample, nodal_balance, wheeling_loss
from gridtep.contingency import enumerate_deterministic, sample_state
from gridtep.errors import ResampleBudgetError
from gridtep.evaluation import (
    EvalConfig,
    PlanEvaluator,
    base_schedules,
    build_record,
)
from gridtep.network import (
    MONTHS,
    ActiveNetwork,
    Chromosome,
    apply_plan,
    load_case,
    scenario_demand,
)
from gridtep.rng import DOMAIN_MCS, substream

from _toys import build_case, gen, line, mcs_toy_case
from test_network import BUNDLED


def toy_net(case):
    return apply_plan(case, Chromosome.from_ints([]))


def test_mcs_evaluation_is_deterministic_per_entropy():
    case = mcs_toy_case()
    net = toy_net(case)
    config = EvalConfig(mode="mcs", n_mcs=200)
    a = PlanEvaluator(case, net, config, entropy=[7, 1]).evaluate(net)
    b = PlanEvaluator(case, net, config, entropy=[7, 1]).evaluate(net)
    np.testing.assert_array_equal(a.report.edns, b.report.edns)
    np.testing.assert_array_equal(a.report.congestion_probability,
                                  b.report.congestion_probability)
    assert a.ec == b.ec

    c = PlanEvaluator(case, net, config, entropy=[8, 1]).evaluate(net)
    assert not np.array_equal(a.report.edns, c.report.edns)


def test_capacity_cache_returns_same_object():
    case = mcs_toy_case()
    net = toy_net(case)
    evaluator = PlanEvaluator(case, net, EvalConfig(mode="mcs", n_mcs=100),
                              entropy=[1, 1])
    assert evaluator.evaluate(net) is evaluator.evaluate(net)
    grown = net.with_capacities([c + 5 for c in net.capacities])
    assert evaluator.evaluate(grown) is not evaluator.evaluate(net)


def test_evaluator_rejects_foreign_topology():
    case = mcs_toy_case()
    net = toy_net(case)
    other = apply_plan(case, Chromosome.from_ints([]))
    trimmed = ActiveNetwork(buses=other.buses, lines=other.lines[:3],
                            capacities=other.capacities[:3],
                            slack_bus=other.slack_bus)
    evaluator = PlanEvaluator(case, net, EvalConfig(mode="n1"), entropy=[1, 1])
    with pytest.raises(ValueError):
        evaluator.evaluate(trimmed)


def test_deterministic_mode_matches_manual_state_weighting():
    """The n1 evaluator must agree with a by-hand pass over the same
    states: equal weights, drop states invalid at the given ratings,
    renormalize, average."""
    case = mcs_toy_case()
    net = toy_net(case)
    evaluator = PlanEvaluator(case, net, EvalConfig(mode="n1"), entropy=[1, 1])
    result = evaluator.evaluate(net)

    peak = case.ldc.peak_month()
    demand = scenario_demand(case, peak)
    schedule = base_schedules(case)[peak - 1]
    caps = np.asarray(net.capacities)
    kept_dns = []
    for state in enumerate_deterministic(case, net, 1):
        rec = build_record(case, net, demand, state, schedule)
        balance = nodal_balance(net, rec.flows, rec.demand, rec.generation,
                                capacities=caps)
        if is_valid_sample(balance, rec.demand, rec.generation):
            kept_dns.append(balance.total_dns + rec.deficit)
    expected_edns = float(np.mean(kept_dns))

    np.testing.assert_allclose(result.report.edns, expected_edns)
    assert result.report.samples_used[0] == len(kept_dns)


def test_deterministic_mode_replicates_peak_month():
    case = mcs_toy_case()
    net = toy_net(case)
    result = PlanEvaluator(case, net, EvalConfig(mode="n2"), entropy=[1, 1]
                           ).evaluate(net)
    assert np.ptp(result.report.edns) == 0.0
    assert np.ptp(result.report.ewl) == 0.0


def test_generous_ratings_remove_all_shortfalls():
    case = mcs_toy_case()
    net = toy_net(case)
    big = net.with_capacities([1e9] * len(net.lines))
    evaluator = PlanEvaluator(case, big, EvalConfig(mode="n1"), entropy=[1, 1])
    result = evaluator.evaluate(big)
    # Line outages redistribute flow but nothing is truncated, so the only
    # remaining shortfalls come from generator-outage deficits.
    assert np.all(result.report.ewl == 0.0)
    assert np.all(result.report.congestion_probability == 0.0)

    gens_only = [
        s for s in enumerate_deterministic(case, big, 1) if s.gens_out
    ]
    peak = case.ldc.peak_month()
    demand_total = scenario_demand(case, peak).sum()
    deficits = []
    for state in gens_only:
        online = sum(
            g.capacity_mw
            for k, g in enumerate(case.generators)
            if k not in state.gens_out
        )
        deficits.append(max(0.0, demand_total - online))
    n_states = len(list(enumerate_deterministic(case, big, 1)))
    expected = sum(deficits) / n_states
    np.testing.assert_allclose(result.report.edns[0], expected)


def first_valid_reference(case, net, entropy, n_mcs, caps):
    """Monthly (EDNS, EGNS, EWL) the slow way: replay each (month, slot)
    substream through sample_state and average the first state of each
    slot that is valid at ``caps``."""
    schedules = base_schedules(case)
    records = {}
    out = []
    for month in MONTHS:
        demand = scenario_demand(case, month)
        totals = np.zeros(3)
        for slot in range(n_mcs):
            rng = substream(entropy, DOMAIN_MCS, month, slot)
            while True:
                state = sample_state(case, net, rng)
                key = (month, state.lines_out, state.gens_out)
                if key not in records:
                    records[key] = build_record(case, net, demand, state,
                                                schedules[month - 1])
                rec = records[key]
                balance = nodal_balance(net, rec.flows, rec.demand,
                                        rec.generation, capacities=caps)
                if is_valid_sample(balance, rec.demand, rec.generation):
                    break
            totals += (balance.total_dns + rec.deficit, balance.total_gns,
                       wheeling_loss(rec.flows, caps))
        out.append(totals / n_mcs)
    return np.array(out)


# At 5 MW on every line the validity screen rejects about 93 % of the toy
# case's states; ratings up to 60 MW range up to accepting all of them.
RATINGS = st.lists(st.floats(min_value=5.0, max_value=60.0),
                   min_size=4, max_size=4)


@settings(max_examples=12, deadline=None)
@given(vectors=st.lists(RATINGS, min_size=1, max_size=3, unique_by=tuple),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_mcs_chain_takes_first_valid_state_of_each_slot_stream(vectors, seed,
                                                               data):
    """Common random numbers: whatever capacity vectors an evaluator saw
    before, and in whatever order, each slot's sample is the first state
    of its own substream that is valid at the current ratings."""
    case = mcs_toy_case()
    net = toy_net(case)
    n_mcs = 8
    entropy = [seed, 1]
    config = EvalConfig(mode="mcs", n_mcs=n_mcs)
    order = data.draw(st.permutations(range(len(vectors))))
    for sequence in (range(len(vectors)), order):
        evaluator = PlanEvaluator(case, net, config, entropy)
        for k in sequence:
            caps = np.array(vectors[k])
            report = evaluator.evaluate(net.with_capacities(caps)).report
            got = np.column_stack([report.edns, report.egns, report.ewl])
            want = first_valid_reference(case, net, entropy, n_mcs, caps)
            # atol only absorbs float noise on near-zero EGNS.
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-9)


def count_draws(monkeypatch):
    """Record the outcome of every element-wise draw's feasibility test."""
    outcomes = []
    real = contingency._feasible

    def counted(*args):
        outcomes.append(real(*args))
        return outcomes[-1]

    monkeypatch.setattr(contingency, "_feasible", counted)
    return outcomes


def test_slot_budget_bounds_every_draw_including_island_rejections(
        monkeypatch):
    """With every state invalid at zero ratings, one slot stops after
    exactly max_resamples element-wise draws, island rejections counted."""
    lines = [line(1, 1, 2, for_=0.4), line(2, 2, 3, for_=0.4),
             line(3, 3, 4, for_=0.4), line(4, 4, 1, for_=0.4)]
    case = build_case([0, 0, 60, 40], lines,
                      [gen(1, 80.0), gen(2, 60.0)], min_online=1)
    net = toy_net(case)
    evaluator = PlanEvaluator(
        case, net, EvalConfig(mode="mcs", n_mcs=1, max_resamples=30), [5, 1])
    outcomes = count_draws(monkeypatch)
    with pytest.raises(ResampleBudgetError, match="slot 0 of month 1"):
        evaluator.evaluate(net.with_capacities([0.0] * 4))
    assert len(outcomes) == 30
    assert True in outcomes and False in outcomes  # both screens rejected


def test_slot_budget_checks_its_last_draw():
    """A slot whose first valid state is the last draw its budget allows
    is priced; one draw less raises."""
    case = mcs_toy_case()
    net = toy_net(case)
    tight = net.with_capacities([5.0] * 4)

    def evaluator(budget):
        return PlanEvaluator(case, net, EvalConfig(
            mode="mcs", n_mcs=1, max_resamples=budget), [3, 1])

    free = evaluator(1000)
    expected = free.evaluate(tight)
    needed = max(sc.draws[0] for sc in free.scenarios)
    assert needed > 1
    got = evaluator(needed).evaluate(tight)
    np.testing.assert_array_equal(got.report.edns, expected.report.edns)
    with pytest.raises(ResampleBudgetError):
        evaluator(needed - 1).evaluate(tight)


def test_batch_rows_do_not_depend_on_how_they_are_split():
    """Evaluating rows from any start gives bit-for-bit the figures the
    whole batch gives for them, the single last row included."""
    case = load_case(BUNDLED)
    net = apply_plan(case, Chromosome.from_ints([1] * 14))
    batch = PlanEvaluator(case, net, EvalConfig(mode="n1"), [1, 1]
                          ).scenarios[0].batch
    rng = np.random.default_rng(0)
    for _ in range(3):
        caps = rng.uniform(1.0, 300.0, len(net.lines))
        whole = batch.evaluate(caps)
        for start in range(len(batch)):
            part = batch.evaluate(caps, start)
            for field in ("valid", "dns", "gns", "wheeling", "congested",
                          "ego"):
                np.testing.assert_array_equal(getattr(part, field),
                                              getattr(whole, field)[start:])
