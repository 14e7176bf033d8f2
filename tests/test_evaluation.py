"""Tests for scenario evaluation: batching, determinism."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridtep import contingency, evaluation
from gridtep.contingency import (OutageState, enumerate_deterministic,
                                 sample_state)
from gridtep.errors import (GridTepError, NetworkDisconnectedError,
                            ResampleBudgetError)
from gridtep.evaluation import (
    PlanEvaluator,
    PlanSettings,
    base_schedules,
    build_record,
)
from gridtep.network import (
    MONTHS,
    Chromosome,
    apply_plan,
    load_case,
    scenario_demand,
)
from gridtep.rng import DOMAIN_MCS, substream

from _toys import adequacy_reference, build_case, gen, line, mcs_toy_case
from test_network import BUNDLED


def toy_net(case):
    return apply_plan(case, Chromosome.from_ints([]))


def test_mcs_evaluation_is_deterministic_per_entropy():
    case = mcs_toy_case()
    net = toy_net(case)
    config = PlanSettings(mode="mcs", n_mcs=200)
    caps = net.base_capacities
    a = PlanEvaluator(case, net, config, entropy=[7, 1]).evaluate(caps)
    b = PlanEvaluator(case, net, config, entropy=[7, 1]).evaluate(caps)
    np.testing.assert_array_equal(a.report.edns, b.report.edns)
    np.testing.assert_array_equal(a.report.congestion_probability,
                                  b.report.congestion_probability)
    assert a.breakdown.ec == b.breakdown.ec

    c = PlanEvaluator(case, net, config, entropy=[8, 1]).evaluate(caps)
    assert not np.array_equal(a.report.edns, c.report.edns)


@pytest.mark.parametrize("ratings", [[], [50.0], [50.0] * 3, [50.0] * 5,
                                     [[50.0] * 4]])
def test_evaluator_rejects_a_rating_vector_of_the_wrong_shape(ratings):
    """One rating per line, or ValueError: a single rating must not
    broadcast over every line."""
    case = mcs_toy_case()
    net = toy_net(case)
    evaluator = PlanEvaluator(case, net, PlanSettings(mode="n1"),
                              entropy=[1, 1])
    with pytest.raises(ValueError, match="one per line"):
        evaluator.evaluate(ratings)
    evaluator.evaluate([50.0] * 4)


@pytest.mark.parametrize("field, value", [
    ("mode", "n3"),
    ("policy", "all"),
    ("n_mcs", 0),
    ("n_mcs", 10.0),
    ("n_mcs", True),
    ("delta_f", 0.0),
    ("delta_f", float("inf")),
    ("delta_f", float("nan")),
    ("congestion_threshold", -0.1),
    ("congestion_threshold", float("nan")),
])
def test_plan_settings_reject_out_of_range_values(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        PlanSettings(**{field: value})


def test_deterministic_mode_matches_manual_state_weighting():
    """The n1 evaluator must agree with a by-hand pass over the same
    states: equal weights, drop states invalid at the given ratings,
    renormalize, average."""
    case = mcs_toy_case()
    net = toy_net(case)
    evaluator = PlanEvaluator(case, net, PlanSettings(mode="n1"),
                              entropy=[1, 1])
    caps = np.asarray(net.base_capacities)
    result = evaluator.evaluate(caps)

    peak = case.ldc.peak_month()
    demand = scenario_demand(case, peak)
    schedule = base_schedules(case)[peak - 1]
    kept_dns = []
    for state in enumerate_deterministic(case, net, 1):
        rec = build_record(case, net, demand, state, schedule)
        ref = adequacy_reference(net, rec.flows, rec.demand, rec.generation,
                                 caps)
        if ref.valid:
            kept_dns.append(ref.total_dns + rec.deficit)
    expected_edns = float(np.mean(kept_dns))

    np.testing.assert_allclose(result.report.edns, expected_edns)
    assert result.report.samples_used[0] == len(kept_dns)
    np.testing.assert_array_equal(result.report.samples_drawn,
                                  len(enumerate_deterministic(case, net, 1)))


def test_deterministic_mode_raises_when_no_state_passes_the_screen():
    """At 1 MW on every line each of the toy case's N-1 states fails the
    validity screen; the capacity vector cannot be priced, which the
    planner records as an infeasible plan, not as EC = 0. At 5 MW one
    state passes and carries all the weight."""
    case = mcs_toy_case()
    net = toy_net(case)
    evaluator = PlanEvaluator(case, net, PlanSettings(mode="n1"), [1, 1])
    with pytest.raises(GridTepError, match="mode n1, month 1"):
        evaluator.evaluate([1.0] * 4)
    priced = evaluator.evaluate([5.0] * 4)
    assert priced.report.edns[0] == 90.0
    assert priced.report.samples_used[0] == 1


def test_deterministic_mode_replicates_peak_month():
    case = mcs_toy_case()
    net = toy_net(case)
    result = PlanEvaluator(case, net, PlanSettings(mode="n2"), entropy=[1, 1]
                           ).evaluate(net.base_capacities)
    assert np.ptp(result.report.edns) == 0.0
    assert np.ptp(result.report.ewl) == 0.0


def test_generous_ratings_remove_all_shortfalls():
    case = mcs_toy_case()
    net = toy_net(case)
    evaluator = PlanEvaluator(case, net, PlanSettings(mode="n1"),
                              entropy=[1, 1])
    result = evaluator.evaluate([1e9] * len(net.lines))
    # Line outages redistribute flow but nothing is truncated, so the only
    # remaining shortfalls come from generator-outage deficits.
    assert np.all(result.report.ewl == 0.0)
    assert np.all(result.report.congestion_probability == 0.0)

    gens_only = [
        s for s in enumerate_deterministic(case, net, 1) if s.gens_out
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
    n_states = len(list(enumerate_deterministic(case, net, 1)))
    expected = sum(deficits) / n_states
    np.testing.assert_allclose(result.report.edns[0], expected)


def first_valid_reference(case, net, entropy, n_mcs, caps):
    """Monthly (EDNS, EGNS, EWL) the slow way: replay each (month, slot)
    substream through sample_state and average the first state of each
    slot that is valid at ``caps``. Also returns each month's element-wise
    draws up to and including those states."""
    schedules = base_schedules(case)
    records = {}
    out = []
    drawn = np.zeros(12, dtype=int)
    for month in MONTHS:
        demand = scenario_demand(case, month)
        totals = np.zeros(3)
        for slot in range(n_mcs):
            rng = substream(entropy, DOMAIN_MCS, month, slot)
            while True:
                state = sample_state(case, net, rng)
                drawn[month - 1] += state.draws
                key = (month, state.lines_out, state.gens_out)
                if key not in records:
                    records[key] = build_record(case, net, demand, state,
                                                schedules[month - 1])
                rec = records[key]
                ref = adequacy_reference(net, rec.flows, rec.demand,
                                         rec.generation, caps)
                if ref.valid:
                    break
            totals += (ref.total_dns + rec.deficit, ref.total_gns,
                       ref.wheeling)
        out.append(totals / n_mcs)
    return np.array(out), drawn


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
    of its own substream that is valid at the current ratings, and the
    draws reported are those up to that state."""
    case = mcs_toy_case()
    net = toy_net(case)
    n_mcs = 8
    entropy = [seed, 1]
    config = PlanSettings(mode="mcs", n_mcs=n_mcs)
    order = data.draw(st.permutations(range(len(vectors))))
    for sequence in (range(len(vectors)), order):
        evaluator = PlanEvaluator(case, net, config, entropy)
        for k in sequence:
            caps = np.array(vectors[k])
            report = evaluator.evaluate(caps).report
            got = np.column_stack([report.edns, report.egns, report.ewl])
            want, drawn = first_valid_reference(case, net, entropy, n_mcs,
                                                caps)
            # atol only absorbs float noise on near-zero EGNS.
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-9)
            np.testing.assert_array_equal(report.samples_drawn, drawn)


def test_samples_drawn_counts_redraws_up_to_each_accepted_state():
    """At 5 MW the validity screen rejects most states; each month reports
    the draws its slots made up to their accepted states, not n_mcs."""
    case = mcs_toy_case()
    net = toy_net(case)
    caps = np.full(4, 5.0)
    n_mcs, entropy = 20, [4, 1]
    report = PlanEvaluator(case, net, PlanSettings(mode="mcs", n_mcs=n_mcs),
                           entropy).evaluate(caps).report
    _, drawn = first_valid_reference(case, net, entropy, n_mcs, caps)
    np.testing.assert_array_equal(report.samples_drawn, drawn)
    np.testing.assert_array_equal(report.samples_used, n_mcs)
    assert np.all(report.samples_drawn > 2 * n_mcs)


def test_sizing_sees_the_mean_of_the_monthly_congestion_rows():
    case = mcs_toy_case()
    net = toy_net(case)
    evaluator = PlanEvaluator(case, net, PlanSettings(mode="mcs", n_mcs=40),
                              [6, 1])
    ev = evaluator.evaluate([30.0] * 4)
    monthly = ev.report.congestion_probability
    assert not np.array_equal(monthly.max(axis=0), monthly.mean(axis=0))
    np.testing.assert_array_equal(ev.congestion_probability,
                                  monthly.mean(axis=0))


@pytest.mark.parametrize("mode", ["mcs", "n1"])
def test_each_distinct_state_is_built_once_per_evaluator(monkeypatch, mode):
    """Merit dispatch and the DC solve run once per distinct outage state
    of a scenario, whatever rating vectors are priced: re-pricing builds
    nothing. Under MCS each tighter vector draws new states."""
    case = mcs_toy_case()
    net = toy_net(case)
    built = []
    real = evaluation.build_records

    def counted(*args):  # args[2] is the month's demand, args[3] the states
        built.extend((id(args[2]), state.lines_out, state.gens_out)
                     for state in args[3])
        return real(*args)

    monkeypatch.setattr(evaluation, "build_records", counted)
    evaluator = PlanEvaluator(case, net, PlanSettings(mode=mode, n_mcs=40),
                              [4, 1])
    vectors = [[60.0] * 4, [25.0] * 4, [5.0] * 4]
    for caps in vectors:
        evaluator.evaluate(caps)
    assert len(set(built)) == len(built)
    assert len(built) == sum(len(sc.batch) for sc in evaluator.scenarios)
    before = len(built)
    evaluator.evaluate(vectors[0])
    assert len(built) == before


@pytest.mark.parametrize("stranded_slot, exhausted_slot, error", [
    (1, 3, NetworkDisconnectedError),
    (3, 1, ResampleBudgetError),
    (None, 2, ResampleBudgetError),
])
def test_mcs_batch_raises_the_error_a_slot_by_slot_build_meets(
        monkeypatch, stranded_slot, exhausted_slot, error):
    """A month's first draws are built in one batch. When a slot's draw
    exhausts its budget, a state drawn for an earlier slot that fails to
    solve still raises first, as it would have been built first;
    otherwise the budget error names the exhausted slot."""
    case = mcs_toy_case()
    net = toy_net(case)
    intact = OutageState(frozenset(), frozenset())
    # Lines 2 and 3 out cut bus 3, and its 60 MW of demand, off the slack.
    stranding = OutageState(frozenset([2, 3]), frozenset())
    slots = iter(range(5))

    def draw(case, net, rng, max_draws):
        slot = next(slots)
        if slot == exhausted_slot:
            raise ResampleBudgetError("exhausted")
        return stranding if slot == stranded_slot else intact

    monkeypatch.setattr(evaluation, "sample_state", draw)
    evaluator = PlanEvaluator(case, net, PlanSettings(mode="mcs", n_mcs=5),
                              [4, 1])
    with pytest.raises(error) as info:
        evaluator.evaluate(net.base_capacities)
    if error is ResampleBudgetError:
        assert str(info.value) == (
            f"slot {exhausted_slot} of month 1: no valid sample within "
            f"{evaluation.MAX_RESAMPLES} draws")
    else:
        assert str(info.value) == (
            "bus with nonzero injection is disconnected from the slack bus")


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
    exactly MAX_RESAMPLES element-wise draws, island rejections counted."""
    lines = [line(1, 1, 2, for_=0.4), line(2, 2, 3, for_=0.4),
             line(3, 3, 4, for_=0.4), line(4, 4, 1, for_=0.4)]
    case = build_case([0, 0, 60, 40], lines,
                      [gen(1, 80.0), gen(2, 60.0)], min_online=1)
    net = toy_net(case)
    monkeypatch.setattr(evaluation, "MAX_RESAMPLES", 30)
    evaluator = PlanEvaluator(
        case, net, PlanSettings(mode="mcs", n_mcs=1), [5, 1])
    outcomes = count_draws(monkeypatch)
    with pytest.raises(ResampleBudgetError, match="slot 0 of month 1"):
        evaluator.evaluate([0.0] * 4)
    assert len(outcomes) == 30
    assert True in outcomes and False in outcomes  # both screens rejected


def test_slot_budget_checks_its_last_draw(monkeypatch):
    """A slot whose first valid state is the last draw its budget allows
    is priced; one draw less raises."""
    case = mcs_toy_case()
    net = toy_net(case)
    tight = [5.0] * 4

    def evaluator():
        return PlanEvaluator(case, net, PlanSettings(mode="mcs", n_mcs=1),
                             [3, 1])

    free = evaluator()
    expected = free.evaluate(tight)
    needed = max(sc.chains[0][-1][1] for sc in free.scenarios)
    assert needed > 1
    monkeypatch.setattr(evaluation, "MAX_RESAMPLES", needed)
    got = evaluator().evaluate(tight)
    np.testing.assert_array_equal(got.report.edns, expected.report.edns)
    monkeypatch.setattr(evaluation, "MAX_RESAMPLES", needed - 1)
    with pytest.raises(ResampleBudgetError):
        evaluator().evaluate(tight)


def test_batch_rows_do_not_depend_on_how_they_are_split():
    """Evaluating rows from any start gives bit-for-bit the figures the
    whole batch gives for them, the single last row included."""
    case = load_case(BUNDLED)
    net = apply_plan(case, Chromosome.from_ints([1] * 14))
    batch = PlanEvaluator(case, net, PlanSettings(mode="n1"), [1, 1]
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
