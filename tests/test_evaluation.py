"""Tests for scenario evaluation: batching, determinism."""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridtep import contingency, evaluation
from gridtep.adequacy import ExpectationReport
from gridtep.contingency import (OutageState, enumerate_deterministic,
                                 sample_state)
from gridtep.errors import (GridTepError, NetworkDisconnectedError,
                            ResampleBudgetError)
from gridtep.evaluation import (
    BatchEvaluation,
    PlanEvaluator,
    PlanSettings,
    ScenarioBatch,
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
from gridtep.rng import DOMAIN_MCS, substream, substreams

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


def month_by_month(case, net, entropy, n_mcs):
    """The reference: Monte Carlo pricing month by month. Each month has
    its own batch, slot streams and chains, and is resolved alone: its
    stored rows in one kernel call, then one redraw round after another,
    each evaluating only the rows it added. Returns a function that prices
    a rating vector into ``ExpectationReport`` fields."""
    schedules = base_schedules(case)
    months = [(month, ScenarioBatch(case, net, {month: schedules[month - 1]}),
               substreams(entropy, (DOMAIN_MCS, month), n_mcs),
               [[] for _ in range(n_mcs)]) for month in MONTHS]

    def extend(month, batch, rngs, chains, slots):
        drawn = []
        for slot in slots:
            before = chains[slot][-1][1] if chains[slot] else 0
            drawn.append((slot, sample_state(
                case, net, rngs[slot], evaluation.MAX_RESAMPLES - before),
                before))
        rows = batch.rows([(month, state.lines_out, state.gens_out)
                           for _, state, _ in drawn])
        for (slot, state, before), row in zip(drawn, rows):
            chains[slot].append((row, before + state.draws))

    def price(caps):
        results = []
        for month, batch, rngs, chains in months:
            if not chains[-1]:
                extend(month, batch, rngs, chains, range(n_mcs))
            # A month with a single distinct state went through a one-row
            # kernel call, whose matrix-vector product rounds differently;
            # the year-wide call never makes one.
            assert len(batch) > 1
            parts = [batch.evaluate(caps)]
            valid = parts[0].valid
            rows = np.empty(n_mcs, dtype=np.intp)
            drawn = 0
            pending = []
            for slot, chain in enumerate(chains):
                for row, draws in chain:
                    if valid[row]:
                        rows[slot] = row
                        drawn += draws
                        break
                else:
                    pending.append(slot)
            while pending:
                start = len(batch)
                extend(month, batch, rngs, chains, pending)
                if len(batch) > start:
                    parts.append(batch.evaluate(caps, start))
                    valid = np.concatenate([valid, parts[-1].valid])
                still = []
                for slot in pending:
                    row, draws = chains[slot][-1]
                    if valid[row]:
                        rows[slot] = row
                        drawn += draws
                    else:
                        still.append(slot)
                pending = still
            counts = np.bincount(rows, minlength=len(batch)).astype(float)
            results.append(BatchEvaluation.concat(parts).weighted(
                counts / n_mcs, n_mcs, drawn))
        return {name: np.array([r[name] for r in results])
                for name in results[0]}

    return price


@pytest.mark.parametrize("kernel_rows", [evaluation.KERNEL_ROWS, 2])
@pytest.mark.parametrize("which", ["toy", "bundled"])
def test_months_priced_together_are_the_month_by_month_figures_bit_for_bit(
        monkeypatch, which, kernel_rows):
    """Pricing the 12 months from one batch, with one kernel call for the
    stored rows and one build and one kernel call per redraw round of all
    months, first draws included, gives every report field to the bit,
    rating vector after rating vector, tight ones that force redraws
    included, however many rows each kernel pass and each build takes:
    ``KERNEL_ROWS`` bounds both, so at 2 every build is split into pairs
    of states."""
    if which == "toy":
        case = mcs_toy_case()
        net = toy_net(case)
        vectors = [[60.0] * 4, [25.0] * 4, [5.0] * 4, [60.0] * 4]
        n_mcs = 20
    else:
        case = load_case(BUNDLED)
        net = apply_plan(case, Chromosome.from_ints([1, 0] * 7))
        base = np.asarray(net.base_capacities)
        vectors = [base, 0.4 * base, np.full(len(base), 300.0),
                   np.full(len(base), 15.0), base]
        n_mcs = 15
    for entropy in ([3, 1], [11, 2]):
        evaluator = PlanEvaluator(case, net,
                                  PlanSettings(mode="mcs", n_mcs=n_mcs),
                                  entropy)
        reference = month_by_month(case, net, entropy, n_mcs)
        for caps in vectors:
            with monkeypatch.context() as patch:
                patch.setattr(evaluation, "KERNEL_ROWS", kernel_rows)
                report = evaluator.evaluate(caps).report
            want = reference(np.asarray(caps, dtype=float))
            for field in fields(ExpectationReport):
                assert np.array_equal(getattr(report, field.name),
                                      want[field.name]), field.name
        assert any(len(chain) > 1 for chains in evaluator.scenario.chains
                   for chain in chains)  # some slot was redrawn


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
    built, months = [], []  # every key built; the months of each build
    real = evaluation.build_records

    def counted(*args):  # args[2] holds the (month, lines, gens out) keys
        built.extend(args[2])
        months.append({key[0] for key in args[2]})
        return real(*args)

    monkeypatch.setattr(evaluation, "build_records", counted)
    evaluator = PlanEvaluator(case, net, PlanSettings(mode=mode, n_mcs=40),
                              [4, 1])
    vectors = [[60.0] * 4, [25.0] * 4, [5.0] * 4]
    for caps in vectors:
        evaluator.evaluate(caps)
    assert len(set(built)) == len(built)
    assert len(built) == len(evaluator.scenario.batch)
    if mode == "mcs":  # first draws are one redraw round of all months
        assert months[0] == set(MONTHS)
    before = len(built)
    evaluator.evaluate(vectors[0])
    assert len(built) == before


STRANDED = "bus with nonzero injection is disconnected from the slack bus"


def budget(slot, month):
    return (f"slot {slot} of month {month}: no valid sample within "
            f"{evaluation.MAX_RESAMPLES} draws")


# Per (month, slot), the outcome of the slot's k-th draw is the script's
# k-th character: "." a state invalid at the toy case's base ratings (the
# intact one), "s" a state that cuts bus 3 and its 60 MW of demand off the
# slack (lines 2 and 3 out), "x" an exhausted budget. Past its script, or
# without one, a slot draws a valid state (line 1 out).
@pytest.mark.parametrize("script, error, message", [
    # One month: its first draws are built in one batch.
    pytest.param({(1, 1): "s", (1, 3): "x"}, NetworkDisconnectedError,
                 STRANDED, id="1-3-NetworkDisconnectedError"),
    pytest.param({(1, 3): "s", (1, 1): "x"}, ResampleBudgetError,
                 budget(1, 1), id="3-1-ResampleBudgetError"),
    pytest.param({(1, 2): "x"}, ResampleBudgetError, budget(2, 1),
                 id="None-2-ResampleBudgetError"),
    # Month 2 fails in redraw round 1, month 1 in round 3: month 1 wins.
    pytest.param({(1, 0): "...x", (2, 1): ".x"}, ResampleBudgetError,
                 budget(0, 1), id="m1-exhausted-r3-m2-exhausted-r1"),
    pytest.param({(1, 0): "...x", (2, 1): ".s"}, ResampleBudgetError,
                 budget(0, 1), id="m1-exhausted-r3-m2-stranded-r1"),
    pytest.param({(1, 4): "..s", (2, 1): ".x"}, NetworkDisconnectedError,
                 STRANDED, id="m1-stranded-r2-m2-exhausted-r1"),
    # Month 2 fails in its first draws, month 1 in round 2.
    pytest.param({(1, 0): "..x", (2, 0): "s"}, ResampleBudgetError,
                 budget(0, 1), id="m1-exhausted-r2-m2-stranded-first"),
    # Month 1 prices; month 2 fails before month 3 would.
    pytest.param({(1, 0): "..", (2, 2): "..x", (3, 0): "x"},
                 ResampleBudgetError, budget(2, 2),
                 id="m2-exhausted-r2-m3-exhausted-first"),
    pytest.param({(2, 1): "x", (3, 0): "s"}, ResampleBudgetError,
                 budget(1, 2), id="m2-exhausted-first-m3-stranded-first"),
    pytest.param({(2, 3): "..s", (2, 4): "..x", (4, 1): "x"},
                 NetworkDisconnectedError, STRANDED,
                 id="m2-stranded-before-exhausted-r2-m4-exhausted-first"),
])
def test_mcs_batch_raises_the_error_a_slot_by_slot_build_meets(
        monkeypatch, script, error, message):
    """States are built in batches, one per redraw round of all months
    together, first draws (round 0) included. The error raised is the one a
    month-by-month, slot-by-slot build meets first: the lowest failing
    month's; within a month, a state drawn for an earlier slot that fails
    to solve beats a later slot's exhausted budget."""
    case = mcs_toy_case()
    net = toy_net(case)
    states = {".": OutageState(frozenset(), frozenset()),
              "s": OutageState(frozenset([2, 3]), frozenset()),
              "v": OutageState(frozenset([1]), frozenset())}
    evaluator = PlanEvaluator(case, net, PlanSettings(mode="mcs", n_mcs=5),
                              [4, 1])
    where = {id(rng): (month, slot)
             for month, rngs in zip(MONTHS, evaluator.scenario.rngs)
             for slot, rng in enumerate(rngs)}
    made = {}

    def draw(case, net, rng, max_draws):
        key = where[id(rng)]
        k = made[key] = made.get(key, -1) + 1
        outcome = script.get(key, "")[k:k + 1] or "v"
        if outcome == "x":
            raise ResampleBudgetError("exhausted")
        return states[outcome]

    monkeypatch.setattr(evaluation, "sample_state", draw)
    with pytest.raises(error) as info:
        evaluator.evaluate(net.base_capacities)
    assert str(info.value) == message


def count_draws(monkeypatch, stream):
    """Record the outcome of every element-wise draw's feasibility test
    made from the given RNG stream."""
    outcomes = []
    real_sample, real_feasible = evaluation.sample_state, contingency._feasible
    drawing = [None]  # the stream sample_state is drawing from

    def sample(case, net, rng, max_draws):
        drawing[0] = rng
        return real_sample(case, net, rng, max_draws)

    def counted(*args):
        feasible = real_feasible(*args)
        if drawing[0] is stream:
            outcomes.append(feasible)
        return feasible

    monkeypatch.setattr(evaluation, "sample_state", sample)
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
    # Months are priced together: count month 1's slot 0 only.
    outcomes = count_draws(monkeypatch, evaluator.scenario.rngs[0][0])
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
    needed = max(chains[0][-1][1] for chains in free.scenario.chains)
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
                          ).scenario.batch
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
