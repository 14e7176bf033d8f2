"""Tests for scenario evaluation: batching, determinism."""

from __future__ import annotations

import itertools
import math
import re
import tracemalloc
from dataclasses import fields
from itertools import compress

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridtep import contingency, dcflow, evaluation, network
from gridtep.adequacy import ExpectationReport
from gridtep.contingency import OutageState, enumerate_deterministic
from gridtep.errors import (GridTepError, NetworkDisconnectedError,
                            ResampleBudgetError)
from gridtep.evaluation import (
    BatchEvaluation,
    PlanEvaluator,
    PlanSettings,
    RunContext,
    ScenarioBatch,
    build_record,
    expectations,
)
from gridtep.network import (
    MONTHS,
    Chromosome,
    apply_plan,
    load_case,
    scenario_demand,
)
from gridtep.rng import DOMAIN_MCS, substream

from _toys import (adequacy_reference, build_case, gen, line, mcs_toy_case,
                   per_draw_reference)
from test_network import BUNDLED


def toy_net(case):
    return apply_plan(case, Chromosome.from_ints([]))


def test_mcs_evaluation_is_deterministic_per_entropy():
    case = mcs_toy_case()
    net = toy_net(case)
    config = PlanSettings(mode="mcs", n_mcs=200)
    caps = net.base_capacities
    a = PlanEvaluator(RunContext(case), net, config,
                      entropy=[7, 1]).evaluate(caps)
    b = PlanEvaluator(RunContext(case), net, config,
                      entropy=[7, 1]).evaluate(caps)
    np.testing.assert_array_equal(a.report.edns, b.report.edns)
    np.testing.assert_array_equal(a.report.congestion_probability,
                                  b.report.congestion_probability)
    assert a.breakdown.ec == b.breakdown.ec

    c = PlanEvaluator(RunContext(case), net, config,
                      entropy=[8, 1]).evaluate(caps)
    assert not np.array_equal(a.report.edns, c.report.edns)


@pytest.mark.parametrize("ratings", [[], [50.0], [50.0] * 3, [50.0] * 5,
                                     [[50.0] * 4]])
def test_evaluator_rejects_a_rating_vector_of_the_wrong_shape(ratings):
    """One rating per line, or ValueError: a single rating must not
    broadcast over every line."""
    case = mcs_toy_case()
    net = toy_net(case)
    evaluator = PlanEvaluator(RunContext(case), net, PlanSettings(mode="n1"),
                              entropy=[1, 1])
    with pytest.raises(ValueError, match="one per line"):
        evaluator.evaluate(ratings)
    evaluator.evaluate([50.0] * 4)


@pytest.mark.parametrize("mode", ["mcs", "n1"])
@pytest.mark.parametrize("rating", [math.nan, math.inf, -1.0])
def test_evaluator_rejects_unusable_ratings_before_any_draw(mode, rating):
    """A NaN, infinite or negative rating is a ValueError naming the line,
    raised before Monte Carlo draws a state: NaN would price to J = NaN,
    inf to J = inf, and a negative rating would spend every slot's
    budget."""
    case = mcs_toy_case()
    net = toy_net(case)
    evaluator = PlanEvaluator(RunContext(case), net,
                              PlanSettings(mode=mode, n_mcs=5),
                              entropy=[1, 1])
    with pytest.raises(ValueError) as info:
        evaluator.evaluate([50.0, 40.0, rating, 0.0])
    assert str(info.value) == (
        f"ratings must be finite and >= 0 MW, got {rating!r} for line 3")
    if mode == "mcs":
        assert len(evaluator.scenario.batch) == 0


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
    evaluator = PlanEvaluator(RunContext(case), net, PlanSettings(mode="n1"),
                              entropy=[1, 1])
    caps = np.asarray(net.base_capacities)
    result = evaluator.evaluate(caps)

    peak = case.ldc.peak_month()
    context = RunContext(case)
    kept_dns = []
    for state in enumerate_deterministic(case, net, 1):
        rec = build_record(context, net, peak, state)
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
    evaluator = PlanEvaluator(RunContext(case), net, PlanSettings(mode="n1"),
                              [1, 1])
    with pytest.raises(GridTepError, match="mode n1, month 1"):
        evaluator.evaluate([1.0] * 4)
    priced = evaluator.evaluate([5.0] * 4)
    assert priced.report.edns[0] == 90.0
    assert priced.report.samples_used[0] == 1


def test_deterministic_mode_replicates_peak_month():
    case = mcs_toy_case()
    net = toy_net(case)
    result = PlanEvaluator(RunContext(case), net, PlanSettings(mode="n2"),
                           entropy=[1, 1]).evaluate(net.base_capacities)
    assert np.ptp(result.report.edns) == 0.0
    assert np.ptp(result.report.ewl) == 0.0


def test_generous_ratings_remove_all_shortfalls():
    case = mcs_toy_case()
    net = toy_net(case)
    evaluator = PlanEvaluator(RunContext(case), net, PlanSettings(mode="n1"),
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
    substream through the per-draw sampling loop and average the first
    state of each slot that is valid at ``caps``. Also returns each
    month's element-wise draws up to and including those states."""
    context = RunContext(case)
    records = {}
    out = []
    drawn = np.zeros(12, dtype=int)
    for month in MONTHS:
        totals = np.zeros(3)
        for slot in range(n_mcs):
            rng = substream(entropy, DOMAIN_MCS, month, slot)
            while True:
                (state,), (draws,), _, _ = per_draw_reference(
                    case, net, [rng], [evaluation.MAX_RESAMPLES])
                drawn[month - 1] += draws
                key = (month, *state)
                if key not in records:
                    records[key] = build_record(context, net, month,
                                                OutageState(*state))
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


@pytest.mark.numpy_floor
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
        evaluator = PlanEvaluator(RunContext(case), net, config, entropy)
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
    each evaluating only the rows it added. Each distinct state of a month
    takes one row of its batch, found again by key. Returns a function
    that prices a rating vector into ``ExpectationReport`` fields."""
    context = RunContext(case)
    key_row = {}  # (month, lines out, gens out) -> row of the month's batch
    months = [(month, ScenarioBatch(context, net),
               [substream(entropy, DOMAIN_MCS, month, slot)
                for slot in range(n_mcs)],
               [[] for _ in range(n_mcs)]) for month in MONTHS]

    def extend(month, batch, rngs, chains, slots):
        before = [chains[slot][-1][1] if chains[slot] else 0
                  for slot in slots]
        states, draws, exhausted, _ = per_draw_reference(
            case, net, [rngs[slot] for slot in slots],
            [evaluation.MAX_RESAMPLES - b for b in before])
        assert exhausted is None
        keys = [(month, *state) for state in states]
        new = [key for key in dict.fromkeys(keys) if key not in key_row]
        start = batch.add(np.full(len(new), month), contingency._encode(
            case, net, [key[1:] for key in new]))
        key_row.update(zip(new, range(start, start + len(new))))
        for slot, key, b, d in zip(slots, keys, before, draws):
            chains[slot].append((key_row[key], b + d))

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
            results.append(expectations(
                counts / n_mcs, BatchEvaluation.concat(parts), batch.ego,
                (0, len(batch)), [n_mcs], [drawn]))
        return {f.name: np.concatenate([getattr(r, f.name) for r in results])
                for f in fields(ExpectationReport)}

    return price


@pytest.mark.numpy_floor
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
        evaluator = PlanEvaluator(RunContext(case), net,
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
        scenario = evaluator.scenario
        stream = scenario.states[:scenario.n_states, 0]
        assert (np.bincount(stream) > 1).any()  # some slot was redrawn


@pytest.mark.numpy_floor
def test_samples_drawn_counts_redraws_up_to_each_accepted_state():
    """At 5 MW the validity screen rejects most states; each month reports
    the draws its slots made up to their accepted states, not n_mcs."""
    case = mcs_toy_case()
    net = toy_net(case)
    caps = np.full(4, 5.0)
    n_mcs, entropy = 20, [4, 1]
    report = PlanEvaluator(RunContext(case), net,
                           PlanSettings(mode="mcs", n_mcs=n_mcs),
                           entropy).evaluate(caps).report
    _, drawn = first_valid_reference(case, net, entropy, n_mcs, caps)
    np.testing.assert_array_equal(report.samples_drawn, drawn)
    np.testing.assert_array_equal(report.samples_used, n_mcs)
    assert np.all(report.samples_drawn > 2 * n_mcs)


def test_sizing_sees_the_mean_of_the_monthly_congestion_rows():
    case = mcs_toy_case()
    net = toy_net(case)
    evaluator = PlanEvaluator(RunContext(case), net,
                              PlanSettings(mode="mcs", n_mcs=40), [6, 1])
    ev = evaluator.evaluate([30.0] * 4)
    monthly = ev.report.congestion_probability
    assert not np.array_equal(monthly.max(axis=0), monthly.mean(axis=0))
    np.testing.assert_array_equal(ev.congestion_probability,
                                  monthly.mean(axis=0))


@pytest.mark.parametrize("mode", ["mcs", "n1"])
def test_each_distinct_state_is_built_once_per_evaluator(monkeypatch, mode):
    """Merit dispatch and the DC solve run once per distinct outage state
    of a scenario, whatever rating vectors are priced: re-pricing builds
    nothing. Under MCS each tighter vector draws new states, and some
    states drawn ahead under one vector are first used under a later one,
    whose rounds find them built."""
    case = mcs_toy_case()
    net = toy_net(case)
    built, months = [], []  # every state built; the months of each build
    real = evaluation.build_records

    def counted(*args):  # args[2] and [3]: each state's month and outages
        built.extend(zip(args[2].tolist(), map(bytes, args[3])))
        months.append(set(args[2].tolist()))
        return real(*args)

    monkeypatch.setattr(evaluation, "build_records", counted)
    evaluator = PlanEvaluator(RunContext(case), net,
                              PlanSettings(mode=mode, n_mcs=40), [4, 1])
    scenario = evaluator.scenario
    vectors = [[60.0] * 4, [25.0] * 4, [5.0] * 4]
    sizes, used = [0], [set()]  # batch rows, and rows used, after each
    for caps in vectors:
        evaluator.evaluate(caps)
        sizes.append(len(scenario.batch))
        if mode == "mcs":
            used.append(set(scenario.states[:scenario.n_states, 1].tolist()))
    assert len(set(built)) == len(built)
    assert len(built) == len(scenario.batch)
    if mode == "mcs":  # first draws are one redraw round of all months
        assert months[0] == set(MONTHS)
        # Rows each later vector first uses that an earlier one built:
        # drawn ahead there, found through row_of here (3 at 25 MW, 6 at
        # 5 MW).
        late = [used[w] - used[w - 1] - set(range(sizes[w - 1], sizes[w]))
                for w in range(2, len(used))]
        assert all(late), late
    before = len(built)
    evaluator.evaluate(vectors[0])
    assert len(built) == before


@pytest.mark.numpy_floor
@pytest.mark.parametrize("entropy", [[4, 1], [9, 2], [13, 3]])
def test_long_redraw_chains_take_logarithmically_many_builds(monkeypatch,
                                                             entropy):
    """At 5 MW the validity screen rejects about 93 % of the toy case's
    states, so slots redraw dozens of times in a row. A call whose
    longest chain uses N states, one per one-state round, makes at most
    ceil(log2(N + 1)) + 1 builds."""
    case = mcs_toy_case()
    net = toy_net(case)
    builds = []
    real = evaluation.build_records

    def counted(*args):
        builds.append(len(args[2]))
        return real(*args)

    monkeypatch.setattr(evaluation, "build_records", counted)
    evaluator = PlanEvaluator(RunContext(case), net,
                              PlanSettings(mode="mcs", n_mcs=20), entropy)
    scenario = evaluator.scenario
    used = np.zeros(len(scenario.draws), dtype=int)
    longest = []
    for caps in ([60.0] * 4, [5.0] * 4, [25.0] * 4, [4.0] * 4):
        builds.clear()
        evaluator.evaluate(caps)
        now = np.bincount(scenario.states[:scenario.n_states, 0],
                          minlength=len(used))
        n = int((now - used).max())
        used = now
        assert len(builds) <= math.ceil(math.log2(n + 1)) + 1, (n, builds)
        longest.append(n)
    assert max(longest) >= 20, longest


@pytest.mark.numpy_floor
def test_a_redraw_round_draws_at_most_round_rows_states(monkeypatch):
    """At zero ratings no state is valid, so every slot redraws until its
    budget runs out. Each round draws at most ``ROUND_ROWS`` states, or
    one per pending slot when more are pending, and its sampling pass
    allocates a few hundred kB where doubling every round's draws up to
    the budget allocates about 13 MB. The budget error is the one of a
    state per round."""
    case = mcs_toy_case()
    net = toy_net(case)

    def run():
        evaluator = PlanEvaluator(RunContext(case), net,
                                  PlanSettings(mode="mcs", n_mcs=20), [4, 1])
        sampler = evaluator.scenario.sampler
        real = sampler.draw
        rounds = []

        def draw(index, budgets, ahead=1):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = real(index, budgets, ahead)
            rounds.append((len(index), ahead,
                           tracemalloc.get_traced_memory()[1] - before))
            return out

        monkeypatch.setattr(sampler, "draw", draw)
        with pytest.raises(ResampleBudgetError) as info:
            evaluator.evaluate([0.0] * len(net.lines))
        return str(info.value), rounds

    tracemalloc.start()
    try:
        message, rounds = run()
    finally:
        tracemalloc.stop()
    assert max(ahead for _, ahead, _ in rounds) > 1
    for streams, ahead, _ in rounds:
        assert streams * ahead <= max(streams, evaluation.ROUND_ROWS)
    assert max(peak for _, _, peak in rounds) < 2e6
    monkeypatch.setattr(evaluation, "ROUND_ROWS", 1)  # a state per round
    assert run()[0] == message


def test_only_a_gridtep_error_from_a_drawn_ahead_build_is_drawn_again(
        monkeypatch):
    """A drawn-ahead build is drawn again one state per stream only when
    it raises a GridTepError, which a slot may never reach. Any other
    error propagates at once."""
    case = mcs_toy_case()
    net = toy_net(case)
    real = evaluation.build_records

    def build_records(case, net, month, out, *args):
        if any(lines == {2, 3} for lines, _ in contingency._decode(net, out)):
            raise RuntimeError("out of memory")
        return real(case, net, month, out, *args)

    monkeypatch.setattr(evaluation, "build_records", build_records)
    evaluator = PlanEvaluator(RunContext(case), net,
                              PlanSettings(mode="mcs", n_mcs=5), [4, 1])
    # Round 1 draws slot 0's "v" and "s" ahead; a state per round stops
    # at "v".
    scripted(monkeypatch, evaluator, {(1, 0): ".vs"}, 5)
    with pytest.raises(RuntimeError, match="out of memory"):
        evaluator.evaluate(net.base_capacities)


STRANDED = "bus with nonzero injection is disconnected from the slack bus"


def budget(slot, month):
    return (f"slot {slot} of month {month}: no valid sample within "
            f"{evaluation.MAX_RESAMPLES} draws")


# Per (month, slot), the outcome of the slot's k-th state is the script's
# k-th character: "." a state invalid at the toy case's base ratings (the
# intact one), "v" a valid one (line 1 out), "s" a state that cuts bus 3
# and its 60 MW of demand off the slack (lines 2 and 3 out), "x" an
# exhausted budget. Past its script, or without one, a slot draws "v".
# The script stands in for the round sampler, which a round hands its
# pending slots' flat (month, slot) stream indices in order, with the
# states each draws ahead; ``keep`` hands back those not used. A round
# draws month 1's slot 0 first whenever it is pending, so the states it
# used count the one-state rounds it took part in.
def scripted(monkeypatch, evaluator, script, n_mcs):
    """Replace the evaluator's sampler by the script. Returns the count of
    states each (month, slot) has used, "x" included."""
    states = {".": (frozenset(), frozenset()),
              "v": (frozenset([1]), frozenset()),
              "s": (frozenset([2, 3]), frozenset())}
    sampler = evaluator.scenario.sampler
    monkeypatch.setattr(sampler, "out", contingency._encode(
        sampler.case, sampler.net, list(states.values())))
    state_id = {outcome: k for k, outcome in enumerate(states)}
    used, last = {}, []

    def draw(index, budgets, ahead=1):
        """The round sampler's contract: per position the ids of its next
        ``ahead`` states, rows of the sampler's ``out``, -1 past an
        exhausted budget, and the draws up to each, "x" counting one."""
        ids = np.full((len(index), ahead), -1, dtype=np.intp)
        draws = np.zeros((len(index), ahead), dtype=np.int64)
        last[:] = []
        for pos, flat in enumerate(index.tolist()):
            key = flat // n_mcs + 1, flat % n_mcs
            at = used.get(key, 0)
            last.append((key, at))
            for j in range(ahead):
                outcome = script.get(key, "")[at + j:at + j + 1] or "v"
                draws[pos, j:] = j + 1
                if outcome == "x":
                    break
                ids[pos, j] = state_id[outcome]
            used[key] = at + int(draws[pos, -1])
        return ids, draws

    def keep(draws):
        for (key, at), d in zip(last, draws.tolist()):
            used[key] = at + d

    monkeypatch.setattr(sampler, "draw", draw)
    monkeypatch.setattr(sampler, "keep", keep)
    return used


@pytest.mark.numpy_floor
@pytest.mark.parametrize("script, error, message, first_slot_draws", [
    # Round 0: an exhausted budget beats a stranded state drawn before it.
    pytest.param({(1, 1): "s", (1, 3): "x"}, ResampleBudgetError,
                 budget(3, 1), 1, id="1-3-ResampleBudgetError"),
    pytest.param({(1, 3): "s", (1, 1): "x"}, ResampleBudgetError,
                 budget(1, 1), 1, id="3-1-ResampleBudgetError"),
    pytest.param({(1, 2): "x"}, ResampleBudgetError, budget(2, 1), 1,
                 id="None-2-ResampleBudgetError"),
    # Month 2 fails in redraw round 1, before month 1 would in round 3.
    pytest.param({(1, 0): "...x", (2, 1): ".x"}, ResampleBudgetError,
                 budget(1, 2), 2, id="m1-exhausted-r3-m2-exhausted-r1"),
    pytest.param({(1, 0): "...x", (2, 1): ".s"}, NetworkDisconnectedError,
                 STRANDED, 2, id="m1-exhausted-r3-m2-stranded-r1"),
    pytest.param({(1, 4): "..s", (2, 1): ".x"}, ResampleBudgetError,
                 budget(1, 2), 1, id="m1-stranded-r2-m2-exhausted-r1"),
    # Month 2 fails in round 0, month 1 would in round 2.
    pytest.param({(1, 0): "..x", (2, 0): "s"}, NetworkDisconnectedError,
                 STRANDED, 1, id="m1-exhausted-r2-m2-stranded-first"),
    # Month 3 fails in round 0, month 2 would in round 2.
    pytest.param({(1, 0): "..", (2, 2): "..x", (3, 0): "x"},
                 ResampleBudgetError, budget(0, 3), 1,
                 id="m2-exhausted-r2-m3-exhausted-first"),
    pytest.param({(2, 1): "x", (3, 0): "s"}, ResampleBudgetError,
                 budget(1, 2), 1, id="m2-exhausted-first-m3-stranded-first"),
    pytest.param({(2, 3): "..s", (2, 4): "..x", (4, 1): "x"},
                 ResampleBudgetError, budget(1, 4), 1,
                 id="m2-stranded-before-exhausted-r2-m4-exhausted-first"),
    # Month 2 fails in round 1: month 1, still pending, draws no more.
    pytest.param({(1, 0): "....", (2, 1): ".x"}, ResampleBudgetError,
                 budget(1, 2), 2, id="m1-pending-m2-exhausted-r1"),
    # Inside one draw-ahead round (rounds 3 to 6): month 2 runs out in
    # round 4, before month 1 in round 5 and month 3 is stranded in 6.
    pytest.param({(1, 0): ".....x", (2, 1): "....x", (3, 2): "......s"},
                 ResampleBudgetError, budget(1, 2), 5,
                 id="ahead-m2-exhausted-r4-m1-exhausted-r5"),
    # Round 4: month 3's stranded state comes before month 2's budget.
    pytest.param({(2, 1): "......x", (3, 2): "....s"},
                 NetworkDisconnectedError, STRANDED, 1,
                 id="ahead-m3-stranded-r4-m2-exhausted-r6"),
    # Round 4: month 4 and month 2 run out together; month 2 is named.
    pytest.param({(4, 0): "....x", (2, 3): "....x", (1, 0): "......"},
                 ResampleBudgetError, budget(3, 2), 5,
                 id="ahead-m2-m4-exhausted-r4"),
])
def test_mcs_batch_raises_the_error_a_slot_by_slot_build_meets(
        monkeypatch, script, error, message, first_slot_draws):
    """States are built in batches, one per redraw round of all months
    together, first draws (round 0) included, and later rounds draw
    states ahead. A call raises the first error a one-state order meets:
    round by round, the first slot, month by month and slot by slot,
    whose budget runs out, before any of that round's states is built;
    else the error building them. No state is used after it."""
    case = mcs_toy_case()
    net = toy_net(case)
    n_mcs = 5
    evaluator = PlanEvaluator(RunContext(case), net, PlanSettings(mode="mcs",
                                                      n_mcs=n_mcs), [4, 1])
    used = scripted(monkeypatch, evaluator, script, n_mcs)
    with pytest.raises(error) as info:
        evaluator.evaluate(net.base_capacities)
    assert str(info.value) == message
    assert used[1, 0] == first_slot_draws


@pytest.mark.numpy_floor
@pytest.mark.parametrize("script, first_slot_draws", [
    ({(1, 0): ".vs"}, 2),
    ({(1, 0): ".vx"}, 2),
    ({(1, 0): "...vs", (2, 1): ".v.s"}, 4),
    ({(1, 0): "..v.x", (3, 3): "...v.x"}, 3),
])
def test_mcs_batch_prices_a_slot_whose_unused_state_would_fail(
        monkeypatch, script, first_slot_draws):
    """A state drawn ahead that a one-state order never reaches fails
    nothing: after an invalid state, a slot that draws a valid one and
    then a stranded one or an exhausted budget is priced, with the
    figures of the script that stops at the valid state."""
    case = mcs_toy_case()
    net = toy_net(case)
    n_mcs = 5

    def price(script):
        evaluator = PlanEvaluator(RunContext(case), net, PlanSettings(
            mode="mcs", n_mcs=n_mcs), [4, 1])
        used = scripted(monkeypatch, evaluator, script, n_mcs)
        return evaluator.evaluate(net.base_capacities).report, used

    report, used = price(script)
    assert used[1, 0] == first_slot_draws
    want, _ = price({key: chars[:chars.rindex("v") + 1]
                     for key, chars in script.items() if "v" in chars})
    for field in fields(ExpectationReport):
        assert np.array_equal(getattr(report, field.name),
                              getattr(want, field.name)), field.name


def count_draws(monkeypatch, evaluator):
    """Record, per flat (month, slot) stream index of an MCS evaluator,
    whether each element-wise draw's state passes the feasibility screen:
    a dict from the index to its outcomes in draw order. Each drawn row's
    outage code is read as its bit string, element 0 first."""
    sampler = evaluator.scenario.sampler
    case, net = sampler.case, sampler.net
    n_lines, n = len(net.line_ids), len(sampler.limits)
    outcomes = {}
    real = sampler.streams.codes

    def codes(index, limits, rows=1):
        got = real(index, limits, rows)
        for flat, words in zip(np.repeat(index, rows).tolist(),
                               got.tolist()):
            last = n - 64 * (len(words) - 1)
            out = [b == "1" for b in "".join(
                [f"{w:064b}" for w in words[:-1]] + [f"{words[-1]:0{last}b}"])]
            lines_out = frozenset(compress(net.line_ids, out[:n_lines]))
            gens_out = frozenset(compress(range(n - n_lines), out[n_lines:]))
            outcomes.setdefault(flat, []).append(
                contingency._feasible(case, net, lines_out, gens_out))
        return got

    monkeypatch.setattr(sampler.streams, "codes", codes)
    return outcomes


@pytest.mark.numpy_floor
def test_slot_budget_bounds_every_draw_including_island_rejections(
        monkeypatch):
    """With every state invalid at zero ratings, the slot that raises
    stops after exactly MAX_RESAMPLES element-wise draws, island
    rejections counted."""
    lines = [line(1, 1, 2, for_=0.4), line(2, 2, 3, for_=0.4),
             line(3, 3, 4, for_=0.4), line(4, 4, 1, for_=0.4)]
    case = build_case([0, 0, 60, 40], lines,
                      [gen(1, 80.0), gen(2, 60.0)], min_online=1)
    net = toy_net(case)
    monkeypatch.setattr(evaluation, "MAX_RESAMPLES", 30)
    evaluator = PlanEvaluator(
        RunContext(case), net, PlanSettings(mode="mcs", n_mcs=1), [5, 1])
    outcomes = count_draws(monkeypatch, evaluator)
    with pytest.raises(ResampleBudgetError) as info:
        evaluator.evaluate([0.0] * 4)
    slot, month = map(int, re.match(r"slot (\d+) of month (\d+): ",
                                    str(info.value)).groups())
    assert str(info.value) == budget(slot, month)
    named = outcomes[(month - 1) * evaluator.scenario.n_slots + slot]
    assert len(named) == 30
    assert True in named and False in named  # both screens rejected


@pytest.mark.numpy_floor
def test_slot_budget_checks_its_last_draw(monkeypatch):
    """A slot whose first valid state is the last draw its budget allows
    is priced; one draw less raises."""
    case = mcs_toy_case()
    net = toy_net(case)
    tight = [5.0] * 4

    def evaluator():
        return PlanEvaluator(RunContext(case), net,
                             PlanSettings(mode="mcs", n_mcs=1), [3, 1])

    free = evaluator()
    expected = free.evaluate(tight)
    needed = int(free.scenario.draws.max())
    assert needed > 1
    monkeypatch.setattr(evaluation, "MAX_RESAMPLES", needed)
    got = evaluator().evaluate(tight)
    np.testing.assert_array_equal(got.report.edns, expected.report.edns)
    monkeypatch.setattr(evaluation, "MAX_RESAMPLES", needed - 1)
    with pytest.raises(ResampleBudgetError):
        evaluator().evaluate(tight)


def test_island_screens_never_reach_the_union_find(monkeypatch):
    """Connectivity comes from the batched reachability pass alone: with
    the union-find raising wherever the load flow could reach it,
    slack_connected on fresh outage sets, and Monte Carlo pricing of the
    toy case and of a bundled-case plan, redraws included, give the masks
    and reports they give without it."""
    toy, bundled = mcs_toy_case(), load_case(BUNDLED)

    def run():
        out = []
        for case, net in ((toy, toy_net(toy)), (bundled, apply_plan(
                bundled, Chromosome.from_ints([1, 0] * 7)))):
            masks = dcflow.slack_connected(net, np.array([
                [lid not in lines for lid in net.line_ids] for k in range(4)
                for lines in itertools.combinations(net.line_ids, k)])
            ).tolist()
            evaluator = PlanEvaluator(
                RunContext(case), net, PlanSettings(mode="mcs", n_mcs=15),
                [3, 1])
            base = np.asarray(net.base_capacities)
            reports = [evaluator.evaluate(caps).report
                       for caps in (base, 0.4 * base)]
            out.append((masks, reports))
        return out

    want = run()

    def union_find(*args, **kwargs):
        raise AssertionError("the union-find was called")

    monkeypatch.setattr(network, "connected_components", union_find)
    monkeypatch.setattr(dcflow, "connected_components", union_find,
                        raising=False)
    got = run()
    for (want_masks, want_reports), (masks, reports) in zip(want, got):
        assert masks == want_masks
        for report, expected in zip(reports, want_reports):
            for field in fields(ExpectationReport):
                assert np.array_equal(getattr(report, field.name),
                                      getattr(expected, field.name))


def test_batch_rows_do_not_depend_on_how_they_are_split():
    """Evaluating rows from any start gives bit-for-bit the figures the
    whole batch gives for them, the single last row included."""
    case = load_case(BUNDLED)
    net = apply_plan(case, Chromosome.from_ints([1] * 14))
    batch = PlanEvaluator(RunContext(case), net, PlanSettings(mode="n1"),
                          [1, 1]).scenario.batch
    rng = np.random.default_rng(0)
    for _ in range(3):
        caps = rng.uniform(1.0, 300.0, len(net.lines))
        whole = batch.evaluate(caps)
        for start in range(len(batch)):
            part = batch.evaluate(caps, start)
            for field in ("valid", "dns", "gns", "wheeling", "congested"):
                np.testing.assert_array_equal(getattr(part, field),
                                              getattr(whole, field)[start:])


@pytest.mark.parametrize("mode, order", [("n1", 1), ("n2", 2)])
@pytest.mark.parametrize("which", ["toy", "bundled"])
def test_enumerated_states_are_the_states_the_scenario_builds(
        monkeypatch, which, mode, order):
    """The public enumerate_deterministic lists exactly the states an N-1
    or N-2 evaluator builds, in the order it builds them over several
    builds, all of the peak month."""
    if which == "toy":
        case = mcs_toy_case()
        net = toy_net(case)
    else:
        case = load_case(BUNDLED)
        net = apply_plan(case, Chromosome.from_ints([1, 0] * 7))
    built = []
    real = evaluation.build_records

    def counted(case, net, month, out, *args):
        built.extend((m, *state) for m, state in zip(
            month.tolist(), contingency._decode(net, out)))
        return real(case, net, month, out, *args)

    monkeypatch.setattr(evaluation, "build_records", counted)
    monkeypatch.setattr(evaluation, "KERNEL_ROWS", 4)
    PlanEvaluator(RunContext(case), net, PlanSettings(mode=mode), [1, 1])
    peak = case.ldc.peak_month()
    assert built == [(peak, state.lines_out, state.gens_out)
                     for state in enumerate_deterministic(case, net, order)]
    assert len(built) > 4


@pytest.mark.numpy_floor
def test_build_records_dispatches_each_month_and_generator_row_once(
        monkeypatch):
    """States that share a month and a generator-outage row share one
    merit dispatch, found again by later calls, and every row gets the
    record a one-state build gives it, bit for bit."""
    case = load_case(BUNDLED)
    net = apply_plan(case, Chromosome.from_ints([1, 0] * 7))
    out = contingency.enumerate_outages(case, net, 1)
    month = np.resize([1, 7, 7], len(out))
    context = RunContext(case)
    dispatched_rows = []
    real = evaluation.dispatch_rows

    def counted(case, demand, offline):
        dispatched_rows.append(len(offline))
        return real(case, demand, offline)

    monkeypatch.setattr(evaluation, "dispatch_rows", counted)
    recs = evaluation.build_records(context, net, month, out)
    gens = out[:, len(net.lines):]
    pairs = {(m, row.tobytes()) for m, row in zip(month.tolist(), gens)}
    assert dispatched_rows == [len(pairs)]
    assert len(pairs) < len(out)  # some rows share a dispatch
    evaluation.build_records(context, net, month[::-1], out[::-1])
    assert dispatched_rows == [len(pairs)]
    assert (context.rows_requested, context.rows_dispatched) == (
        2 * len(out), len(pairs))
    for k, state in enumerate(contingency._decode(net, out)):
        one = build_record(RunContext(case), net, month[k],
                           OutageState(*state))
        for field in fields(one):
            assert np.array_equal(getattr(recs, field.name)[k],
                                  getattr(one, field.name)), field.name
