"""Tests for roulette-wheel capacity sizing and its stopping rules."""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridtep import sizing
from gridtep.adequacy import ExpectationReport, line_overloads
from gridtep.costs import objective
from gridtep.evaluation import (POLICY_NL, POLICY_WEL, CapacityEvaluation,
                                PlanEvaluator, PlanSettings, RunContext)
from gridtep.network import ActiveNetwork, Chromosome, apply_plan, load_case
from gridtep.rng import DOMAIN_SPIN, chromosome_entropy, substream
from gridtep.sizing import (
    SPIN_BLOCK,
    STOP_ITERATION_CAP,
    STOP_MARGINAL,
    STOP_NO_CONGESTION,
    SizingStep,
    sizing_loop,
    spin,
)

from _toys import bare_net, line, mcs_toy_case
from test_network import BUNDLED


def mixed_net():
    """Three lines: two existing, one candidate."""
    base = bare_net(3, [(1, 2, 0.1), (2, 3, 0.1), (1, 3, 0.1)])
    lines = (
        line(1, 1, 2, x=0.1, status="existing"),
        line(2, 2, 3, x=0.1, status="existing"),
        line(3, 1, 3, x=0.1, cap=5.0, status="candidate"),
    )
    return ActiveNetwork(buses=base.buses, lines=lines)


def test_congestion_probability_counts_runs():
    """Sizing's congestion probability is the weighted share of states in
    which a line's |flow| strictly exceeds its rating: the kernel's
    congestion flags averaged with the states' weights."""
    flows = np.tile([50.0, 10.0], (1000, 1))
    congested, _ = line_overloads(flows, np.array([40.0, 10.0]))
    equal = np.full(1000, 1 / 1000)
    # Line 1 congests in every run; line 2 (exactly at its rating) never.
    np.testing.assert_allclose(equal @ congested, [1.0, 0.0])
    flows[250:, 0] = 40.0  # at rating from run 251 on
    congested, _ = line_overloads(flows, np.array([40.0, 10.0]))
    assert (equal @ congested)[0] == pytest.approx(0.25)


def priced(ec, t_inv, congestion_probability):
    """A stand-in for PlanEvaluator.evaluate's result, as sizing reads it."""
    return CapacityEvaluation(
        report=None, breakdown=objective(ec, 0.0, 0.0, t_inv, 0.0),
        congestion_probability=np.asarray(congestion_probability, float))


def first_update(p, policy=POLICY_WEL):
    """The first sizing update on ``mixed_net`` when the start ratings
    congest with probabilities ``p`` and any grown ratings do not congest
    at all."""
    net = mixed_net()
    start = net.base_capacities

    def evaluate(capacities):
        congested = capacities == start
        return priced(10.0, 1.0, p if congested else np.zeros(len(p)))

    trace = sizing_loop(net, evaluate, PlanSettings(policy=policy),
                        rng_entropy=4)
    assert trace.stop_reason == STOP_NO_CONGESTION
    return trace.steps[1]


def test_wheel_normalizes_eligible_probabilities():
    """``spin`` counts per segment the picks ``rng.choice`` makes with the
    wheel's normalised weights."""
    weights = np.array([0.2, 0.6, 0.2])
    hits = spin(substream(9, 1).random(1000), weights)
    picks = substream(9, 1).choice(3, size=1000, p=[0.2, 0.6, 0.2])
    np.testing.assert_array_equal(hits, np.bincount(picks, minlength=3))
    # Scaling every weight leaves the wheel, and so the hits, unchanged.
    np.testing.assert_array_equal(
        spin(substream(9, 1).random(1000), weights * 7.5), hits)
    # A segment that no pick lands on still gets its zero count.
    np.testing.assert_array_equal(
        spin(substream(9, 1).random(4), np.array([1.0, 0.0])), [4, 0])


@pytest.mark.numpy_floor
@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       weights=st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1,
                        max_size=21),
       n_spins=st.integers(1, 21))
def test_spin_is_generator_choice_bit_for_bit(seed, weights, n_spins):
    """Spun from its cumulative bounds on the uniforms ``Generator.random``
    draws, the wheel gets the hits ``Generator.choice`` gives on a fresh
    substream, and those draws leave the generator where ``choice``
    leaves it."""
    weights = np.array(weights)
    rng, reference = substream(seed, 2, 1), substream(seed, 2, 1)
    hits = spin(rng.random(n_spins), weights)
    picks = reference.choice(len(weights), size=n_spins,
                             p=weights / weights.sum())
    np.testing.assert_array_equal(
        hits, np.bincount(picks, minlength=len(weights)))
    assert rng.random() == reference.random()


def test_wheel_threshold_is_strict():
    """P_con at exactly the threshold stays off the wheel."""
    step = first_update(np.array([0.3, 0.1, 0.05]))
    assert step.eligible == (1,)
    assert step.hits == ((1, 1),)


def test_policies_differ_on_existing_lines():
    """With every line congested, WEL puts every line on the wheel and NL
    only the candidate line 3."""
    congested = np.full(3, 0.9)
    assert first_update(congested, POLICY_WEL).eligible == (1, 2, 3)
    assert first_update(congested, POLICY_NL).eligible == (3,)


def test_wheel_respects_policy(monkeypatch):
    """Under NL, existing lines never move however congested they stay:
    only the candidate line is eligible, wins spins and grows."""
    def stubborn(capacities):
        return priced(-sum(capacities), 0.0, np.full(3, 0.9))

    monkeypatch.setattr(sizing, "MAX_SIZING_ITERATIONS", 20)
    net = mixed_net()
    trace = sizing_loop(net, stubborn, PlanSettings(policy=POLICY_NL),
                        rng_entropy=6)
    assert trace.iterations == 20
    for step in trace.steps[1:]:
        assert step.eligible == (3,) and step.hits == ((3, 1),)
        assert step.capacities[:2] == net.base_capacities[:2]
    assert trace.final_capacities[2] == net.base_capacities[2] + 20 * 5.0


def seeded_congestion(seed, loop, n_lines, decimals=None):
    """A stub evaluator whose k-th call draws every line's congestion
    probability from ``substream(seed, loop, k)``, optionally rounded to
    ``decimals``. EC falls 1 $ per MW and T_inv stays 0, so the marginal
    rule never stops the loop. The draws are kept in ``evaluate.drawn``,
    in call order."""
    def evaluate(capacities):
        rng = substream(seed, loop, len(evaluate.drawn))
        p = rng.uniform(0, 1, size=n_lines)
        if decimals is not None:
            p = np.round(p, decimals)
        evaluate.drawn.append(p)
        return priced(-sum(capacities), 0.0, p)

    evaluate.drawn = []
    return evaluate


def updates_are_exact(net, trace, drawn, settings):
    """Each update of ``trace`` spins once per eligible line and grows each
    rating by its hits times ``delta_f`` exactly; the eligible lines are
    those the policy may resize whose drawn P_con strictly exceeds the
    threshold, and no other line moves."""
    may_resize = [settings.policy == POLICY_WEL or ln.status == "candidate"
                  for ln in net.lines]
    ok = True
    for prev, step, p in zip(trace.steps, trace.steps[1:], drawn):
        expect = tuple(ln.id for ln, pk, r in zip(net.lines, p, may_resize)
                       if r and pk > settings.congestion_threshold)
        hits = dict(step.hits)
        ok = ok and step.eligible == expect
        ok = ok and sum(hits.values()) == len(step.eligible)
        ok = ok and set(hits) <= set(step.eligible)
        ok = ok and all(m > 0 for m in hits.values())
        ok = ok and list(hits) == sorted(hits)
        for pos, ln in enumerate(net.lines):
            added = hits.get(ln.id, 0) * settings.delta_f
            ok = ok and step.capacities[pos] == prev.capacities[pos] + added
    return ok


def seeded_updates(net, settings, seed, monkeypatch, n_updates=500,
                   decimals=None):
    """Drive ``sizing_loop`` on ``net`` with ``seeded_congestion`` stubs,
    one loop after another, for exactly ``n_updates`` updates in all;
    return whether ``updates_are_exact`` held for every loop."""
    ok, done = True, 0
    for loop in itertools.count():
        monkeypatch.setattr(sizing, "MAX_SIZING_ITERATIONS", n_updates - done)
        evaluate = seeded_congestion(seed, loop, len(net.lines), decimals)
        trace = sizing_loop(net, evaluate, settings, rng_entropy=[seed, loop])
        ok = ok and updates_are_exact(net, trace, evaluate.drawn, settings)
        done += trace.iterations
        if done == n_updates:
            return ok


def test_spin_rounds_conserve_hits_and_update_exactly(monkeypatch):
    """Over 500 seeded updates per policy, with P_con rounded to 3 decimals
    so that a draw can sit exactly on the threshold: total hits equal
    spins, each updated rating equals its prior plus hits * step, and
    lines off the wheel never move."""
    for policy in (POLICY_NL, POLICY_WEL):
        settings = PlanSettings(policy=policy, delta_f=5.0)
        assert seeded_updates(mixed_net(), settings, 2024, monkeypatch,
                              decimals=3)


def test_equal_segments_split_spins_evenly():
    hits = spin(substream(5, 2).random(100_000), np.array([0.4, 0.4]))
    assert hits.sum() == 100_000
    share = hits[0] / 100_000
    sigma = (0.5 * 0.5 / 100_000) ** 0.5
    assert abs(share - 0.5) <= 3 * sigma


def test_single_segment_takes_every_spin():
    np.testing.assert_array_equal(
        spin(substream(1, 1).random(4), np.array([0.9])), [4])
    step = first_update(np.array([0.0, 0.0, 0.9]))
    assert step.eligible == (3,) and step.hits == ((3, 1),)
    base = mixed_net().base_capacities
    assert step.capacities == base[:2] + (base[2] + 5.0,)


def one_update(ec, t_inv, delta_f=50.0):
    """Sizing trace of one update: only the candidate line congests until
    it has grown once by delta_f; ``ec`` and ``t_inv`` map the total
    capacity to the priced figures."""
    net = mixed_net()
    start = sum(net.base_capacities)

    def evaluate(capacities):
        total = sum(capacities)
        p = [0.0, 0.0, 0.9 if total == start else 0.0]
        return priced(ec(total), t_inv(total), p)

    return sizing_loop(net, evaluate,
                       PlanSettings(policy=POLICY_WEL, delta_f=delta_f),
                       rng_entropy=3)


def test_marginal_quantities_from_last_two_iterations():
    """EC falling 5 M$ while investment rises 1 M$ over 50 added MW gives
    MEC -0.1 and MI +0.02 per MW."""
    trace = one_update(lambda total: 55.4 if total == 205.0 else 50.4,
                       lambda total: 19.3 if total == 205.0 else 20.3)
    assert trace.iterations == 1
    assert sum(trace.final_capacities) == 255.0
    assert trace.steps[-1].mec == pytest.approx(-0.1)
    assert trace.steps[-1].mi == pytest.approx(0.02)


def test_marginal_quantities_zero_when_cost_flat():
    trace = one_update(lambda total: 55.4, lambda total: 19.3)
    assert (trace.steps[-1].mec, trace.steps[-1].mi) == (0.0, 0.0)


def test_marginal_quantities_needs_movement():
    """Marginal quantities need two iterations and a capacity change
    between them: the first step has none, and every update adds the MW
    its hits won, so MEC and MI are the cost changes over that."""
    trace = one_update(lambda total: 1000.0 - total, lambda total: total,
                       delta_f=5.0)
    first, last = trace.steps
    assert first.mec is None and first.mi is None
    added = sum(last.capacities) - sum(first.capacities)
    assert added == sum(m for _, m in last.hits) * 5.0 > 0
    assert last.mec == (last.expected_cost - first.expected_cost) / added
    assert last.mi == (last.transmission_investment
                       - first.transmission_investment) / added


def uncongested_evaluator(capacities):
    return priced(10.0, 1.0, np.zeros(len(capacities)))


def test_loop_stops_immediately_without_congestion():
    net = mixed_net()
    trace = sizing_loop(net, uncongested_evaluator,
                        PlanSettings(policy=POLICY_WEL), rng_entropy=0)
    assert trace.stop_reason == STOP_NO_CONGESTION
    assert trace.iterations == 0
    assert trace.final_capacities == net.base_capacities


def test_loop_hits_iteration_cap_when_congestion_persists(monkeypatch):
    def stubborn(capacities):
        return priced(sum(capacities) * -1.0,  # keeps MEC very negative
                      0.0, np.full(len(capacities), 0.9))

    monkeypatch.setattr(sizing, "MAX_SIZING_ITERATIONS", 3)
    net = mixed_net()
    trace = sizing_loop(net, stubborn, PlanSettings(policy=POLICY_WEL),
                        rng_entropy=1)
    assert trace.stop_reason == STOP_ITERATION_CAP
    assert trace.iterations == 3


def test_loop_stops_once_marginal_saving_fades():
    """EC falls a steep 1 k$/MW until enough capacity exists, then goes
    flat; the loop keeps spinning through the steep phase and stops at the
    marginal crossing, never before the second iteration."""
    def fading(capacities):
        total = sum(capacities)
        return priced(max(0.0, 1000.0 - total), 0.01 * total,
                      np.full(len(capacities), 0.5))

    net = mixed_net()
    trace = sizing_loop(net, fading,
                        PlanSettings(policy=POLICY_WEL, delta_f=100.0),
                        rng_entropy=2)
    assert trace.stop_reason == STOP_MARGINAL
    assert trace.iterations >= 2
    assert abs(trace.steps[-1].mec) <= trace.steps[-1].mi
    # While spins landed, total capacity strictly grew every iteration.
    totals = [sum(s.capacities) for s in trace.steps]
    assert all(b > a for a, b in zip(totals, totals[1:]))


def test_loop_records_replayable_steps():
    def congested_once(capacities):
        total = sum(capacities)
        p = 0.9 if total < 250 else 0.0
        return priced(500.0 - total, 0.1 * total,
                      np.full(len(capacities), p))

    net = mixed_net()
    a = sizing_loop(net, congested_once, PlanSettings(policy=POLICY_WEL),
                    rng_entropy=42)
    b = sizing_loop(net, congested_once, PlanSettings(policy=POLICY_WEL),
                    rng_entropy=42)
    assert a == b


def sizing_toy():
    """The toy MCS case with line 3 a built candidate, every line's base
    rating halved: congested enough to grow under both policies."""
    toy = mcs_toy_case()
    case = dataclasses.replace(toy, lines=tuple(
        dataclasses.replace(
            ln, base_capacity_mw=ln.base_capacity_mw / 2,
            status="candidate" if ln.id == 3 else ln.status)
        for ln in toy.lines))
    return case, apply_plan(case, Chromosome.from_ints([1]))


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       delta_f=st.sampled_from([1.0, 2.5, 7.0]))
def test_sizing_prices_each_capacity_vector_once(seed, delta_f):
    """Nothing caches evaluations, so the loop must not need one: it
    prices every capacity vector once, total capacity strictly grows, and
    the trace's last evaluation is what pricing its final capacities
    gives. Re-pricing them on the same evaluator gives it bit for bit; a
    fresh evaluator stacks its states in another order, so its weighted
    sums may differ in the last bits."""
    case, net = sizing_toy()
    entropy = [seed, 1]
    for policy in (POLICY_NL, POLICY_WEL):
        config = PlanSettings(mode="mcs", policy=policy, n_mcs=10,
                              delta_f=delta_f)
        evaluator = PlanEvaluator(RunContext(case), net, config, entropy)
        priced = []

        def evaluate(capacities):
            priced.append(capacities)
            return evaluator.evaluate(capacities)

        trace = sizing_loop(net, evaluate, config, entropy)
        assert len(set(priced)) == len(priced) == trace.iterations + 1
        totals = [sum(caps) for caps in priced]
        assert all(b > a for a, b in zip(totals, totals[1:]))

        final = trace.final_capacities
        got = trace.final_evaluation
        again = evaluator.evaluate(final)
        fresh = PlanEvaluator(RunContext(case), net, config,
                              entropy).evaluate(final)
        assert got.breakdown == again.breakdown
        np.testing.assert_allclose(dataclasses.astuple(fresh.breakdown),
                                   dataclasses.astuple(got.breakdown),
                                   rtol=1e-12)
        for field in dataclasses.fields(ExpectationReport):
            a, b, c = (getattr(ev.report, field.name)
                       for ev in (got, again, fresh))
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), \
                field.name
            np.testing.assert_allclose(c, a, rtol=1e-12, atol=1e-12)


def per_iteration_reference(net, evaluate, settings, rng_entropy):
    """(steps, stop reason) of the sizing loop by the per-iteration
    algorithm: iteration k derives its own generator, ``substream(
    rng_entropy, DOMAIN_SPIN, k)``, and spins the wheel with
    ``Generator.choice``."""
    resizable = [settings.policy == POLICY_WEL or ln.status == "candidate"
                 for ln in net.lines]
    caps = list(net.base_capacities)
    ev = evaluate(tuple(caps))
    steps = [SizingStep(0, tuple(caps), ev.breakdown.ec, ev.breakdown.t_inv,
                        (), (), None, None)]
    for iteration in itertools.count(1):
        p = ev.congestion_probability
        eligible = [k for k, ok in enumerate(resizable)
                    if ok and p[k] > settings.congestion_threshold]
        if not eligible:
            return steps, STOP_NO_CONGESTION
        if iteration > sizing.MAX_SIZING_ITERATIONS:
            return steps, STOP_ITERATION_CAP
        w = p[eligible]
        picks = substream(rng_entropy, DOMAIN_SPIN, iteration).choice(
            len(w), size=len(w), p=w / w.sum())
        hits = np.bincount(picks, minlength=len(w)).tolist()
        added_mw = len(eligible) * settings.delta_f
        prev = ev.breakdown
        for k, m in zip(eligible, hits):
            caps[k] += m * settings.delta_f
        ev = evaluate(tuple(caps))
        mec = (ev.breakdown.ec - prev.ec) / added_mw
        mi = (ev.breakdown.t_inv - prev.t_inv) / added_mw
        ids = [net.line_ids[k] for k in eligible]
        steps.append(SizingStep(
            iteration, tuple(caps), ev.breakdown.ec, ev.breakdown.t_inv,
            tuple(ids), tuple(sorted((i, m) for i, m in zip(ids, hits) if m)),
            mec, mi))
        if iteration >= 2 and abs(mec) <= mi:
            return steps, STOP_MARGINAL


def assert_matches_reference(net, make_evaluate, settings, entropy):
    """``sizing_loop`` gives the reference's steps and stop reason, each
    driven by a fresh evaluator from ``make_evaluate``; returns the
    trace."""
    trace = sizing_loop(net, make_evaluate(), settings, entropy)
    steps, stop = per_iteration_reference(net, make_evaluate(), settings,
                                          entropy)
    assert trace.steps == tuple(steps)
    assert trace.stop_reason == stop
    return trace


def plan_evaluator(case, net, settings, entropy):
    return lambda: PlanEvaluator(RunContext(case), net, settings,
                                 entropy).evaluate


@pytest.mark.parametrize("mode, policy", [("n2", POLICY_NL),
                                          ("mcs", POLICY_WEL)])
def test_sizing_is_the_per_iteration_reference_on_seeded_plans(mode, policy):
    """On seeded plans of the bundled case, priced as the planner prices
    them, the loop's steps and stop reason are the ones iteration-by-
    iteration spin streams give."""
    case = load_case(BUNDLED)
    settings = PlanSettings(mode=mode, policy=policy, n_mcs=25)
    rng = np.random.default_rng(26)
    for _ in range(4):
        bits = tuple(bool(b) for b in rng.random(14) < 0.5)
        net = apply_plan(case, Chromosome(bits))
        entropy = chromosome_entropy(7, bits)
        assert_matches_reference(net, plan_evaluator(case, net, settings,
                                                     entropy),
                                 settings, entropy)


def test_sizing_past_the_first_spin_block_is_the_reference(monkeypatch):
    """A plan whose N-2 loop runs past the first block of spin streams
    still spins iteration by iteration as the reference does; so does
    the same loop cut at iteration caps inside the first block, at its
    end, just past it, and inside the second."""
    case = load_case(BUNDLED)
    settings = PlanSettings(mode="n2", policy=POLICY_NL)
    bits = tuple(b == "1" for b in "10100000000001")
    net = apply_plan(case, Chromosome(bits))
    entropy = chromosome_entropy(7, bits)
    evaluator = plan_evaluator(case, net, settings, entropy)
    trace = assert_matches_reference(net, evaluator, settings, entropy)
    assert trace.iterations > SPIN_BLOCK + 1
    assert trace.stop_reason == STOP_NO_CONGESTION
    for cap in (1, 5, SPIN_BLOCK, SPIN_BLOCK + 1, SPIN_BLOCK + 3):
        monkeypatch.setattr(sizing, "MAX_SIZING_ITERATIONS", cap)
        trace = assert_matches_reference(net, evaluator, settings, entropy)
        assert trace.stop_reason == STOP_ITERATION_CAP
        assert trace.iterations == cap


@pytest.mark.parametrize("cap", [SPIN_BLOCK + 1, 3 * SPIN_BLOCK,
                                 3 * SPIN_BLOCK + 1, 7 * SPIN_BLOCK + 5])
def test_sizing_at_an_iteration_cap_is_the_reference(monkeypatch, cap):
    """A loop that congestion never lets stop spins as the reference
    does up to a monkeypatched iteration cap, through block boundaries:
    the first block ends at ``SPIN_BLOCK`` and the second at three times
    that. The k-th pricing draws every line's P_con from [0.2, 1) off
    ``substream(cap, k)``, and EC falls 1 $ per MW."""
    def make_evaluate():
        calls = itertools.count()
        return lambda caps: priced(-sum(caps), 0.0, substream(
            cap, next(calls)).uniform(0.2, 1.0, len(caps)))

    monkeypatch.setattr(sizing, "MAX_SIZING_ITERATIONS", cap)
    net = mixed_net()
    for policy in (POLICY_NL, POLICY_WEL):
        settings = PlanSettings(policy=policy)
        trace = assert_matches_reference(net, make_evaluate, settings,
                                         [cap, 1])
        assert trace.stop_reason == STOP_ITERATION_CAP
        assert trace.iterations == cap
