"""Tests for roulette-wheel capacity sizing and its stopping rules."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridtep import sizing
from gridtep.adequacy import ExpectationReport, line_overloads
from gridtep.costs import objective
from gridtep.evaluation import CapacityEvaluation, PlanEvaluator, PlanSettings
from gridtep.network import ActiveNetwork, Chromosome, apply_plan
from gridtep.rng import substream
from gridtep.sizing import (
    POLICY_NL,
    POLICY_WEL,
    STOP_ITERATION_CAP,
    STOP_MARGINAL,
    STOP_NO_CONGESTION,
    apply_hits,
    build_wheel,
    sizing_loop,
    updatable_mask,
)

from _toys import bare_net, line, mcs_toy_case


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


def test_policies_differ_on_existing_lines():
    net = mixed_net()
    np.testing.assert_array_equal(updatable_mask(net, POLICY_WEL),
                                  [True, True, True])
    np.testing.assert_array_equal(updatable_mask(net, POLICY_NL),
                                  [False, False, True])
    with pytest.raises(ValueError):
        updatable_mask(net, "other")


def test_wheel_normalizes_eligible_probabilities():
    net = mixed_net()
    wheel = build_wheel(net, np.array([0.2, 0.2, 0.0]), POLICY_WEL, 0.1)
    assert wheel.line_ids == (1, 2)
    np.testing.assert_allclose(wheel.probabilities, [0.5, 0.5])


def test_wheel_threshold_is_strict():
    """P_con at exactly the threshold stays out of the wheel."""
    net = mixed_net()
    wheel = build_wheel(net, np.array([0.3, 0.1, 0.05]), POLICY_WEL, 0.1)
    assert wheel.line_ids == (1,)
    np.testing.assert_allclose(wheel.probabilities, [1.0])


def test_wheel_respects_policy():
    net = mixed_net()
    wheel = build_wheel(net, np.array([0.9, 0.9, 0.9]), POLICY_NL, 0.1)
    assert wheel.line_ids == (3,)


def test_spin_rounds_conserve_hits_and_update_exactly():
    """Over 500 seeded rounds: total hits equal spins, each updated rating
    equals its prior plus hits * step, and ineligible lines never move."""
    net = mixed_net()
    delta_f = 5.0
    for round_id in range(500):
        rng = substream(2024, 7, round_id)
        p = np.round(rng.uniform(0, 1, size=3), 3)
        wheel = build_wheel(net, p, POLICY_WEL, 0.1)
        before = net.base_capacities
        hits = wheel.spin(rng, n_spins=len(wheel.line_ids))
        updated = apply_hits(net, before, hits, delta_f)
        assert sum(hits.values()) == len(wheel.line_ids)
        assert set(hits) <= set(wheel.line_ids)
        for pos, ln in enumerate(net.lines):
            expected = before[pos] + hits.get(ln.id, 0) * delta_f
            assert updated[pos] == expected
            if p[pos] <= 0.1:
                assert updated[pos] == before[pos]


def test_equal_segments_split_spins_evenly():
    net = mixed_net()
    wheel = build_wheel(net, np.array([0.4, 0.4, 0.0]), POLICY_WEL, 0.1)
    rng = substream(5, 2)
    hits = wheel.spin(rng, n_spins=100_000)
    share = hits[1] / 100_000
    sigma = (0.5 * 0.5 / 100_000) ** 0.5
    assert abs(share - 0.5) <= 3 * sigma


def test_single_segment_takes_every_spin():
    net = mixed_net()
    wheel = build_wheel(net, np.array([0.0, 0.0, 0.9]), POLICY_WEL, 0.1)
    hits = wheel.spin(substream(1, 1), n_spins=len(wheel.line_ids))
    assert hits == {3: 1}
    grown = apply_hits(net, net.base_capacities, {3: 4}, 5.0)
    assert grown[2] == net.base_capacities[2] + 20.0


def priced(ec, t_inv, congestion_probability):
    """A stand-in for PlanEvaluator.evaluate's result, as sizing reads it."""
    return CapacityEvaluation(
        report=None, breakdown=objective(ec, 0.0, 0.0, t_inv, 0.0),
        congestion_probability=np.asarray(congestion_probability, float))


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
        evaluator = PlanEvaluator(case, net, config, entropy)
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
        fresh = PlanEvaluator(case, net, config, entropy).evaluate(final)
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
