"""Tests for outage-state sampling, islanding, and enumeration."""

from __future__ import annotations

import copy
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gridtep import contingency
from gridtep.contingency import (
    OutageState,
    RoundSampler,
    enumerate_deterministic,
    is_islanded,
    sample_state,
    screen,
)
from gridtep.errors import ResampleBudgetError
from gridtep.network import (Chromosome, apply_plan, connected_components,
                             load_case)
from gridtep.rng import DOMAIN_MCS, STEP_ROWS, substream, substreams

from _toys import build_case, gen, line, mcs_toy_case, per_draw_reference

from test_network import BUNDLED


def net_of(case):
    return apply_plan(case, Chromosome.from_ints(
        [0] * len(case.candidate_lines)))


def test_zero_outage_rates_sample_the_intact_state():
    case = build_case(
        [0, 50],
        [line(1, 1, 2, for_=0.0)],
        [gen(1, 60.0, for_=0.0), gen(2, 60.0, for_=0.0)],
    )
    net = net_of(case)
    rng = substream(0, 1)
    for _ in range(20):
        state = sample_state(case, net, rng)
        assert state == OutageState(frozenset(), frozenset())


@pytest.mark.numpy_floor
def test_unrejected_sampling_reproduces_outage_rates():
    """On a network where no outage combination is ever rejected, each
    line's empirical outage frequency matches its rate within 3 sigma."""
    rates = (0.1, 0.2, 0.3)
    case = build_case(
        [0, 0],
        [line(i + 1, 1, 2, for_=r) for i, r in enumerate(rates)],
        [gen(1, 10.0, for_=0.0)],
        min_online=1,
    )
    net = net_of(case)
    n = 20000
    sampler = RoundSampler(case, net, substreams(1234, (1,), np.arange(n)))
    ids, draws = (a[:, 0] for a in sampler.draw(
        np.arange(n), np.zeros(n, dtype=np.int64), np.full(n, 1000), 512))
    assert (ids >= 0).all() and (draws == 1).all()
    out = sampler.out[:, :3]  # lines 1, 2 and 3
    counts = np.bincount(ids, minlength=len(out)) @ out
    for k, r in enumerate(rates):
        sigma = (r * (1 - r) / n) ** 0.5
        assert abs(counts[k] / n - r) <= 3 * sigma


def test_sampler_is_deterministic_per_stream():
    case = build_case(
        [0, 40, 40],
        [line(1, 1, 2, for_=0.2), line(2, 2, 3, for_=0.2), line(3, 1, 3, for_=0.2)],
        [gen(1, 100.0, for_=0.2), gen(2, 100.0, for_=0.2)],
        min_online=1,
    )
    net = net_of(case)
    draws_a = [sample_state(case, net, substream(99, 1, k)) for k in range(50)]
    draws_b = [sample_state(case, net, substream(99, 1, k)) for k in range(50)]
    assert draws_a == draws_b


def test_sampler_matches_element_by_element_reference():
    """Each draw is one uniform per line, then one per generator, from the
    slot's stream; an element is out when its uniform is below its rate.
    The reference redoes that loop and the screen by hand, on a ring whose
    draws both screens often reject."""
    case = build_case(
        [0, 0, 60, 40],
        [line(k, k, k % 4 + 1, for_=0.4) for k in range(1, 5)],
        [gen(1, 80.0, for_=0.3), gen(2, 60.0, for_=0.3),
         gen(4, 50.0, for_=0.3)],
        min_online=2,
    )
    net = net_of(case)
    rng, ref = substream(5, 1, 2), substream(5, 1, 2)
    rejected = 0
    for _ in range(300):
        state = sample_state(case, net, rng)
        draws = 0
        while True:
            draws += 1
            u_lines = ref.random(len(net.lines))
            u_gens = ref.random(len(case.generators))
            lines_out = frozenset(ln.id for ln, u in zip(net.lines, u_lines)
                                  if u < ln.forced_outage_rate)
            gens_out = frozenset(
                k for k, (g, u) in enumerate(zip(case.generators, u_gens))
                if u < g.forced_outage_rate)
            if (len(case.generators) - len(gens_out)
                    >= case.min_online_generators
                    and not is_islanded(case, net, lines_out, gens_out)):
                break
        assert (state.lines_out, state.gens_out, state.draws) == (
            lines_out, gens_out, draws)
        rejected += draws - 1
    assert rejected > 100


def test_rejection_keeps_demand_served_and_fleet_online():
    """States that island the load bus or leave too few units online never
    come back from the sampler."""
    case = build_case(
        [0, 50],
        [line(1, 1, 2, for_=0.4)],
        [gen(1, 60.0, for_=0.5), gen(2, 60.0, for_=0.5)],
        min_online=2,
    )
    net = net_of(case)
    rng = substream(7, 1)
    for _ in range(300):
        state = sample_state(case, net, rng)
        assert state.lines_out == frozenset()
        assert state.gens_out == frozenset()


def test_budget_exhaustion_raises():
    """A demand bus with no line at all can never be served; the sampler
    gives up after its resample budget."""
    case = build_case(
        [0, 0, 50],
        [line(1, 1, 2, for_=0.1)],
        [gen(1, 60.0, for_=0.0), gen(2, 60.0, for_=0.0)],
    )
    net = net_of(case)
    with pytest.raises(ResampleBudgetError):
        sample_state(case, net, substream(0, 1), max_draws=50)


# Both cases' draws are often rejected, by the island screen and by the
# minimum-online floor. The ring has 7 elements; the wide ring 40 lines
# and 30 generators, more than one 64-bit word of outage code holds. Its
# first 64 elements are seldom out and its last 6 often, so many of its
# draws differ only past the 64th element.
ROUND_CASES = {
    "ring": build_case(
        [0, 0, 60, 40],
        [line(k, k, k % 4 + 1, for_=0.4) for k in range(1, 5)],
        [gen(1, 80.0, for_=0.3), gen(2, 60.0, for_=0.3),
         gen(4, 50.0, for_=0.3)],
        min_online=2),
    "wide": build_case(
        [0, 10] * 20,
        [line(k, k, k % 40 + 1, for_=0.01) for k in range(1, 41)],
        [gen(k % 40 + 1, 30.0, for_=0.01 if k < 24 else 0.5)
         for k in range(30)],
        min_online=27),
}


@pytest.mark.numpy_floor
@pytest.mark.parametrize("which", sorted(ROUND_CASES))
def test_round_sampler_cases_reject_by_both_screens(which):
    """The cases below reach both rejections, so the comparison covers
    them."""
    case = ROUND_CASES[which]
    net = net_of(case)
    rngs = [substream(2, DOMAIN_MCS, 1, slot) for slot in range(40)]
    *_, rejected = per_draw_reference(case, net, rngs, [1000] * 40)
    assert rejected["island"] > 0 and rejected["online"] > 0, rejected


@pytest.mark.numpy_floor
@settings(max_examples=40, deadline=None)
@given(which=st.sampled_from(sorted(ROUND_CASES)),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_round_sampler_matches_a_per_draw_reference(which, seed, data):
    """Round after round on subsets of the (month, slot) streams, with
    budgets of 0, 1 and a few draws, the round sampler gives each stream
    the states and draw counts a per-draw loop gives, up to and including
    the first stream whose budget runs out, which it names. Each stream is
    drawn from its draws so far, so after a round the streams up to that
    one go on where the reference's do."""
    case = ROUND_CASES[which]
    net = net_of(case)
    n_slots = 4
    streams = substreams(seed, (DOMAIN_MCS,), np.repeat([1, 2], n_slots),
                         np.tile(np.arange(n_slots), 2))
    rngs = [substream(seed, DOMAIN_MCS, month, slot)
            for month in (1, 2) for slot in range(n_slots)]
    sampler = RoundSampler(case, net, streams)
    at = np.zeros(len(rngs), dtype=np.int64)  # each stream's draws so far
    usable = list(range(len(rngs)))  # streams still in step with rngs
    for _ in range(data.draw(st.integers(1, 4))):
        index = sorted(data.draw(st.sets(st.sampled_from(usable),
                                         min_size=1)))
        budgets = data.draw(st.lists(
            st.one_of(st.just(0), st.just(1), st.integers(2, 6)),
            min_size=len(index), max_size=len(index)))
        ids, draws = sampler.draw(np.array(index), at[index],
                                  np.array(budgets))
        at[index] += draws[:, 0]
        want, want_draws, want_exhausted, _ = per_draw_reference(
            case, net, [rngs[k] for k in index], budgets)
        spent = np.flatnonzero(ids[:, 0] < 0)
        exhausted = int(spent[0]) if len(spent) else None
        assert exhausted == want_exhausted
        assert contingency._decode(net, sampler.out[ids[:len(want), 0]]
                                   ) == want
        assert draws[:len(want_draws), 0].tolist() == want_draws
        if exhausted is not None:
            usable = [k for k in usable if k not in index[exhausted + 1:]]


@pytest.mark.parametrize("which", sorted(ROUND_CASES))
def test_sample_state_is_the_per_draw_reference(which):
    """Call after call, at budgets from 1 draw up, sample_state gives the
    state and draw count of the per-draw reference on a copy of its
    Generator, and leaves the Generator in the copy's state; where the
    reference's budget runs out, it raises ResampleBudgetError. The ring's
    outage codes take one word, the wide ring's two."""
    case = ROUND_CASES[which]
    net = net_of(case)
    rng = substream(11, DOMAIN_MCS, 1, 0)
    ref = copy.deepcopy(rng)
    found = spent = 0
    for budget in [1, 2, 3, 5, 1000] * 8:
        want, (want_draws,), exhausted, _ = per_draw_reference(
            case, net, [ref], [budget])
        if exhausted is None:
            state = sample_state(case, net, rng, max_draws=budget)
            assert ((state.lines_out, state.gens_out), state.draws) == (
                want[0], want_draws)
            found += 1
        else:
            with pytest.raises(ResampleBudgetError,
                               match=f"^no feasible outage state within "
                                     f"{budget} draws$"):
                sample_state(case, net, rng, max_draws=budget)
            spent += 1
        assert rng.bit_generator.state == ref.bit_generator.state
    assert found and spent


def ahead_round(ahead, n=6):
    """One call of the draw-ahead test: ``ahead``, a budget per stream,
    and how many of its states each stream uses."""
    return st.tuples(st.just(ahead),
                     st.lists(st.integers(0, 20), min_size=n, max_size=n),
                     st.lists(st.integers(0, ahead), min_size=n, max_size=n))


@pytest.mark.numpy_floor
@settings(max_examples=40, deadline=None)
@given(which=st.sampled_from(sorted(ROUND_CASES)),
       seed=st.integers(0, 2**32 - 1),
       rounds=st.lists(st.integers(1, 9).flatmap(ahead_round), min_size=1,
                       max_size=3))
# Two states ahead within three draws: the first pass draws two rows per
# stream, and the second one row for each of the five streams still
# short, so the numbering of accepted rows runs on a one-row pass.
@example(which="ring", seed=0, rounds=[(2, [3] * 6, [1, 2, 0, 2, 1, 2])])
def test_round_sampler_draws_ahead_as_one_state_rounds(which, seed, rounds):
    """Drawing ``ahead`` states per stream in one call gives each stream
    the states and running draw counts that ``ahead`` one-state rounds of
    the per-draw loop give, within budgets of 0 to 20 draws, and -1 and
    the whole budget past it. Drawn again from its draws up to any number
    of its states, a stream goes on where the loop goes on after drawing
    just those."""
    case = ROUND_CASES[which]
    net = net_of(case)
    n = 6
    streams = substreams(seed, (DOMAIN_MCS,), np.ones(n), np.arange(n))
    rngs = [substream(seed, DOMAIN_MCS, 1, slot) for slot in range(n)]
    sampler = RoundSampler(case, net, streams)
    at = np.zeros(n, dtype=np.int64)
    for ahead, budgets, uses in rounds:
        ids, draws = sampler.draw(np.arange(n), at, np.array(budgets), ahead)
        assert ids.shape == draws.shape == (n, ahead)
        spent = []
        for k, (rng, budget) in enumerate(zip(rngs, budgets)):
            ref = copy.deepcopy(rng)
            made, want, want_draws = 0, [], []
            for j in range(ahead):
                state, (d,), exhausted, _ = per_draw_reference(
                    case, net, [ref], [budget - made])
                made += d
                want_draws.append(made)
                if exhausted is not None:
                    want_draws += [made] * (ahead - j - 1)
                    break
                want += state
                if j + 1 == uses[k]:
                    rng.bit_generator.state = ref.bit_generator.state
            assert contingency._decode(net, sampler.out[ids[k, :len(want)]]
                                       ) == want
            assert (ids[k, len(want):] == -1).all()
            assert draws[k].tolist() == want_draws
            if uses[k] > len(want):  # past the budget: all it drew
                rng.bit_generator.state = ref.bit_generator.state
            spent.append(draws[k, uses[k] - 1] if uses[k] else 0)
        at += spent


@pytest.mark.numpy_floor
@pytest.mark.parametrize("which", sorted(ROUND_CASES))
def test_round_sampler_gives_each_outage_code_one_id(which):
    """The sampler's table holds each drawn outage state once, under one
    id, with the answer of the one-state screen, on codes of one word and
    of two; every id a draw accepts is a feasible state's. Each call's
    first pass steps its STEP_ROWS rows and its redraws jump."""
    case = ROUND_CASES[which]
    net = net_of(case)
    n = STEP_ROWS
    sampler = RoundSampler(case, net, substreams(5, (DOMAIN_MCS,),
                                                 np.arange(n)))
    at = np.zeros(n, dtype=np.int64)
    for _ in range(3):
        ids, draws = sampler.draw(np.arange(n), at, np.full(n, 50))
        at += draws[:, 0]
        assert (ids >= 0).all()
        assert sampler.feasible[ids].all()
    assert len(np.unique(sampler.out, axis=0)) == len(sampler.out) > n // 10
    assert sampler.feasible.tolist() == [
        contingency._feasible(case, net, *state)
        for state in contingency._decode(net, sampler.out)]
    assert not sampler.feasible.all()


def union_find_islanded(case, net, lines_out, gens_out):
    """The island test the slow way: components of the in-service lines by
    union-find, then the buses that must share the slack bus's."""
    in_service = np.array([ln.id not in lines_out for ln in net.lines],
                          dtype=bool)
    label = connected_components(net, in_service)
    slack = label[net.bus_index[net.slack_bus]]
    needed = [b.id for b in case.buses if b.base_demand > 0] + [
        g.bus for k, g in enumerate(case.generators) if k not in gens_out]
    return any(label[net.bus_index[b]] != slack for b in needed)


SCREEN_CASES = {"toy": mcs_toy_case(), "bundled": load_case(BUNDLED)}


@pytest.mark.numpy_floor
@settings(max_examples=40, deadline=None)
@given(which=st.sampled_from(sorted(SCREEN_CASES)), data=st.data())
def test_batched_screen_matches_a_per_state_union_find(which, data):
    """On random outage sets of a random plan, with every line out and
    every generator out among them, the batched screen gives each state
    the answer a per-state union-find gives, and so do its one-state
    views."""
    case = SCREEN_CASES[which]
    net = apply_plan(case, Chromosome.from_ints(data.draw(st.lists(
        st.integers(0, 1), min_size=len(case.candidate_lines),
        max_size=len(case.candidate_lines)))))
    units = range(len(case.generators))
    states = data.draw(st.lists(st.tuples(
        st.frozensets(st.sampled_from(net.line_ids)),
        st.frozensets(st.sampled_from(units))), max_size=30))
    states += [(frozenset(net.line_ids), frozenset()),
               (frozenset(), frozenset(units))]
    out = np.array([[lid in lines for lid in net.line_ids]
                    + [k in gens for k in units] for lines, gens in states],
                   dtype=bool)
    got = screen(case, net, out)
    islanded = [union_find_islanded(case, net, *state) for state in states]
    want = [len(gens) <= len(units) - case.min_online_generators and not cut
            for (_, gens), cut in zip(states, islanded)]
    assert got.tolist() == want
    assert islanded[-2] and not want[-1]  # no line; too few units online
    assert [contingency._feasible(case, net, *state)
            for state in states] == want
    assert [is_islanded(case, net, *state) for state in states] == islanded


def test_islanding_on_bundled_case():
    """Cutting every corridor into bus 4 strands its 110 MW load."""
    case = load_case(BUNDLED)
    bits = [0] * 14
    bits[2] = bits[3] = 1  # tie generator buses 6 and 7 in via bus 1
    net = apply_plan(case, Chromosome.from_ints(bits))
    assert not is_islanded(case, net, frozenset([4]))
    assert is_islanded(case, net, frozenset([4, 6, 7]))


def test_islanding_sees_offline_generators_as_harmless():
    """A stranded bus matters only while it hosts demand or an online
    generator."""
    case = build_case(
        [0, 50, 0],
        [line(1, 1, 2), line(2, 2, 3)],
        [gen(1, 60.0), gen(3, 60.0)],
    )
    net = net_of(case)
    assert is_islanded(case, net, frozenset([2]), frozenset())
    assert not is_islanded(case, net, frozenset([2]), frozenset([1]))


def test_tree_edge_removal_matches_reachability_check():
    """is_islanded agrees with a brute-force reachability test on every
    single-line outage of a random network."""
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(3, 7))
        edges = [(k, int(rng.integers(1, k))) for k in range(2, n + 1)]
        for _ in range(int(rng.integers(0, 3))):
            a, b = rng.choice(n, size=2, replace=False) + 1
            edges.append((int(a), int(b)))
        demands = [0.0] + [float(rng.integers(0, 2) * 10) for _ in range(n - 1)]
        case = build_case(
            demands,
            [line(i + 1, f, t) for i, (f, t) in enumerate(edges)],
            [gen(1, 500.0), gen(1, 500.0)],
        )
        net = net_of(case)
        for ln in net.lines:
            adj = {b.id: set() for b in case.buses}
            for other in net.lines:
                if other.id != ln.id:
                    adj[other.from_bus].add(other.to_bus)
                    adj[other.to_bus].add(other.from_bus)
            seen, stack = {1}, [1]
            while stack:
                for nxt in adj[stack.pop()]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            expected = any(
                b.id not in seen
                for b in case.buses
                if b.base_demand > 0 or b.id == 1
            )
            assert is_islanded(case, net, frozenset([ln.id])) == expected


def k4_case(min_online=2):
    edges = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    return build_case(
        [0, 30, 30, 30],
        [line(i + 1, f, t, for_=0.05) for i, (f, t) in enumerate(edges)],
        [gen(b, 200.0) for b in (1, 2, 3, 4)],
        min_online=min_online,
    )


def test_single_contingency_count_and_weights():
    """On a 2-edge-connected network nothing islands, so order 1 yields
    L + G states."""
    case = k4_case()
    net = net_of(case)
    states = enumerate_deterministic(case, net, 1)
    assert len(states) == 6 + 4
    assert all(len(s.lines_out) + len(s.gens_out) == 1 for s in states)


def test_double_contingency_is_pairs_only():
    """Order 2 enumerates C(L+G, 2) unordered pairs, not singles."""
    case = k4_case()
    net = net_of(case)
    states = enumerate_deterministic(case, net, 2)
    assert len(states) == comb(6 + 4, 2)
    assert all(len(s.lines_out) + len(s.gens_out) == 2 for s in states)


def test_enumeration_respects_min_online_floor():
    case = k4_case(min_online=4)
    net = net_of(case)
    singles = enumerate_deterministic(case, net, 1)
    assert len(singles) == 6  # the four single-generator outages drop out
    doubles = enumerate_deterministic(case, net, 2)
    assert len(doubles) == comb(6, 2)


def test_enumeration_rejects_bad_order():
    case = k4_case()
    with pytest.raises(ValueError):
        enumerate_deterministic(case, net_of(case), 3)
