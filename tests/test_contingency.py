"""Tests for outage-state sampling, islanding, and enumeration."""

from __future__ import annotations

from math import comb

import numpy as np
import pytest

from gridtep.contingency import (
    OutageState,
    SamplerConfig,
    enumerate_deterministic,
    is_islanded,
    sample_state,
)
from gridtep.errors import ResampleBudgetError
from gridtep.network import Chromosome, apply_plan, load_case
from gridtep.rng import substream

from _toys import build_case, gen, line

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
    rng = substream(1234, 1)
    n = 20000
    counts = np.zeros(3)
    for _ in range(n):
        state = sample_state(case, net, rng)
        for lid in state.lines_out:
            counts[lid - 1] += 1
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
        sample_state(case, net, substream(0, 1), SamplerConfig(max_resamples=50))


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
    single-line outage of a random network, both when it computes the
    answer and when it reads it back from the connectivity memo."""
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
            for _ in range(2):  # the second call is a memo hit
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
    L + G equally weighted states."""
    case = k4_case()
    net = net_of(case)
    states = enumerate_deterministic(case, net, 1)
    assert len(states) == 6 + 4
    assert all(len(s.lines_out) + len(s.gens_out) == 1 for s in states)
    assert sum(s.weight for s in states) == pytest.approx(1.0)


def test_double_contingency_is_pairs_only():
    """Order 2 enumerates C(L+G, 2) unordered pairs, not singles."""
    case = k4_case()
    net = net_of(case)
    states = enumerate_deterministic(case, net, 2)
    assert len(states) == comb(6 + 4, 2)
    assert all(len(s.lines_out) + len(s.gens_out) == 2 for s in states)
    assert sum(s.weight for s in states) == pytest.approx(1.0)


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
