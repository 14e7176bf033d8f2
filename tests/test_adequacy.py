"""Tests for the nodal adequacy kernel."""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gridtep.adequacy import (
    NodalBalance,
    balance_from_diffs,
    flow_terms,
    kernel,
    line_overloads,
    nodal_balance,
    nodal_diff,
    screen_limits,
)
from gridtep.dcflow import solve

from _toys import (
    adequacy_reference,
    bare_net,
    random_balanced_parts,
    random_connected_net,
)


def test_diff_vector_splits_into_dns_and_gns():
    """A mixed DIFF vector classifies negative entries as stranded
    generation and positive ones as unserved demand."""
    balance = balance_from_diffs([-25.0, 0.0, 9.02, 15.83, 0.0],
                                 demand=[0.0, 0.0, 30.0, 40.0, 0.0],
                                 generation=[70.0, 0.0, 0.0, 0.0, 0.0])
    assert balance.gns[0] == 25.0
    assert balance.dns[2] == 9.02
    assert balance.dns[3] == 15.83
    assert abs(balance.total_dns - 24.85) <= 0.02
    assert balance.total_gns == 25.0
    assert balance.total_dns == balance.dns.sum()
    assert balance.valid


def test_rating_limits_delivery_into_demand_bus():
    """60 MW flowing toward a 50 MW load over a 40 MW line leaves 10 MW
    unserved and bottles 20 MW of generation."""
    net = bare_net(2, [(1, 2, 0.1)])
    balance = nodal_balance(net, np.array([60.0]), np.array([0.0, 50.0]),
                            np.array([60.0, 0.0]), capacities=np.array([40.0]))
    np.testing.assert_allclose(balance.dns, [0.0, 10.0])
    np.testing.assert_allclose(balance.gns, [20.0, 0.0])


def test_solved_state_with_ample_ratings_balances_exactly():
    """With ratings out of the way, every bus's DIFF sits at solver noise."""
    rng = np.random.default_rng(11)
    for _ in range(50):
        net = random_connected_net(rng)
        demand, generation = random_balanced_parts(rng, net.n_buses)
        sol = solve(net, generation - demand)
        diff = nodal_diff(net, sol.flows, demand, generation,
                          capacities=np.full(len(net.lines), 1e12))
        np.testing.assert_allclose(diff, 0.0, atol=1e-6)


def test_system_dns_equals_gns_for_balanced_totals():
    """Line terms cancel in the system sums, so total DNS = total GNS for
    any flow vector and any ratings whenever demand and generation totals
    match; checked on stacked rows, the way plans are priced."""
    rng = np.random.default_rng(23)
    for _ in range(200):
        net = random_connected_net(rng)
        demand, generation = random_balanced_parts(rng, net.n_buses)
        flows = rng.uniform(-120, 120, size=(3, len(net.lines)))
        caps = rng.uniform(0, 100, size=len(net.lines))
        balance = nodal_balance(net, flows, np.tile(demand, (3, 1)),
                                np.tile(generation, (3, 1)), capacities=caps)
        assert np.all(np.abs(balance.total_dns - balance.total_gns)
                      <= 1e-6 * demand.sum())


def test_wheeling_loss_sums_strict_overloads():
    """Overloads of 27.85 and 15.83 MW add up to exactly 43.68 MW."""
    flows = np.array([27.85, 15.83])
    caps = np.zeros(2)
    congested, wheeling = line_overloads(flows, caps)
    assert wheeling == 43.68
    np.testing.assert_array_equal(congested, [True, True])


def test_flow_at_rating_is_not_congested():
    flows = np.array([40.0, -25.0])
    caps = np.array([40.0, 25.0])
    congested, wheeling = line_overloads(flows, caps)
    assert wheeling == 0.0
    np.testing.assert_array_equal(congested, [False, False])


def test_wheeling_never_increases_with_capacity():
    rng = np.random.default_rng(5)
    for _ in range(100):
        flows = rng.uniform(-80, 80, size=6)
        caps = rng.uniform(0, 60, size=6)
        grown = caps.copy()
        grown[rng.integers(0, 6)] += rng.uniform(0, 40)
        assert line_overloads(flows, grown)[1] \
            <= line_overloads(flows, caps)[1] + 1e-12


def test_receiving_bus_dns_never_rises_with_its_line_capacity():
    """Growing one line's rating delivers (weakly) more into the bus the
    flow points at, so that bus's DNS cannot rise; symmetrically the
    sending bus's GNS cannot rise."""
    rng = np.random.default_rng(17)
    for _ in range(100):
        net = random_connected_net(rng)
        demand, generation = random_balanced_parts(rng, net.n_buses)
        flows = rng.uniform(-90, 90, size=len(net.lines))
        caps = rng.uniform(0, 70, size=len(net.lines))
        k = int(rng.integers(0, len(net.lines)))
        grown = caps.copy()
        grown[k] += rng.uniform(0, 50)
        before = nodal_balance(net, flows, demand, generation, capacities=caps)
        after = nodal_balance(net, flows, demand, generation, capacities=grown)
        recv = net.to_idx[k] if flows[k] >= 0 else net.from_idx[k]
        send = net.from_idx[k] if flows[k] >= 0 else net.to_idx[k]
        assert after.dns[recv] <= before.dns[recv] + 1e-9
        assert after.gns[send] <= before.gns[send] + 1e-9


def test_validity_screens():
    demand = np.array([0.0, 50.0])
    generation = np.array([60.0, 0.0])
    assert balance_from_diffs([-20.0, 10.0], demand, generation).valid
    # A demand bus losing everything is pathological.
    assert not balance_from_diffs([-50.0, 50.0], demand, generation).valid
    # So is a generator bus bottling its entire output.
    assert not balance_from_diffs([-60.0, 40.0], demand, generation).valid


def test_validity_tolerates_transit_artifacts_but_not_system_blowups():
    demand = np.array([0.0, 50.0, 0.0])
    generation = np.array([50.0, 0.0, 0.0])
    # Truncation noise parked at a transit bus is tolerated...
    assert balance_from_diffs([0.0, 5.0, 3.0], demand, generation).valid
    # ...until the system total reaches the total demand.
    assert not balance_from_diffs([0.0, -10.0, 60.0], demand,
                                  generation).valid


def test_validity_allows_all_zero_case():
    zeros = np.zeros(2)
    assert balance_from_diffs(zeros, zeros, zeros).valid


# Quarter-MW values keep every sum exact in float64, so kernel and
# reference must agree bit for bit, exact ties (flow at rating, DNS equal
# to demand) included.
QUARTERS = st.integers(-600, 600).map(lambda q: q / 4)
NONNEGATIVE_QUARTERS = st.integers(0, 400).map(lambda q: q / 4)


@st.composite
def kernel_rows(draw):
    """A random connected network, one to five stacked rows of its
    flows, demand and generation, and one rating per line."""
    net = random_connected_net(np.random.default_rng(
        draw(st.integers(0, 2**32 - 1))))
    n_lines, n_buses = len(net.lines), net.n_buses
    rows = draw(st.integers(1, 5))

    def block(values, width):
        return np.array(draw(st.lists(
            st.lists(values, min_size=width, max_size=width),
            min_size=rows, max_size=rows)))

    caps = draw(st.lists(NONNEGATIVE_QUARTERS, min_size=n_lines,
                         max_size=n_lines))
    return (net, block(QUARTERS, n_lines),
            block(NONNEGATIVE_QUARTERS, n_buses),
            block(NONNEGATIVE_QUARTERS, n_buses), np.array(caps))


# Every tie the validity screen must keep, on the path 1 -> 2 -> 3 rated
# 30 MW per line, one row each, each failing on at most one check:
# bus 3's DNS equals its demand; bus 1's GNS equals its generation; no
# demand, no generation and no flow (valid); no demand, no generation and
# 5 MW moved (positive total DNS against zero demand); no generation and
# total DNS equal to total demand; no demand and total GNS equal to total
# generation, with no bus bottling all of its own.
TIES = (bare_net(3, [(1, 2, 0.1), (2, 3, 0.1)]),
        np.array([[30.0, 0.0], [0.0, 20.0], [0.0, 0.0], [5.0, 0.0],
                  [0.0, 10.0], [5.0, 10.0]]),
        np.array([[0.0, 10.0, 20.0], [0.0, 0.0, 20.0], [0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0], [0.0, 0.0, 10.0], [0.0, 0.0, 0.0]]),
        np.array([[40.0, 0.0, 0.0], [20.0, 20.0, 0.0], [0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [10.0, 10.0, 0.0]]),
        np.array([30.0, 30.0]))


@pytest.mark.numpy_floor
@settings(max_examples=150, deadline=None)
@given(case=kernel_rows())
@example(case=TIES)
def test_kernel_rows_match_the_per_line_loop_reference(case):
    """The kernel on k stacked rows, and on each row alone, gives what a
    plain loop over lines and buses gives for DIFF, DNS, GNS, validity,
    congestion and wheeling loss."""
    net, flows, demand, generation, caps = case
    stacked = nodal_balance(net, flows, demand, generation, caps)
    congested, wheeling = line_overloads(flows, caps)
    for r in range(len(flows)):
        want = tuple(adequacy_reference(net, flows[r], demand[r],
                                        generation[r], caps))
        one = nodal_balance(net, flows[r], demand[r], generation[r], caps)
        one_congested, one_wheeling = line_overloads(flows[r], caps)
        assert want == summary(one, one_congested, one_wheeling)
        row = NodalBalance(*(getattr(stacked, f.name)[r]
                             for f in fields(stacked)))
        assert want == summary(row, congested[r], wheeling[r])


def test_tie_rows_reach_their_limits():
    """The tie rows above are what they claim: each fails on its tie, and
    the row without demand, generation or flow passes."""
    net, flows, demand, generation, caps = TIES
    balance = nodal_balance(net, flows, demand, generation, caps)
    assert balance.valid.tolist() == [False, False, True, False, False,
                                      False]
    assert balance.dns[0, 2] == demand[0, 2]
    assert balance.gns[1, 0] == generation[1, 0]
    assert balance.total_dns[4] == demand[4].sum()
    assert balance.total_gns[5] == generation[5].sum()
    assert np.all(balance.gns[5, :2] < generation[5, :2])


def summary(balance, congested, wheeling):
    """One state's kernel output in the reference's field order."""
    return (balance.diff.tolist(), balance.dns.tolist(), balance.gns.tolist(),
            float(balance.total_dns), float(balance.total_gns),
            bool(balance.valid), congested.tolist(), float(wheeling))


def stepwise_kernel(net, flows, demand, generation, caps):
    """The kernel's figures by the formulas it replaced, step by step:
    (valid, total DNS, total GNS, wheeling loss, congested) per row, the
    wheeling loss as the sum of the positive overloads."""
    abs_flows = np.abs(flows)
    delivered = np.minimum(abs_flows, caps)
    pos = np.where(flows >= 0, delivered, 0.0)
    neg = np.where(flows < 0, delivered, 0.0)
    a_from, a_to = net.incidence
    inflow = pos @ a_to + neg @ a_from
    outflow = pos @ a_from + neg @ a_to
    diff = demand - inflow + outflow - generation
    dns_tot = np.maximum(diff, 0.0).sum(axis=-1)
    gns_tot = np.maximum(-diff, 0.0).sum(axis=-1)
    d_tot, g_tot = demand.sum(axis=-1), generation.sum(axis=-1)
    tiny = math.ulp(0.0)
    bad = ((diff >= np.where(demand > 0, demand, np.inf))
           | (diff <= np.where(generation > 0, -generation, -np.inf))
           ).any(axis=-1)
    bad |= dns_tot >= np.where(d_tot == 0, tiny, d_tot)
    bad |= gns_tot >= np.where(g_tot == 0, tiny, g_tot)
    excess = abs_flows - caps
    congested = excess > 0
    wheeling = np.where(congested, excess, 0.0).sum(axis=-1)
    return ~bad, dns_tot, gns_tot, wheeling, congested


@pytest.mark.numpy_floor
@pytest.mark.parametrize("rows", [2, 300])
@pytest.mark.parametrize("seed", range(4))
def test_kernel_is_the_stepwise_formulas_bit_for_bit(rows, seed):
    """One kernel pass over stacked rows' terms gives every figure of
    the step-by-step formulas bit for bit, its wheeling loss included
    with the sign of each zero: flows at their rating (ties), zero
    ratings, buses with no demand or no generation, and rows with no
    demand or no generation at all. ``nodal_balance`` and
    ``line_overloads`` agree with it."""
    rng = np.random.default_rng([seed, rows])
    net = random_connected_net(rng, max_buses=9)
    n_lines, n_buses = len(net.lines), net.n_buses
    caps = rng.uniform(0.0, 80.0, n_lines).round(1)
    caps[rng.random(n_lines) < 0.25] = 0.0
    flows = rng.normal(0.0, 60.0, (rows, n_lines))
    ties = rng.random((rows, n_lines)) < 0.2
    flows[ties] = np.where(rng.random(ties.sum()) < 0.5, 1.0, -1.0) \
        * np.broadcast_to(caps, flows.shape)[ties]
    demand = rng.uniform(0.0, 50.0, (rows, n_buses))
    generation = rng.uniform(0.0, 70.0, (rows, n_buses))
    demand[:, rng.random(n_buses) < 0.4] = 0.0
    generation[:, rng.random(n_buses) < 0.4] = 0.0
    demand[rows // 2] = 0.0
    generation[-1] = 0.0
    assert (np.abs(flows) == caps).any() and (caps == 0).any()

    got = kernel(net, caps, *flow_terms(flows), demand, generation,
                 *screen_limits(demand, generation))
    want = stepwise_kernel(net, flows, demand, generation, caps)
    for name, a, b in zip(("valid", "dns", "gns", "wheeling", "congested"),
                          got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert np.array_equal(np.signbit(got[3]), np.signbit(want[3]))
    assert not np.signbit(got[3]).any()
    balance = nodal_balance(net, flows, demand, generation, caps)
    congested, wheeling = line_overloads(flows, caps)
    for a, b in zip(got, (balance.valid, balance.total_dns,
                          balance.total_gns, wheeling, congested)):
        assert np.array_equal(a, b)
    if rows > 2:  # the screen both keeps and drops rows
        assert got[0].any() and not got[0].all()
