"""Tests for the DC load-flow solver."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridtep.dcflow import (
    connected_components,
    fill_slack_connected,
    flow_residual,
    slack_connected,
    solve,
    solve_rows,
    solve_with_outages,
)
from gridtep.errors import NetworkDisconnectedError, UnbalancedInjectionsError

from _toys import (
    RING4_FLOWS,
    RING4_INJECTIONS,
    bare_net,
    random_connected_net,
    ring4_net,
)


def test_two_bus_flow_equals_transfer():
    """Power injected at one end of a single line comes out of the other."""
    net = bare_net(2, [(1, 2, 0.25)])
    sol = solve(net, [50.0, -50.0])
    np.testing.assert_allclose(sol.flows, [50.0])
    assert flow_residual(net, sol) < 1e-9


def test_symmetric_triangle_splits_evenly():
    """Equal-reactance paths from source to sink carry equal shares."""
    net = bare_net(3, [(1, 2, 0.1), (1, 3, 0.1), (2, 3, 0.1)])
    sol = solve(net, [90.0, -45.0, -45.0])
    flows = dict(zip(((1, 2), (1, 3), (2, 3)), sol.flows))
    np.testing.assert_allclose(flows[(1, 2)], 45.0)
    np.testing.assert_allclose(flows[(1, 3)], 45.0)
    np.testing.assert_allclose(flows[(2, 3)], 0.0, atol=1e-9)


def test_ring_flows_match_loop_equation_oracle():
    """4-bus ring against flows frozen from an independent KCL+KVL
    (loop-equation) solution."""
    sol = solve(ring4_net(), RING4_INJECTIONS)
    np.testing.assert_allclose(sol.flows, RING4_FLOWS, atol=1e-9)


def test_parallel_lines_split_inversely_to_reactance():
    """Two parallel lines with reactances 0.1 and 0.3 carry a 3:1 split."""
    net = bare_net(2, [(1, 2, 0.1), (1, 2, 0.3)])
    sol = solve(net, [80.0, -80.0])
    np.testing.assert_allclose(sol.flows, [60.0, 20.0])


def test_random_networks_satisfy_power_conservation():
    """Residuals stay at numerical noise across random meshed networks."""
    rng = np.random.default_rng(42)
    for _ in range(200):
        net = random_connected_net(rng)
        p = rng.uniform(-100, 100, size=net.n_buses)
        p -= p.mean()
        sol = solve(net, p)
        assert flow_residual(net, sol) <= 1e-6


def test_solution_is_linear_in_injections():
    """Scaling and superposing injections scales and superposes flows."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        net = random_connected_net(rng)
        p1 = rng.uniform(-50, 50, size=net.n_buses)
        p1 -= p1.mean()
        p2 = rng.uniform(-50, 50, size=net.n_buses)
        p2 -= p2.mean()
        f1 = solve(net, p1).flows
        f2 = solve(net, p2).flows
        f_sum = solve(net, p1 + p2).flows
        f_scaled = solve(net, 2.5 * p1).flows
        np.testing.assert_allclose(f_sum, f1 + f2, atol=1e-9)
        np.testing.assert_allclose(f_scaled, 2.5 * f1, atol=1e-9)


def test_flows_ignore_line_ratings():
    """Ratings bind in the adequacy stage, not in the flow solution."""
    edges = [(1, 2, 0.1), (2, 3, 0.2), (1, 3, 0.4)]
    tight = bare_net(3, edges, caps=(1.0, 1.0, 1.0))
    loose = bare_net(3, edges, caps=(999.0, 999.0, 999.0))
    p = [70.0, -30.0, -40.0]
    np.testing.assert_allclose(solve(tight, p).flows, solve(loose, p).flows)


def test_unbalanced_injections_rejected():
    net = bare_net(2, [(1, 2, 0.1)])
    with pytest.raises(UnbalancedInjectionsError):
        solve(net, [50.0, -49.0])


def test_disconnected_network_rejected():
    net = bare_net(4, [(1, 2, 0.1), (3, 4, 0.1)])
    with pytest.raises(NetworkDisconnectedError):
        solve(net, [10.0, -10.0, 0.0, 0.0])


def test_outage_solve_zeroes_dead_component():
    """A dead line and the zero-injection bus behind it carry no flow."""
    net = bare_net(3, [(1, 2, 0.1), (2, 3, 0.2)])
    sol = solve_with_outages(net, [40.0, -40.0, 0.0], frozenset([2]))
    np.testing.assert_allclose(sol.flows, [40.0, 0.0])
    assert sol.angles[2] == 0.0


def test_outage_solve_matches_reduced_network():
    """Removing a line is the same as solving the network built without it."""
    full = bare_net(4, [(1, 2, 0.1), (2, 3, 0.2), (3, 4, 0.1), (4, 1, 0.4)])
    reduced = bare_net(4, [(1, 2, 0.1), (2, 3, 0.2), (3, 4, 0.1)])
    p = [60.0, -25.0, -20.0, -15.0]
    out = solve_with_outages(full, p, frozenset([4]))
    np.testing.assert_allclose(out.flows[:3], solve(reduced, p).flows)
    np.testing.assert_allclose(out.flows[3], 0.0)


def test_outage_solve_rejects_stranded_injection():
    net = bare_net(3, [(1, 2, 0.1), (2, 3, 0.2)])
    with pytest.raises(NetworkDisconnectedError):
        solve_with_outages(net, [40.0, -10.0, -30.0], frozenset([2]))


def test_connected_components_partition():
    net = bare_net(5, [(1, 2, 0.1), (2, 3, 0.1), (4, 5, 0.1)])
    comp = connected_components(net)
    assert comp[0] == comp[1] == comp[2]
    assert comp[3] == comp[4]
    assert comp[0] != comp[3]
    split = connected_components(net, np.array([True, False, True]))
    assert split[0] == split[1]
    assert split[1] != split[2]


def test_without_lines_only_the_slack_bus_reaches_the_slack():
    """Buses and no lines: the in-service mask is empty, and the
    union-find and the batched pass both leave the slack bus alone."""
    only_slack = [False, True, False]
    assert slack_connected(bare_net(3, [], slack=2),
                           frozenset()).tolist() == only_slack
    net = bare_net(3, [], slack=2)
    fill_slack_connected(net, [frozenset()])
    assert net.slack_connected_memo[frozenset()].tolist() == only_slack


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_sets=st.integers(1, 8))
def test_batched_slack_reachability_is_the_union_find_mask(seed, n_sets):
    """The masks fill_slack_connected memoizes for outage sets of 0-3
    lines, parallel lines included, are the buses connected_components
    puts in the slack bus's component; they are read-only, and
    slack_connected returns them."""
    rng = np.random.default_rng(seed)
    net = random_connected_net(rng)
    outages = []
    for _ in range(n_sets):
        k = int(rng.integers(0, min(3, len(net.lines)) + 1))
        outages.append(frozenset(
            int(x) for x in rng.choice(net.line_ids, size=k, replace=False)))
    fill_slack_connected(net, outages)
    slack = net.bus_index[net.slack_bus]
    for lines_out in outages:
        live = net.slack_connected_memo[lines_out]
        comp = connected_components(
            net, np.array([ln.id not in lines_out for ln in net.lines]))
        assert live.dtype == bool
        assert np.array_equal(live, comp == comp[slack])
        assert not live.flags.writeable
        assert slack_connected(net, lines_out) is live


def test_outage_solves_do_not_share_connectivity_between_networks():
    """Two networks with the same line ids but different endpoints, and a
    third with one's topology at other ratings, each solve every outage set
    exactly as a freshly built network does, however many outage sets the
    others solved first."""
    ring = [(1, 2, 0.1), (2, 3, 0.2), (3, 4, 0.1), (4, 1, 0.4)]
    chorded = [(1, 3, 0.1), (3, 2, 0.2), (2, 4, 0.1), (4, 1, 0.4)]
    p = [30.0, -20.0, 0.0, -10.0]  # bus 3 is a zero-injection transit bus

    def outcome(net, lines_out):
        try:
            return solve_with_outages(net, p, lines_out).flows.tolist()
        except NetworkDisconnectedError:
            return "disconnected"

    a, b = bare_net(4, ring), bare_net(4, chorded)
    rerated = bare_net(4, ring, caps=[5.0] * 4)
    outage_sets = [frozenset(c) for k in range(3)
                   for c in itertools.combinations(range(1, 5), k)]
    for lines_out in outage_sets:
        for net, edges in ((a, ring), (b, chorded), (rerated, ring)):
            assert outcome(net, lines_out) == outcome(bare_net(4, edges),
                                                      lines_out)
    assert len({outcome(a, s) == outcome(b, s) for s in outage_sets}) == 2


def per_state_reference(net, p, lines_out):
    """(angles, flows) by the per-state algorithm: a dense B summed with
    four ``np.add.at`` passes in line order, and one 1-D ``np.linalg.solve``
    on the buses tied to the slack."""
    live_bus = slack_connected(net, lines_out)
    in_service = np.array([ln.id not in lines_out for ln in net.lines])
    live_line = in_service & live_bus[net.from_idx] & live_bus[net.to_idx]
    i, j = net.from_idx[live_line], net.to_idx[live_line]
    w = net.susceptance[live_line]
    b = np.zeros((net.n_buses, net.n_buses))
    np.add.at(b, (i, i), w)
    np.add.at(b, (j, j), w)
    np.add.at(b, (i, j), -w)
    np.add.at(b, (j, i), -w)
    keep = live_bus.copy()
    keep[net.bus_index[net.slack_bus]] = False
    angles = np.zeros(net.n_buses)
    angles[keep] = np.linalg.solve(b[np.ix_(keep, keep)], p[keep])
    flows = np.zeros(len(net.lines))
    flows[live_line] = (angles[i] - angles[j]) * w
    return angles, flows


def random_rows(rng, net, n_rows):
    """Outage sets of 0-3 lines, and balanced injections that are zero on
    every bus the set cuts off from the slack."""
    outages, injections = [], []
    for _ in range(n_rows):
        k = int(rng.integers(0, min(3, len(net.lines)) + 1))
        lines_out = frozenset(
            int(x) for x in rng.choice(net.line_ids, size=k, replace=False))
        live = slack_connected(net, lines_out)
        p = np.where(live, rng.uniform(-100, 100, size=net.n_buses), 0.0)
        p[live] -= p[live].mean()
        outages.append(lines_out)
        injections.append(p)
    return np.array(injections), outages


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 8))
def test_stacked_rows_are_the_per_state_solves_bit_for_bit(seed, n_rows):
    """Every row of one stacked solve, stranded zero-injection buses
    included, has the angles and flows of its one-row solve and of the
    per-state algorithm, to the bit."""
    rng = np.random.default_rng(seed)
    net = random_connected_net(rng)
    p, outages = random_rows(rng, net, n_rows)
    sol = solve_rows(net, p, outages)
    for s, lines_out in enumerate(outages):
        one = solve_with_outages(net, p[s], lines_out)
        angles, flows = per_state_reference(net, p[s], lines_out)
        for got in (sol.angles[s], one.angles):
            assert np.array_equal(got, angles)
        for got in (sol.flows[s], one.flows):
            assert np.array_equal(got, flows)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(2, 8),
       data=st.data())
def test_splitting_a_batch_changes_no_row(seed, n_rows, data):
    rng = np.random.default_rng(seed)
    net = random_connected_net(rng)
    p, outages = random_rows(rng, net, n_rows)
    cut = data.draw(st.integers(1, n_rows - 1))
    whole = solve_rows(net, p, outages)
    head = solve_rows(net, p[:cut], outages[:cut])
    tail = solve_rows(net, p[cut:], outages[cut:])
    for field in ("angles", "flows"):
        assert np.array_equal(getattr(whole, field), np.concatenate(
            [getattr(head, field), getattr(tail, field)]))


def test_stacked_solve_with_a_dangling_bus_in_some_rows():
    """Rows that strand a zero-injection bus solve for fewer buses than
    the others in the same call; each keeps its one-row bits."""
    net = bare_net(4, [(1, 2, 0.1), (2, 3, 0.2), (3, 1, 0.3), (3, 4, 0.1)])
    p = np.array([[50.0, -20.0, -30.0, 0.0], [50.0, -20.0, -10.0, -20.0],
                  [40.0, -40.0, 0.0, 0.0]])
    outages = [frozenset([4]), frozenset(), frozenset([2, 4])]
    sol = solve_rows(net, p, outages)
    assert sol.angles[0, 3] == sol.flows[0, 3] == 0.0
    for s, lines_out in enumerate(outages):
        one = solve_with_outages(net, p[s], lines_out)
        assert np.array_equal(sol.angles[s], one.angles)
        assert np.array_equal(sol.flows[s], one.flows)


def test_stacked_solve_raises_the_first_failing_rows_error():
    """A row with an unbalanced or a stranded injection fails the batch
    with the error type and message its one-row solve raises; of two
    failing rows, the first one's error wins."""
    net = bare_net(3, [(1, 2, 0.1), (2, 3, 0.2)])
    good = [40.0, -40.0, 0.0]
    unbalanced = [50.0, -49.0, 0.0]
    stranded = [40.0, -10.0, -30.0]
    cut = frozenset([2])

    def failure(call):
        with pytest.raises((NetworkDisconnectedError,
                            UnbalancedInjectionsError)) as info:
            call()
        return type(info.value), str(info.value)

    for bad, lines_out in ((unbalanced, frozenset()), (stranded, cut)):
        alone = failure(lambda: solve_with_outages(net, bad, lines_out))
        for rows, outages in (
                ([bad], [lines_out]),
                ([good, bad, good], [cut, lines_out, frozenset()])):
            assert failure(lambda: solve_rows(net, rows, outages)) == alone
    first = failure(lambda: solve_with_outages(net, stranded, cut))
    assert first != failure(lambda: solve_with_outages(net, unbalanced,
                                                       frozenset()))
    assert failure(lambda: solve_rows(
        net, [good, stranded, unbalanced],
        [frozenset(), cut, frozenset()])) == first
