"""Tests for the DC load-flow solver."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from gridtep.dcflow import (
    connected_components,
    flow_residual,
    solve,
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


def test_outage_solves_do_not_share_connectivity_between_networks():
    """Two networks with the same line ids but different endpoints, and a
    re-rated copy of one, each solve every outage set exactly as a freshly
    built network does, however many outage sets the others solved first."""
    ring = [(1, 2, 0.1), (2, 3, 0.2), (3, 4, 0.1), (4, 1, 0.4)]
    chorded = [(1, 3, 0.1), (3, 2, 0.2), (2, 4, 0.1), (4, 1, 0.4)]
    p = [30.0, -20.0, 0.0, -10.0]  # bus 3 is a zero-injection transit bus

    def outcome(net, lines_out):
        try:
            return solve_with_outages(net, p, lines_out).flows.tolist()
        except NetworkDisconnectedError:
            return "disconnected"

    a, b = bare_net(4, ring), bare_net(4, chorded)
    rerated = a.with_capacities([5.0] * 4)
    outage_sets = [frozenset(c) for k in range(3)
                   for c in itertools.combinations(range(1, 5), k)]
    for lines_out in outage_sets:
        for net, edges in ((a, ring), (b, chorded), (rerated, ring)):
            assert outcome(net, lines_out) == outcome(bare_net(4, edges),
                                                      lines_out)
    assert len({outcome(a, s) == outcome(b, s) for s in outage_sets}) == 2
