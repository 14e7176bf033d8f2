"""DC load flow.

Linearized power flow on a lossless network: bus angles solve
``B @ delta = P`` where B is the susceptance Laplacian (slack row and
column removed, slack angle pinned to zero) and P holds the net nodal
injections. Line flow is the angle difference across the line divided by
its reactance; positive flow runs from ``from_bus`` to ``to_bus``.

Flows depend only on topology, reactances, and injections — never on
line ratings — so one solve serves every capacity assignment of the same
topology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NetworkDisconnectedError, UnbalancedInjectionsError
from .network import ActiveNetwork, connected_components

BALANCE_TOL = 1e-6


@dataclass(frozen=True)
class FlowSolution:
    angles: np.ndarray  # radians, slack pinned to 0
    flows: np.ndarray  # MW, one per line, signed from->to
    injections: np.ndarray  # MW, the solved-for injections


def slack_connected(net: ActiveNetwork, lines_out: frozenset[int]) -> np.ndarray:
    """Bool per bus: True where the bus still reaches the slack bus once
    the given lines are removed.

    Memoized on the network instance by outage set, so the union-find runs
    once per distinct outage set however often the island screen and the
    load flow ask. The returned array is read-only.
    """
    memo = net.slack_connected_memo
    live = memo.get(lines_out)
    if live is None:
        in_service = np.array([ln.id not in lines_out for ln in net.lines])
        comp = connected_components(net, in_service)
        live = comp == comp[net.bus_index[net.slack_bus]]
        live.flags.writeable = False
        memo[lines_out] = live
    return live


def solve(net: ActiveNetwork, injections) -> FlowSolution:
    """Solve the DC load flow on the fully in-service network.

    Raises UnbalancedInjectionsError when the injections do not sum to
    zero and NetworkDisconnectedError when any bus is unreachable from
    the slack bus.
    """
    if not slack_connected(net, frozenset()).all():
        raise NetworkDisconnectedError(
            "network is disconnected: some bus is unreachable from the slack bus")
    return solve_with_outages(net, injections, frozenset())


def solve_with_outages(
    net: ActiveNetwork, injections, lines_out: frozenset[int]
) -> FlowSolution:
    """Solve with the given lines removed.

    Out-of-service lines carry zero flow. Buses cut off from the slack
    component are tolerated only when their injections are zero (their
    flows and angles are exactly zero); a disconnected bus with nonzero
    injection raises NetworkDisconnectedError.
    """
    p = np.asarray(injections, dtype=float)
    if p.shape != (net.n_buses,):
        raise ValueError(
            f"injections must have shape ({net.n_buses},), got {p.shape}")
    total = float(p.sum())
    if abs(total) > BALANCE_TOL:
        raise UnbalancedInjectionsError(
            f"injections sum to {total:.6g} MW, expected 0")

    live_bus = slack_connected(net, lines_out)
    if np.any(np.abs(p[~live_bus]) > BALANCE_TOL):
        raise NetworkDisconnectedError(
            "bus with nonzero injection is disconnected from the slack bus")
    in_service = np.array([ln.id not in lines_out for ln in net.lines])
    live_line = in_service & live_bus[net.from_idx] & live_bus[net.to_idx]

    n = net.n_buses
    b = np.zeros((n, n))
    i = net.from_idx[live_line]
    j = net.to_idx[live_line]
    w = net.susceptance[live_line]
    np.add.at(b, (i, i), w)
    np.add.at(b, (j, j), w)
    np.add.at(b, (i, j), -w)
    np.add.at(b, (j, i), -w)

    slack = net.bus_index[net.slack_bus]
    keep = live_bus.copy()
    keep[slack] = False
    b_red = b[np.ix_(keep, keep)]
    try:
        theta_red = np.linalg.solve(b_red, p[keep])
    except np.linalg.LinAlgError as exc:
        raise NetworkDisconnectedError(
            "network is disconnected: reduced susceptance matrix is singular"
        ) from exc
    # A factorization can succeed on a near-singular system; trust the
    # residual, not the factorization.
    if not np.all(np.isfinite(theta_red)) or (
        theta_red.size
        and np.max(np.abs(b_red @ theta_red - p[keep]))
        > 1e-6 * max(1.0, float(np.max(np.abs(p))))
    ):
        raise NetworkDisconnectedError(
            "network is disconnected: load flow residual did not converge")

    angles = np.zeros(n)
    angles[keep] = theta_red
    flows = np.zeros(len(net.lines))
    flows[live_line] = (angles[i] - angles[j]) * w
    return FlowSolution(angles=angles, flows=flows, injections=p.copy())


def flow_residual(net: ActiveNetwork, sol: FlowSolution) -> float:
    """Largest nodal power imbalance |injection - net outflow| over all
    buses. Should sit at numerical noise for a valid solution."""
    n = net.n_buses
    outflow = np.zeros(n)
    np.add.at(outflow, net.from_idx, sol.flows)
    np.add.at(outflow, net.to_idx, -sol.flows)
    return float(np.max(np.abs(sol.injections - outflow)))
