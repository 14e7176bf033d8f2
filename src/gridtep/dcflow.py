"""DC load flow.

Linearized power flow on a lossless network: bus angles solve
``B @ delta = P`` where B is the susceptance Laplacian (slack row and
column removed, slack angle pinned to zero) and P holds the net nodal
injections. Line flow is the angle difference across the line divided by
its reactance; positive flow runs from ``from_bus`` to ``to_bus``.

Flows depend only on topology, reactances, and injections — never on
line ratings — so one solve serves every capacity assignment of the same
topology.

``solve_rows`` solves a batch of outage states of one network at once, a
row per state: one stacked susceptance assembly, and one stacked
``np.linalg.solve`` per set of buses still tied to the slack. Each row
gets the bits its own solve would, whichever rows share the call;
``solve_with_outages`` is the one-row case.
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


def _in_service(net: ActiveNetwork, outages) -> np.ndarray:
    """Bool (sets, lines): False where a line is in the set's outages."""
    in_service = np.ones((len(outages), len(net.lines)), dtype=bool)
    position = net.line_position
    for s, lines_out in enumerate(outages):
        for line_id in lines_out:
            if line_id in position:
                in_service[s, position[line_id]] = False
    return in_service


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
        comp = connected_components(net, _in_service(net, [lines_out])[0])
        live = comp == comp[net.bus_index[net.slack_bus]]
        live.flags.writeable = False
        memo[lines_out] = live
    return live


def fill_slack_connected(net: ActiveNetwork, outages) -> None:
    """Fill ``slack_connected``'s memo for every listed outage set (line
    ids) not yet in it, in one vectorized pass.

    The outage sets are stacked as rows of in-service line masks, and
    reachability from the slack bus spreads over each row's lines one hop
    per step, for at most n_buses - 1 steps; memory grows with sets times
    lines. The masks are the union-find's, and read-only likewise.
    """
    memo = net.slack_connected_memo
    new = [lines_out for lines_out in dict.fromkeys(outages)
           if lines_out not in memo]
    if not new:
        return
    in_service = _in_service(net, new)
    a_from, a_to = net.incidence
    ends = a_from + a_to  # lines x buses: each line's two ends
    reach = np.zeros((len(new), net.n_buses), dtype=bool)
    reach[:, net.bus_index[net.slack_bus]] = True
    for _ in range(net.n_buses - 1):
        # An in-service line with a reached end reaches its other end.
        carried = (reach @ ends.T > 0) & in_service
        grown = reach | (carried @ ends > 0)
        if (grown == reach).all():
            break
        reach = grown
    reach.flags.writeable = False
    memo.update(zip(new, reach))


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
    sol = solve_rows(net, p[None], [lines_out])
    return FlowSolution(angles=sol.angles[0], flows=sol.flows[0],
                        injections=sol.injections[0])


def solve_rows(net: ActiveNetwork, injections, outages) -> FlowSolution:
    """Solve one or more outage states of one network at once.

    Row s of ``injections`` (rows, buses) is solved with the lines of
    ``outages[s]`` removed, as ``solve_with_outages`` solves it alone: its
    angles and flows are the same bits whichever rows share the call.
    ``outages`` is a sequence of line-id sets. The returned arrays gain a
    leading row axis. When rows fail, the first failing row's error is
    raised.
    """
    p = np.asarray(injections, dtype=float)
    if p.shape != (len(outages), net.n_buses):
        raise ValueError(
            f"injections must have shape ({len(outages)}, {net.n_buses}), "
            f"got {p.shape}")
    try:
        return _solve_rows(net, p, outages)
    except (NetworkDisconnectedError, UnbalancedInjectionsError):
        if len(p) == 1:
            raise
    # Solved one at a time, in order, the first failing row raises.
    sols = [_solve_rows(net, p[s:s + 1], outages[s:s + 1])
            for s in range(len(p))]
    return FlowSolution(*(np.concatenate([getattr(sol, f) for sol in sols])
                          for f in ("angles", "flows", "injections")))


def _solve_rows(net: ActiveNetwork, p: np.ndarray, outages) -> FlowSolution:
    totals = p.sum(axis=1)
    unbalanced = np.abs(totals) > BALANCE_TOL
    if unbalanced.any():
        raise UnbalancedInjectionsError(
            f"injections sum to {float(totals[unbalanced.argmax()]):.6g} MW, "
            "expected 0")
    live_bus = np.array([slack_connected(net, lines_out)
                         for lines_out in outages])
    size = np.abs(p)
    if not live_bus.all() and ((size > BALANCE_TOL) & ~live_bus).any():
        raise NetworkDisconnectedError(
            "bus with nonzero injection is disconnected from the slack bus")
    live_line = (live_bus[:, net.from_idx] & live_bus[:, net.to_idx]
                 & _in_service(net, outages))
    b = _susceptance_matrices(net, live_line)
    # A row's residual is judged against its largest injection.
    tol = 1e-6 * size.max(axis=1, initial=1.0)

    # Rows solve for their buses still tied to the slack, slack excluded.
    keep = live_bus
    keep[:, net.bus_index[net.slack_bus]] = False
    if len(keep) == 1 or (keep[1:] == keep[0]).all():
        angles = _angles(b, p, tol, keep[0].nonzero()[0])
    else:
        groups: dict[bytes, list[int]] = {}
        for s, mask in enumerate(keep):
            groups.setdefault(mask.tobytes(), []).append(s)
        angles = np.zeros_like(p)
        for rows in groups.values():
            angles[rows] = _angles(b[rows], p[rows], tol[rows],
                                   keep[rows[0]].nonzero()[0])
    flows = np.zeros(live_line.shape)
    np.multiply(angles[:, net.from_idx] - angles[:, net.to_idx],
                net.susceptance, out=flows, where=live_line)
    return FlowSolution(angles=angles, flows=flows, injections=p.copy())


def _susceptance_matrices(net: ActiveNetwork, live_line: np.ndarray
                          ) -> np.ndarray:
    """Susceptance Laplacian per row, over the row's live lines.

    ``bincount`` adds its terms in order: each row's from-bus diagonal
    terms, line by line, then the to-bus diagonal terms, then the two
    off-diagonal ones. So each entry sums its lines in line order, as four
    ``np.add.at`` passes over one row would, whatever the other rows. A
    dead line adds a signed zero, which changes no partial sum: each
    starts at +0.0, and a round-to-nearest sum is -0.0 only when both
    addends are.
    """
    rows, n2 = len(live_line), net.n_buses * net.n_buses
    offsets = np.arange(0, rows * n2, n2)[:, None]
    cells = net.laplacian_cells[:, None, :] + offsets
    terms = net.laplacian_terms[:, None, :] * live_line
    b = np.bincount(cells.ravel(), weights=terms.ravel(), minlength=rows * n2)
    return b.reshape(rows, net.n_buses, net.n_buses)


def _angles(b: np.ndarray, p: np.ndarray, tol: np.ndarray,
            buses: np.ndarray) -> np.ndarray:
    """Bus angles of rows that all solve for ``buses``; zero elsewhere.

    One stacked ``np.linalg.solve`` runs LAPACK's one-right-hand-side solve
    on each row, as for a single vector, so a row's bits do not depend on
    the stack.
    """
    angles = np.zeros(p.shape)
    if not buses.size:
        return angles
    b_red = b[:, buses[:, None], buses]
    # The right-hand side is passed as (rows, m, 1): NumPy >= 2.0 would
    # read a 2-D one as a single matrix, not as a stack of vectors.
    p_red = p[:, buses, None]
    try:
        theta = np.linalg.solve(b_red, p_red)
    except np.linalg.LinAlgError as exc:
        raise NetworkDisconnectedError(
            "network is disconnected: reduced susceptance matrix is singular"
        ) from exc
    # A factorization can succeed on a near-singular system; trust the
    # residual, not the factorization. A non-finite angle fails it too.
    if not (np.abs(b_red @ theta - p_red) <= tol[:, None, None]).all():
        raise NetworkDisconnectedError(
            "network is disconnected: load flow residual did not converge")
    angles[:, buses] = theta[:, :, 0]
    return angles


def flow_residual(net: ActiveNetwork, sol: FlowSolution) -> float:
    """Largest nodal power imbalance |injection - net outflow| over all
    buses. Should sit at numerical noise for a valid solution."""
    n = net.n_buses
    outflow = np.zeros(n)
    np.add.at(outflow, net.from_idx, sol.flows)
    np.add.at(outflow, net.to_idx, -sol.flows)
    return float(np.max(np.abs(sol.injections - outflow)))
