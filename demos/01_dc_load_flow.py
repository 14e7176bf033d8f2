"""DC load flow on a small meshed network.

The DC approximation linearizes the AC power-flow equations: voltage
magnitudes are fixed at 1 p.u., losses are neglected, and the active
power on a line reduces to the bus-angle difference divided by the line
reactance. Solving a network then means assembling the susceptance
Laplacian B (row/column per bus, -1/x off-diagonal per line), deleting
the slack bus row and column, and solving one dense linear system:

    B' theta' = P'        f_ij = (theta_i - theta_j) / x_ij

This demo solves a four-bus ring, verifies nodal power conservation,
shows the superposition property that makes DC flows so convenient, and
demonstrates how an outage re-routes power around the ring.

Run:  python demos/01_dc_load_flow.py
"""

from __future__ import annotations

import numpy as np

from gridtep import (
    ActiveNetwork,
    Bus,
    LineSpec,
    flow_residual,
    solve,
    solve_with_outages,
)


def build_ring() -> ActiveNetwork:
    buses = tuple(
        Bus(id=k, base_demand=0.0, is_slack=(k == 1)) for k in range(1, 5)
    )
    data = [(1, 1, 2, 0.1), (2, 2, 3, 0.2), (3, 3, 4, 0.1), (4, 4, 1, 0.4)]
    lines = tuple(
        LineSpec(id=i, from_bus=f, to_bus=t, length_km=10.0, reactance=x,
                 forced_outage_rate=0.02, status="existing",
                 base_capacity_mw=100.0)
        for i, f, t, x in data
    )
    return ActiveNetwork(buses=buses, lines=lines)


def main() -> None:
    net = build_ring()
    injections = np.array([100.0, -30.0, -50.0, -20.0])

    print("four-bus ring, 100 MW injected at bus 1")
    print(f"  injections (MW): {injections}")

    sol = solve(net, injections)
    print("\nsolved flows (MW, positive = from -> to):")
    for ln, f in zip(net.lines, sol.flows):
        print(f"  line {ln.id} ({ln.from_bus}->{ln.to_bus}, x={ln.reactance}):"
              f" {f:8.2f}")
    print(f"  worst nodal imbalance: {flow_residual(net, sol):.2e} MW")

    # Superposition: flows are linear in the injections.
    half = solve(net, injections / 2).flows
    print("\nhalving every injection halves every flow:")
    print(f"  max |f(P)/2 - f(P/2)| = {np.abs(sol.flows / 2 - half).max():.2e}")

    # An outage forces the ring to serve bus 2 the long way round.
    out = solve_with_outages(net, injections, frozenset([1]))
    print("\nwith line 1 out, the same demand routes the long way:")
    for ln, before, after in zip(net.lines, sol.flows, out.flows):
        print(f"  line {ln.id}: {before:8.2f} -> {after:8.2f}")


if __name__ == "__main__":
    main()
