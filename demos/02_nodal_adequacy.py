"""Nodal adequacy accounting: DNS, GNS, and wheeling loss.

A solved DC flow says how much power *wants* to move over each line;
line ratings decide how much actually arrives. For each bus s the
adequacy balance compares demand with deliverable in/out flows and
generation:

    DIFF_s = D_s - sum(min(|f|, cap) into s) + sum(min(|f|, cap) out of s) - G_s

A positive DIFF is demand not served (DNS): the bus wants more power
than its lines can deliver. A negative DIFF is generation not served
(GNS): a generator whose output cannot leave the bus. Because every
line's truncated flow leaves one bus and enters another, the system
totals always satisfy DNS = GNS when generation matches demand — energy
bottled up at one end is energy missing at the other.

Flows above a line's rating also accrue wheeling loss (WL), the total
overload in MW, which the planner prices separately. These are the same
kernel functions the planner runs on every outage state it prices, here
called on a single state.

Run:  python demos/02_nodal_adequacy.py
"""

from __future__ import annotations

import numpy as np

from gridtep import (
    ActiveNetwork,
    Bus,
    LineSpec,
    line_overloads,
    nodal_balance,
    solve,
)


def build_corridor() -> ActiveNetwork:
    """Generator bus feeding a load bus over two unequal parallel lines."""
    buses = (
        Bus(id=1, base_demand=0.0, is_slack=True),
        Bus(id=2, base_demand=90.0, is_slack=False),
    )
    lines = (
        LineSpec(id=1, from_bus=1, to_bus=2, length_km=15.0, reactance=0.1,
                 forced_outage_rate=0.02, status="existing",
                 base_capacity_mw=50.0),
        LineSpec(id=2, from_bus=1, to_bus=2, length_km=20.0, reactance=0.3,
                 forced_outage_rate=0.02, status="existing",
                 base_capacity_mw=20.0),
    )
    return ActiveNetwork(buses=buses, lines=lines)


def main() -> None:
    net = build_corridor()
    demand = np.array([0.0, 90.0])
    generation = np.array([90.0, 0.0])

    sol = solve(net, generation - demand)
    print("two parallel lines, 90 MW to move, ratings 50 and 20 MW")
    ratings = net.base_capacities
    for ln, f, cap in zip(net.lines, sol.flows, ratings):
        state = "OVER" if abs(f) > cap else "ok"
        print(f"  line {ln.id} (x={ln.reactance}): flow {f:6.2f} MW,"
              f" rating {cap:5.1f} MW  [{state}]")

    balance = nodal_balance(net, sol.flows, demand, generation, ratings)
    print("\nper-bus adequacy balance:")
    for k, b in enumerate(net.buses):
        print(f"  bus {b.id}: DIFF {balance.diff[k]:7.2f}  ->"
              f" DNS {balance.dns[k]:6.2f}  GNS {balance.gns[k]:6.2f}")
    print(f"  system DNS = {balance.total_dns:.2f} MW,"
          f" GNS = {balance.total_gns:.2f} MW (always equal when"
          " generation matches demand)")

    print(f"  state passes the validity screen: {bool(balance.valid)}")
    _, wl = line_overloads(sol.flows, ratings)
    print(f"  wheeling loss (total overload) = {wl:.2f} MW")

    # Growing the weak line's rating converts unserved demand back into
    # delivered power; this is exactly the lever capacity sizing pulls.
    for cap2 in (20.0, 45.0, 70.0):
        caps = np.array([50.0, cap2])
        b = nodal_balance(net, sol.flows, demand, generation, capacities=caps)
        _, wl = line_overloads(sol.flows, caps)
        print(f"  rating of line 2 at {cap2:5.1f} MW -> system DNS"
              f" {b.total_dns:6.2f} MW, WL {wl:6.2f}")


if __name__ == "__main__":
    main()
