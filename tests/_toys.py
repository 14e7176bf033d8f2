"""Small hand-built cases and random-network generators shared by tests."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from gridtep import contingency
from gridtep.network import (
    ActiveNetwork,
    Bus,
    CostParameters,
    GeneratorSpec,
    LineSpec,
    LoadDurationCurve,
    NetworkCase,
)

FLAT_LDC = tuple([1.0] * 12)


def line(id_, f, t, *, x=0.1, cap=100.0, for_=0.05, length=10.0,
         status="existing"):
    return LineSpec(id=id_, from_bus=f, to_bus=t, length_km=length,
                    reactance=x, forced_outage_rate=for_, status=status,
                    base_capacity_mw=cap)


def gen(bus, cap, *, cost=1.0, for_=0.1, capital=0.0, rl=0.05, is_new=False):
    return GeneratorSpec(bus=bus, capacity_mw=cap, forced_outage_rate=for_,
                         capital_cost=capital, operating_cost=cost,
                         revenue_loss_rate=rl, is_new=is_new)


def build_case(demands, lines, generators, *, multipliers=FLAT_LDC,
               min_online=2, c_edns=0.2, c_egns=0.1, c_ewl=0.05,
               c_t2=0.002) -> NetworkCase:
    """Case from per-bus demands (bus 1 is the slack) and parts lists."""
    buses = tuple(
        Bus(id=i + 1, base_demand=float(d), is_slack=(i == 0))
        for i, d in enumerate(demands)
    )
    return NetworkCase(
        buses=buses,
        lines=tuple(lines),
        generators=tuple(generators),
        ldc=LoadDurationCurve(monthly_multipliers=tuple(multipliers)),
        costs=CostParameters(
            c_edns=(c_edns,) * 12,
            c_egns=(c_egns,) * 12,
            c_ewl=(c_ewl,) * 12,
            c_t2=c_t2,
        ),
        min_online_generators=min_online,
    )


def bare_net(n_buses, edges, *, slack=1, caps=None) -> ActiveNetwork:
    """ActiveNetwork straight from (from, to, reactance) triples."""
    buses = tuple(Bus(id=k + 1, base_demand=0.0, is_slack=(k + 1 == slack))
                  for k in range(n_buses))
    if caps is None:
        caps = [100.0] * len(edges)
    lines = tuple(
        line(i + 1, f, t, x=x, cap=c)
        for i, ((f, t, x), c) in enumerate(zip(edges, caps, strict=True))
    )
    return ActiveNetwork(buses=buses, lines=lines)


def random_connected_net(rng: np.random.Generator, max_buses=8) -> ActiveNetwork:
    """Random spanning tree plus extra edges; reactances in [0.05, 0.5)."""
    n = int(rng.integers(2, max_buses + 1))
    edges = []
    for k in range(2, n + 1):
        edges.append((k, int(rng.integers(1, k)), float(rng.uniform(0.05, 0.5))))
    for _ in range(int(rng.integers(0, n))):
        a, b = rng.choice(n, size=2, replace=False) + 1
        edges.append((int(a), int(b), float(rng.uniform(0.05, 0.5))))
    caps = rng.uniform(0.0, 80.0, size=len(edges))
    return bare_net(n, edges, caps=tuple(float(c) for c in caps))


def random_balanced_parts(rng: np.random.Generator, n_buses):
    """Nonnegative per-bus (demand, generation) with equal totals."""
    demand = rng.uniform(0.0, 100.0, size=n_buses)
    generation = rng.uniform(0.0, 100.0, size=n_buses)
    generation *= demand.sum() / generation.sum()
    return demand, generation


def ring4_net() -> ActiveNetwork:
    """The 4-bus ring used as the mesh-equation flow oracle."""
    return bare_net(4, [(1, 2, 0.1), (2, 3, 0.2), (3, 4, 0.1), (4, 1, 0.4)])


# Flows for ring4_net with injections [100, -30, -50, -20], frozen from an
# independent loop-equation (KCL + KVL) least-squares solution.
RING4_INJECTIONS = (100.0, -30.0, -50.0, -20.0)
RING4_FLOWS = (67.5, 37.5, -12.5, -32.5)


def per_draw_reference(case, net, rngs, budgets):
    """The round sampler the slow way: stream after stream, draw a row of
    ``Generator.random`` uniforms and screen its state until one passes;
    the first stream whose budget runs out ends the round. Returns the
    states, the draws per stream drawn, the exhausted position or None,
    and the rejections per screen."""
    n_lines = len(net.lines)
    rates = net.line_outage_rates + case.generator_outage_rates
    states, draws, rejected = [], [], {"island": 0, "online": 0}
    for rng, budget in zip(rngs, budgets):
        for draw in range(1, budget + 1):
            out = [u < r for u, r in zip(rng.random(len(rates)), rates)]
            lines_out = frozenset(
                ln.id for ln, o in zip(net.lines, out) if o)
            gens_out = frozenset(
                k for k, o in enumerate(out[n_lines:]) if o)
            if contingency._feasible(case, net, lines_out, gens_out):
                states.append((lines_out, gens_out))
                draws.append(draw)
                break
            online = len(case.generators) - len(gens_out)
            rejected["online" if online < case.min_online_generators
                     else "island"] += 1
        else:
            draws.append(budget)
            return states, draws, len(states), rejected
    return states, draws, None, rejected


def mcs_toy_case() -> NetworkCase:
    """4-bus / 4-line / 2-generator case small enough to enumerate fully."""
    lines = [
        line(1, 1, 2, x=0.1, cap=50.0, for_=0.08, length=10),
        line(2, 2, 3, x=0.2, cap=40.0, for_=0.10, length=12),
        line(3, 3, 4, x=0.1, cap=30.0, for_=0.12, length=8),
        line(4, 4, 1, x=0.4, cap=40.0, for_=0.06, length=15),
    ]
    gens = [gen(1, 80.0, cost=1.0, for_=0.10), gen(2, 60.0, cost=2.0, for_=0.08)]
    return build_case([0, 0, 60, 40], lines, gens, min_online=1)


def ga_toy_case() -> NetworkCase:
    """5-bus ring with 6 candidate lines for exhaustive-vs-GA comparison.

    The existing ring keeps every single-line outage survivable but
    congested, so candidate chords trade expected cost against
    investment and the 64-plan landscape has a non-trivial optimum.
    """
    lines = [
        line(1, 1, 2, x=0.10, cap=100.0, for_=0.04, length=20),
        line(2, 2, 3, x=0.15, cap=50.0, for_=0.05, length=30),
        line(3, 3, 4, x=0.10, cap=40.0, for_=0.04, length=25),
        line(4, 4, 5, x=0.20, cap=40.0, for_=0.05, length=35),
        line(5, 5, 1, x=0.25, cap=60.0, for_=0.03, length=40),
        line(6, 1, 3, x=0.20, cap=20.0, for_=0.03, length=35, status="candidate"),
        line(7, 1, 4, x=0.25, cap=20.0, for_=0.04, length=45, status="candidate"),
        line(8, 2, 4, x=0.20, cap=20.0, for_=0.04, length=30, status="candidate"),
        line(9, 2, 5, x=0.25, cap=20.0, for_=0.03, length=40, status="candidate"),
        line(10, 3, 5, x=0.20, cap=20.0, for_=0.03, length=30, status="candidate"),
        line(11, 3, 4, x=0.10, cap=20.0, for_=0.04, length=25, status="candidate"),
    ]
    gens = [gen(1, 120.0, cost=1.0, for_=0.06), gen(2, 100.0, cost=2.0, for_=0.05)]
    return build_case([0, 30, 50, 60, 40], lines, gens)


class AdequacyReference(NamedTuple):
    diff: list[float]  # per bus
    dns: list[float]
    gns: list[float]
    total_dns: float
    total_gns: float
    valid: bool
    congested: list[bool]  # per line
    wheeling: float


def adequacy_reference(net, flows, demand, generation, caps
                       ) -> AdequacyReference:
    """One state's adequacy the slow way, line by line and bus by bus in
    plain Python: the independent oracle for the kernel in
    gridtep.adequacy."""
    n = net.n_buses
    inflow = [0.0] * n
    outflow = [0.0] * n
    congested = []
    wheeling = 0.0
    for k in range(len(net.lines)):
        f, cap = float(flows[k]), float(caps[k])
        delivered = min(abs(f), cap)
        src, dst = int(net.from_idx[k]), int(net.to_idx[k])
        if f < 0:
            src, dst = dst, src
        outflow[src] += delivered
        inflow[dst] += delivered
        congested.append(abs(f) > cap)
        if abs(f) > cap:
            wheeling += abs(f) - cap
    diff = [float(demand[s]) - inflow[s] + outflow[s] - float(generation[s])
            for s in range(n)]
    dns = [max(d, 0.0) for d in diff]
    gns = [max(-d, 0.0) for d in diff]
    total_dns, total_gns = sum(dns), sum(gns)
    total_d = sum(float(d) for d in demand)
    total_g = sum(float(g) for g in generation)
    valid = True
    for s in range(n):
        if demand[s] > 0 and dns[s] >= demand[s]:
            valid = False  # a demand bus lost all of its demand
        if generation[s] > 0 and gns[s] >= generation[s]:
            valid = False  # a generator bus bottled all of its output
    if total_dns >= total_d and not (total_d == 0 and total_dns == 0):
        valid = False
    if total_gns >= total_g and not (total_g == 0 and total_gns == 0):
        valid = False
    return AdequacyReference(diff, dns, gns, total_dns, total_gns, valid,
                             congested, wheeling)
