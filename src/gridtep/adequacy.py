"""Nodal adequacy kernel.

The kernel prices one solved outage state, or many stacked as rows, in
two steps that can also be called on their own:

(a) ``nodal_diff`` truncates each line's delivery at its rating and
    forms the per-bus balance

        DIFF_s = D_s - sum_in min(|f|, cap) + sum_out min(|f|, cap) - G_s

    where "in" and "out" follow the sign of the solved flow;
(b) ``balance_from_diffs`` splits DIFF into demand not supplied (DNS,
    the positive part) and generation not supplied (GNS, the negative
    part) and applies the validity screen.

Line terms cancel system-wide, so total DNS equals total GNS whenever
the underlying injections balance. ``line_overloads`` adds per-line
congestion (|f| strictly above the rating) and the wheeling loss, the
total overload on congested lines.

Every function takes one state as per-bus / per-line vectors, or a
block of states with a leading rows axis; buses and lines are always the
last axis, and totals reduce over it. ``nodal_balance`` chains (a) and
(b); ``ScenarioBatch.evaluate`` prices plans with the same functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import ActiveNetwork


@dataclass(frozen=True)
class NodalBalance:
    """Per-bus balance of one state, or of rows of states."""

    diff: np.ndarray  # MW per bus, signed
    dns: np.ndarray  # MW per bus, demand not supplied
    gns: np.ndarray  # MW per bus, generation not supplied
    total_dns: np.ndarray  # MW, system sum over buses
    total_gns: np.ndarray
    valid: np.ndarray  # bool: the state passes the validity screen


def nodal_diff(
    net: ActiveNetwork,
    flows: np.ndarray,
    demand: np.ndarray,
    generation: np.ndarray,
    capacities: np.ndarray,
) -> np.ndarray:
    """Step (a): per-bus DIFF from unconstrained DC flows, with each
    line's deliverable power truncated at its rating in ``capacities``."""
    flows = np.asarray(flows, dtype=float)
    delivered = np.minimum(np.abs(flows), capacities)
    pos = np.where(flows >= 0, delivered, 0.0)
    neg = np.where(flows < 0, delivered, 0.0)
    a_from, a_to = net.incidence
    inflow = pos @ a_to + neg @ a_from
    outflow = pos @ a_from + neg @ a_to
    return np.asarray(demand, float) - inflow + outflow \
        - np.asarray(generation, float)


def balance_from_diffs(
    diff: np.ndarray, demand: np.ndarray, generation: np.ndarray
) -> NodalBalance:
    """Step (b): split DIFF into DNS / GNS and screen the state.

    A bus losing its entire demand (or bottling its entire generation)
    marks the state as pathological, as does a system total outside
    [0, total). Such states are resampled (or dropped) rather than
    averaged in. The per-bus screens only apply where the bus actually
    has demand or generation; transit buses can carry small balance
    artifacts from asymmetric line truncation, which the system totals
    still absorb.
    """
    diff = np.asarray(diff, dtype=float)
    demand = np.asarray(demand, dtype=float)
    generation = np.asarray(generation, dtype=float)
    dns = np.maximum(diff, 0.0)
    gns = np.maximum(-diff, 0.0)
    bad_bus = np.any((demand > 0) & (dns >= demand), axis=-1) | np.any(
        (generation > 0) & (gns >= generation), axis=-1)
    dns_tot = dns.sum(axis=-1)
    gns_tot = gns.sum(axis=-1)
    d_tot = demand.sum(axis=-1)
    g_tot = generation.sum(axis=-1)
    bad_sys = ((dns_tot >= d_tot) & ~((d_tot == 0) & (dns_tot == 0))) | (
        (gns_tot >= g_tot) & ~((g_tot == 0) & (gns_tot == 0)))
    return NodalBalance(diff=diff, dns=dns, gns=gns, total_dns=dns_tot,
                        total_gns=gns_tot, valid=~(bad_bus | bad_sys))


def nodal_balance(
    net: ActiveNetwork,
    flows: np.ndarray,
    demand: np.ndarray,
    generation: np.ndarray,
    capacities: np.ndarray,
) -> NodalBalance:
    """Steps (a) and (b): DIFF, DNS, GNS and the validity screen."""
    return balance_from_diffs(
        nodal_diff(net, flows, demand, generation, capacities),
        demand, generation)


def line_overloads(
    flows: np.ndarray, capacities: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(congested, wheeling loss): per line, whether |flow| strictly
    exceeds its rating, and the total overload in MW over those lines."""
    excess = np.abs(np.asarray(flows, dtype=float)) - capacities
    congested = excess > 0
    return congested, np.where(congested, excess, 0.0).sum(axis=-1)


@dataclass(frozen=True)
class ExpectationReport:
    """Per-scenario expected adequacy indices (MW) plus congestion rates."""

    edns: np.ndarray  # one entry per scenario
    egns: np.ndarray
    ewl: np.ndarray
    ego: np.ndarray  # (scenarios, generators)
    congestion_probability: np.ndarray  # (scenarios, lines)
    samples_used: np.ndarray  # accepted sample count per scenario
    # Element-wise draws behind the accepted samples, per scenario
    # (redraws included); the state count for enumerated modes.
    samples_drawn: np.ndarray
