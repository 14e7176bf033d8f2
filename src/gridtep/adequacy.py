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
total overload on congested lines, summed as |f| less its delivery: for
finite flows and ratings that is bit for bit the overload on a congested
line and +0.0 on any other.

Every function takes one state as per-bus / per-line vectors, or a
block of states with a leading rows axis; buses and lines are always the
last axis, and totals reduce over it. ``nodal_balance`` chains (a) and
(b).

Only the truncation depends on the ratings. A state's ``flow_terms``
(|f| and direction) and ``screen_limits`` can be computed once and
reused for any number of rating vectors: ``ScenarioBatch`` keeps them
per row and prices a rating vector with ``kernel``, one pass that
truncates once for step (a) and the wheeling loss alike and takes the
screen and the DNS/GNS totals without building a ``NodalBalance``. The
public functions above are views of the same steps.
"""

from __future__ import annotations

import math
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


def flow_terms(flows: np.ndarray) -> tuple[np.ndarray, ...]:
    """What step (a) reads of the flows, none of it rating-dependent: per
    line |f|, and whether the flow runs forward (f >= 0) or backward
    (f < 0); a NaN flow runs neither way."""
    flows = np.asarray(flows, dtype=float)
    return np.abs(flows), flows >= 0, flows < 0


def diff_from_terms(
    net: ActiveNetwork,
    delivered: np.ndarray,
    forward: np.ndarray,
    backward: np.ndarray,
    demand: np.ndarray,
    generation: np.ndarray,
) -> np.ndarray:
    """Step (a) from each line's delivery min(|f|, cap) and the
    direction ``flow_terms`` gives its flow."""
    pos = np.where(forward, delivered, 0.0)
    neg = np.where(backward, delivered, 0.0)
    a_from, a_to = net.incidence
    inflow = pos @ a_to + neg @ a_from
    outflow = pos @ a_from + neg @ a_to
    return demand - inflow + outflow - generation


def nodal_diff(
    net: ActiveNetwork,
    flows: np.ndarray,
    demand: np.ndarray,
    generation: np.ndarray,
    capacities: np.ndarray,
) -> np.ndarray:
    """Step (a): per-bus DIFF from unconstrained DC flows, with each
    line's deliverable power truncated at its rating in ``capacities``."""
    abs_flows, forward, backward = flow_terms(flows)
    return diff_from_terms(net, np.minimum(abs_flows, capacities), forward,
                           backward, np.asarray(demand, float),
                           np.asarray(generation, float))


def screen_limits(
    demand: np.ndarray, generation: np.ndarray
) -> tuple[np.ndarray, ...]:
    """The validity screen's limits, none of them rating-dependent: a
    state fails when a bus's DIFF is at or above its demand limit or at or
    below its generation limit, or when total DNS (GNS) is at or above the
    total limit.

    A bus with demand (generation) has that demand (minus that
    generation) as its limit, and any other bus an infinite one, so the
    per-bus screens only apply where the bus actually has demand or
    generation. A system total is its own limit, or the smallest
    subnormal when it is 0, so that zero DNS (GNS) passes a system with no
    demand (generation) and any positive amount fails it. The comparisons
    give what the screen's definition gives, ties and NaN included,
    unless a line's flow and rating are both infinite.
    """
    demand = np.asarray(demand, dtype=float)
    generation = np.asarray(generation, dtype=float)
    d_tot = demand.sum(axis=-1)
    g_tot = generation.sum(axis=-1)
    tiny = math.ulp(0.0)
    return (np.where(demand > 0, demand, np.inf),
            np.where(generation > 0, -generation, -np.inf),
            np.where(d_tot == 0, tiny, d_tot),
            np.where(g_tot == 0, tiny, g_tot))


def _screen(diff, dns_limit, gns_limit, total_dns_limit, total_gns_limit
            ) -> tuple[np.ndarray, ...]:
    """Step (b) against the ``screen_limits`` of the injections: per-bus
    DNS and GNS, their totals and validity, in ``NodalBalance`` order."""
    dns = np.maximum(diff, 0.0)
    gns = np.maximum(-diff, 0.0)
    dns_tot = dns.sum(axis=-1)
    gns_tot = gns.sum(axis=-1)
    bad = ((diff >= dns_limit) | (diff <= gns_limit)).any(axis=-1) | (
        dns_tot >= total_dns_limit) | (gns_tot >= total_gns_limit)
    return dns, gns, dns_tot, gns_tot, ~bad


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
    return NodalBalance(diff, *_screen(diff,
                                       *screen_limits(demand, generation)))


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


def _overloads(abs_flows, delivered, capacities
               ) -> tuple[np.ndarray, np.ndarray]:
    """(congested, wheeling loss) from |f| and the deliveries."""
    return abs_flows > capacities, (abs_flows - delivered).sum(axis=-1)


def line_overloads(
    flows: np.ndarray, capacities: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(congested, wheeling loss): per line, whether |flow| strictly
    exceeds its rating, and the total overload in MW over those lines."""
    abs_flows = np.abs(np.asarray(flows, dtype=float))
    return _overloads(abs_flows, np.minimum(abs_flows, capacities),
                      capacities)


def kernel(net: ActiveNetwork, capacities: np.ndarray, abs_flows, forward,
           backward, demand, generation, *limits) -> tuple[np.ndarray, ...]:
    """Stacked rows priced in one pass from their ``flow_terms``, demand,
    generation and ``screen_limits``: (valid, total DNS, total GNS,
    wheeling loss, congested) per row, with the bits ``nodal_balance``
    and ``line_overloads`` give for finite flows and ratings."""
    delivered = np.minimum(abs_flows, capacities)
    diff = diff_from_terms(net, delivered, forward, backward, demand,
                           generation)
    _, _, dns_tot, gns_tot, valid = _screen(diff, *limits)
    congested, wheeling = _overloads(abs_flows, delivered, capacities)
    return valid, dns_tot, gns_tot, wheeling, congested


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
