"""Nodal adequacy accounting.

For each bus the balance DIFF compares demand against local generation
plus what the (capacity-limited) lines can actually deliver:

    DIFF_s = D_s - sum_in min(|f|, cap) + sum_out min(|f|, cap) - G_s

where "in" and "out" follow the sign of the solved flow. A positive DIFF
is demand not supplied at that bus (DNS); a negative one is generation
that cannot be evacuated (GNS). Line terms cancel system-wide, so total
DNS equals total GNS whenever the underlying injections balance.

Wheeling loss is the total overload on congested lines — flow magnitude
beyond rating, summed over lines where |f| strictly exceeds the rating.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import ActiveNetwork


@dataclass(frozen=True)
class NodalBalance:
    diff: np.ndarray  # MW per bus, signed
    dns: np.ndarray  # MW per bus, demand not supplied
    gns: np.ndarray  # MW per bus, generation not supplied

    @property
    def total_dns(self) -> float:
        return float(self.dns.sum())

    @property
    def total_gns(self) -> float:
        return float(self.gns.sum())


def balance_from_diffs(diff: np.ndarray) -> NodalBalance:
    """Split a signed DIFF vector into its DNS / GNS parts."""
    diff = np.asarray(diff, dtype=float)
    return NodalBalance(
        diff=diff,
        dns=np.maximum(diff, 0.0),
        gns=np.maximum(-diff, 0.0),
    )


def nodal_balance(
    net: ActiveNetwork,
    flows: np.ndarray,
    demand: np.ndarray,
    generation: np.ndarray,
    capacities: np.ndarray | None = None,
) -> NodalBalance:
    """Per-bus DIFF/DNS/GNS for one solved state.

    ``flows`` are the unconstrained DC flows; deliverable power on each
    line is truncated at its rating before entering the bus balances.
    """
    caps = net.capacity_array if capacities is None else np.asarray(capacities, float)
    flows = np.asarray(flows, dtype=float)
    delivered = np.minimum(np.abs(flows), caps)
    signed = np.where(flows >= 0, delivered, -delivered)

    n = net.n_buses
    inflow = np.zeros(n)
    np.add.at(inflow, net.to_idx, np.maximum(signed, 0.0))
    np.add.at(inflow, net.from_idx, np.maximum(-signed, 0.0))
    outflow = np.zeros(n)
    np.add.at(outflow, net.from_idx, np.maximum(signed, 0.0))
    np.add.at(outflow, net.to_idx, np.maximum(-signed, 0.0))

    diff = np.asarray(demand, float) - inflow + outflow - np.asarray(generation, float)
    return balance_from_diffs(diff)


def system_totals(balance: NodalBalance) -> tuple[float, float]:
    """(system DNS, system GNS): the componentwise sums over buses."""
    return balance.total_dns, balance.total_gns


def wheeling_loss(
    flows: np.ndarray, capacities: np.ndarray, threshold: float = 0.0
) -> float:
    """Total overload (MW) across congested lines.

    A line is congested when |flow| strictly exceeds its rating; the
    optional threshold requires the excess to clear a margin too.
    """
    excess = np.abs(np.asarray(flows, float)) - np.asarray(capacities, float)
    over = excess > threshold if threshold > 0 else excess > 0
    return float(excess[over].sum())


def congested_mask(
    flows: np.ndarray, capacities: np.ndarray, threshold: float = 0.0
) -> np.ndarray:
    """Boolean per-line congestion indicator (strict overload)."""
    excess = np.abs(np.asarray(flows, float)) - np.asarray(capacities, float)
    return excess > threshold if threshold > 0 else excess > 0


@dataclass(frozen=True)
class AdequacySample:
    dns: float
    gns: float
    wheeling: float
    ego: np.ndarray  # MW per generator cut off by forced outages
    congested: np.ndarray  # bool per line


def is_valid_sample(
    balance: NodalBalance, demand: np.ndarray, generation_capacity: np.ndarray
) -> bool:
    """Sanity screen used before a sample enters the expectations.

    A bus losing its entire demand (or bottling its entire generation)
    marks the state as pathological, as does a system total outside
    [0, total). Such states are resampled rather than averaged in. The
    per-bus screens only apply where the bus actually has demand or
    generation; transit buses can carry small balance artifacts from
    asymmetric line truncation, which the system totals still absorb.
    """
    demand = np.asarray(demand, float)
    cap = np.asarray(generation_capacity, float)
    if np.any((demand > 0) & (balance.dns >= demand)):
        return False
    if np.any((cap > 0) & (balance.gns >= cap)):
        return False
    total_d, total_g = float(demand.sum()), float(cap.sum())
    if balance.total_dns >= total_d and not (total_d == 0 and balance.total_dns == 0):
        return False
    if balance.total_gns >= total_g and not (total_g == 0 and balance.total_gns == 0):
        return False
    return True


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

    @property
    def annual_edns(self) -> float:
        return float(self.edns.sum())


def expectation(samples) -> float:
    """Probability-weighted mean of (value, probability) pairs.

    Weights must be nonnegative and sum to one within 1e-9. Equal-weight
    Monte Carlo samples use probability 1/N each.
    """
    if not samples:
        raise ValueError("expectation of an empty sample set")
    values = np.array([v for v, _ in samples], dtype=float)
    probs = np.array([p for _, p in samples], dtype=float)
    if np.any(probs < 0):
        raise ValueError("sample probabilities must be nonnegative")
    if abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError(
            f"sample probabilities sum to {probs.sum():.12g}, expected 1")
    return float(np.dot(values, probs))


def aggregate_samples(
    samples_by_scenario: list[list[AdequacySample]],
    n_lines: int,
    n_generators: int,
) -> ExpectationReport:
    """Average per-scenario sample lists into an ExpectationReport."""
    s = len(samples_by_scenario)
    edns = np.zeros(s)
    egns = np.zeros(s)
    ewl = np.zeros(s)
    ego = np.zeros((s, n_generators))
    con = np.zeros((s, n_lines))
    used = np.zeros(s, dtype=int)
    for i, samples in enumerate(samples_by_scenario):
        if not samples:
            continue
        used[i] = len(samples)
        edns[i] = float(np.mean([x.dns for x in samples]))
        egns[i] = float(np.mean([x.gns for x in samples]))
        ewl[i] = float(np.mean([x.wheeling for x in samples]))
        ego[i] = np.mean([x.ego for x in samples], axis=0)
        con[i] = np.mean([x.congested for x in samples], axis=0)
    return ExpectationReport(
        edns=edns, egns=egns, ewl=ewl, ego=ego,
        congestion_probability=con, samples_used=used, samples_drawn=used,
    )
