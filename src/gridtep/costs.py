"""Monetary aggregation.

Expected-cost components price the adequacy expectations over the 12
monthly scenarios at 730 hours each: demand not served, generation not
served plus per-generator revenue loss on cut-off output, and wheeling
loss. Transmission investment combines a capital charge on new line
capacity (length-scaled rate 0.35*F + 0.19 k$/km, charged on the
increment for upgraded existing lines) with an operating charge on every
active line weighted by its outage-compensation factor
OCF = (1 - FOR)/FOR. Generation investment is capital on new units plus
the operating cost of the intact-network base dispatch; it does not
depend on the line plan. The objective is J = EC + T_inv + G_inv.

``ExpectedCost`` holds a run's rates and ``TransmissionInvestment`` a
topology's line constants; a plan evaluator calls both once per rating
vector.

Everything is kept in k$ internally; reports convert to M$.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .network import (
    CANDIDATE,
    ActiveNetwork,
    CostParameters,
    NetworkCase,
)


@dataclass(frozen=True)
class CostBreakdown:
    edns_cost: float  # k$
    egns_cost: float
    ewl_cost: float
    ec: float
    t_inv: float
    g_inv: float
    j: float

    def in_millions(self) -> dict[str, float]:
        return {k: v / 1000.0 for k, v in asdict(self).items()}


class ExpectedCost:
    """EC's components of 12 monthly expectations, in k$, from the monthly
    rates and each generator's revenue-loss rate made arrays once."""

    def __init__(self, costs: CostParameters, generators):
        self.hours = costs.hours_per_month
        self.c_edns, self.c_egns, self.c_ewl = (
            np.asarray(rates, dtype=float)
            for rates in (costs.c_edns, costs.c_egns, costs.c_ewl))
        self.revenue_loss = np.array(
            [g.revenue_loss_rate for g in generators], dtype=float)

    def edns(self, edns: np.ndarray) -> float:
        """730 * sum_t c_edns(t) * EDNS(t), in k$."""
        return float(self.hours * np.dot(self.c_edns, edns))

    def egns(self, egns: np.ndarray, ego: np.ndarray) -> float:
        """730 * sum_t [c_egns(t)*EGNS(t) + sum_s c_rl(s)*EGO_s(t)], in k$,
        from EGNS per month and a (12, generators) ``ego``."""
        monthly = self.c_egns * egns + ego @ self.revenue_loss
        return float(self.hours * monthly.sum())

    def ewl(self, ewl: np.ndarray) -> float:
        """730 * sum_t c_ewl(t) * EWL(t), in k$."""
        return float(self.hours * np.dot(self.c_ewl, ewl))


def line_capital_rate(capacity_mw: float) -> float:
    """Capital cost per km of line at the given rating: 0.35*F + 0.19 k$/km."""
    if capacity_mw < 0:
        raise ValueError("capacity must be >= 0")
    return 0.35 * capacity_mw + 0.19


def outage_compensation_factor(forced_outage_rate: float) -> float:
    """(1 - FOR) / FOR; zero (with a warning) for FOR = 0."""
    if forced_outage_rate == 0:
        warnings.warn(
            "line with FOR = 0 gets outage compensation factor 0; "
            "its operating charge vanishes", stacklevel=2)
        return 0.0
    return (1.0 - forced_outage_rate) / forced_outage_rate


class TransmissionInvestment:
    """Line investment of one topology at any ratings (one per line, in
    line order), in k$.

    Capital: new lines pay the full-rating rate times length; existing
    lines pay only for capacity added beyond their base rating, at the
    rate evaluated on that increment. Operating: every active line pays
    c_t2 * length * rating * OCF. Each line's constants (its status, base
    rating and length, c_t2 times its length, and its OCF) are worked out
    once; each call sums the lines in order, as Python floats.
    """

    def __init__(self, net: ActiveNetwork, costs: CostParameters):
        self.lines = [(ln.status == CANDIDATE, ln.base_capacity_mw,
                       ln.length_km, costs.c_t2 * ln.length_km,
                       outage_compensation_factor(ln.forced_outage_rate))
                      for ln in net.lines]

    def __call__(self, capacities) -> float:
        capital = 0.0
        operating = 0.0
        for (candidate, base, length, charge, ocf), cap in zip(
                self.lines, capacities, strict=True):
            if candidate:
                capital += line_capital_rate(cap) * length
            else:
                increment = cap - base
                if increment > 0:
                    capital += line_capital_rate(increment) * length
            operating += charge * cap * ocf
        return capital + operating


def generation_investment(case: NetworkCase, base_schedules) -> float:
    """Generator investment in k$: capital on new units plus the operating
    cost of the monthly base dispatch.

    ``base_schedules`` holds one fleet schedule (MW per generator) per
    month, from the intact-network merit dispatch. Capital rates are
    k$/kW and operating rates k$/kWh, hence the factor-1000 conversions
    from the MW/MWh quantities.
    """
    capital = sum(
        g.capital_cost * g.capacity_mw * 1000.0
        for g in case.generators if g.is_new
    )
    total_mw = np.zeros(len(case.generators))
    for schedule in base_schedules:
        total_mw += np.asarray(schedule, dtype=float)
    rates = np.array([g.operating_cost * 1000.0 for g in case.generators])
    operating = case.costs.hours_per_month * float(np.dot(rates, total_mw))
    return capital + operating


def objective(
    edns_k: float, egns_k: float, ewl_k: float, t_inv: float, g_inv: float
) -> CostBreakdown:
    """Assemble the full breakdown; J = EC + T_inv + G_inv."""
    ec = edns_k + egns_k + ewl_k
    return CostBreakdown(
        edns_cost=edns_k,
        egns_cost=egns_k,
        ewl_cost=ewl_k,
        ec=ec,
        t_inv=t_inv,
        g_inv=g_inv,
        j=ec + t_inv + g_inv,
    )
