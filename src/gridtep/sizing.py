"""Roulette-wheel line capacity sizing.

Capacities grow iteratively: lines whose congestion probability exceeds
a threshold (and that the upgrade policy allows to change) enter a
roulette wheel weighted by those probabilities. The wheel is spun once
per eligible line; each hit adds one capacity step to the selected
line. The loop re-evaluates expected cost and transmission investment
after every update and stops when nothing is congested enough to enter
the wheel, when the marginal expected-cost saving no longer beats the
marginal investment, or at an iteration cap.

Policies: "nl" (new lines) may only resize candidate lines; "wel"
(with existing lines) may resize any line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .evaluation import (POLICY_NL, POLICY_WEL, CapacityEvaluation,
                         PlanSettings)
from .network import CANDIDATE, ActiveNetwork
from .rng import DOMAIN_SPIN, substream

STOP_NO_CONGESTION = "no_congestion"
STOP_MARGINAL = "marginal_cost_floor"
STOP_ITERATION_CAP = "iteration_cap"

MAX_SIZING_ITERATIONS = 200


@dataclass(frozen=True)
class RouletteWheel:
    line_ids: tuple[int, ...]
    probabilities: np.ndarray  # normalized congestion probabilities

    def spin(self, rng: np.random.Generator, n_spins: int) -> dict[int, int]:
        """Spin n times; return hit counts per line id (zeros omitted)."""
        if n_spins <= 0 or not self.line_ids:
            return {}
        picks = rng.choice(len(self.line_ids), size=n_spins, p=self.probabilities)
        counts: dict[int, int] = {}
        for k in picks:
            lid = self.line_ids[int(k)]
            counts[lid] = counts.get(lid, 0) + 1
        return counts


@dataclass(frozen=True)
class SizingStep:
    iteration: int
    capacities: tuple[float, ...]
    expected_cost: float
    transmission_investment: float
    eligible: tuple[int, ...]
    hits: tuple[tuple[int, int], ...]  # (line id, spins won)
    mec: float | None  # marginal expected cost per MW added
    mi: float | None  # marginal investment per MW added


@dataclass(frozen=True)
class SizingTrace:
    steps: tuple[SizingStep, ...]
    stop_reason: str
    # The evaluation of the last step's capacities, as ``evaluate`` gave it.
    final_evaluation: CapacityEvaluation = field(compare=False)

    @property
    def final_capacities(self) -> tuple[float, ...]:
        return self.steps[-1].capacities

    @property
    def iterations(self) -> int:
        return len(self.steps) - 1


def updatable_mask(net: ActiveNetwork, policy: str) -> np.ndarray:
    """Per-line flag: may this policy change the line's capacity?"""
    if policy == POLICY_WEL:
        return np.ones(len(net.lines), dtype=bool)
    if policy == POLICY_NL:
        return np.array([ln.status == CANDIDATE for ln in net.lines], dtype=bool)
    raise ValueError(f"unknown policy {policy!r}")


def build_wheel(
    net: ActiveNetwork,
    congestion_probability: np.ndarray,
    policy: str,
    threshold: float,
) -> RouletteWheel:
    """Wheel over lines whose congestion probability strictly exceeds the
    threshold and that the policy may resize."""
    p = np.asarray(congestion_probability, dtype=float)
    mask = (p > threshold) & updatable_mask(net, policy)
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return RouletteWheel(line_ids=(), probabilities=np.empty(0))
    weights = p[idx]
    return RouletteWheel(
        line_ids=tuple(net.lines[int(k)].id for k in idx),
        probabilities=weights / weights.sum(),
    )


def apply_hits(
    net: ActiveNetwork, capacities: tuple[float, ...], hits: dict[int, int],
    delta_f: float,
) -> tuple[float, ...]:
    """``capacities`` with each hit line grown by hits * delta_f MW."""
    caps = list(capacities)
    for lid, m in hits.items():
        caps[net.line_pos[lid]] += m * delta_f
    return tuple(caps)


def sizing_loop(
    net: ActiveNetwork,
    evaluate: Callable[[tuple[float, ...]], CapacityEvaluation],
    settings: PlanSettings,
    rng_entropy,
) -> SizingTrace:
    """Drive the capacity-update loop for one topology, growing its line
    ratings from ``net.base_capacities``.

    ``evaluate`` prices a rating vector, as
    ``PlanEvaluator.evaluate`` does; the loop reads the expected cost
    ``ec`` and transmission investment ``t_inv`` of its breakdown and the
    per-line congestion probabilities. It prices no capacity vector
    twice, since every update adds at least one hit of ``delta_f`` > 0
    MW, and the trace keeps the last evaluation. ``settings`` gives the
    policy, the congestion threshold and the step ``delta_f``; at most
    ``MAX_SIZING_ITERATIONS`` updates are made. The spin RNG is derived
    from ``rng_entropy`` and the iteration index, so traces replay
    exactly for a fixed seed.
    """
    capacities = net.base_capacities
    ev = evaluate(capacities)
    steps = [SizingStep(
        iteration=0,
        capacities=capacities,
        expected_cost=ev.breakdown.ec,
        transmission_investment=ev.breakdown.t_inv,
        eligible=(),
        hits=(),
        mec=None,
        mi=None,
    )]

    iteration = 0
    while True:
        wheel = build_wheel(net, ev.congestion_probability, settings.policy,
                            settings.congestion_threshold)
        if not wheel.line_ids:
            return SizingTrace(tuple(steps), STOP_NO_CONGESTION, ev)
        if iteration >= MAX_SIZING_ITERATIONS:
            return SizingTrace(tuple(steps), STOP_ITERATION_CAP, ev)

        iteration += 1
        rng = substream(rng_entropy, DOMAIN_SPIN, iteration)
        hits = wheel.spin(rng, n_spins=len(wheel.line_ids))
        added_mw = sum(hits.values()) * settings.delta_f
        prev = ev.breakdown
        capacities = apply_hits(net, capacities, hits, settings.delta_f)
        ev = evaluate(capacities)

        mec = (ev.breakdown.ec - prev.ec) / added_mw
        mi = (ev.breakdown.t_inv - prev.t_inv) / added_mw
        steps.append(SizingStep(
            iteration=iteration,
            capacities=capacities,
            expected_cost=ev.breakdown.ec,
            transmission_investment=ev.breakdown.t_inv,
            eligible=wheel.line_ids,
            hits=tuple(sorted(hits.items())),
            mec=mec,
            mi=mi,
        ))
        # The marginal test needs a settled estimate; skip it on the very
        # first update and stop once extra MW cost at least as much in
        # investment as they recover in expected cost.
        if iteration >= 2 and abs(mec) <= mi:
            return SizingTrace(tuple(steps), STOP_MARGINAL, ev)
