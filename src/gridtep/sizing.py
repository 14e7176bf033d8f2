"""Roulette-wheel line capacity sizing.

Capacities grow iteratively: lines whose congestion probability exceeds
a threshold (and that the upgrade policy allows to change) get segments
of a roulette wheel sized by those probabilities. ``spin`` spins the
wheel once per eligible line; each hit adds one capacity step to the
selected line. The loop works on line positions throughout and
re-evaluates expected cost and transmission investment after every
update. It stops when nothing is congested enough to enter the wheel,
when the marginal expected-cost saving no longer beats the marginal
investment, or at an iteration cap.

Policies: "nl" (new lines) may only resize candidate lines; "wel"
(with existing lines) may resize any line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .evaluation import POLICY_WEL, CapacityEvaluation, PlanSettings
from .network import CANDIDATE, ActiveNetwork
from .rng import DOMAIN_SPIN, substream

STOP_NO_CONGESTION = "no_congestion"
STOP_MARGINAL = "marginal_cost_floor"
STOP_ITERATION_CAP = "iteration_cap"

MAX_SIZING_ITERATIONS = 200


def spin(rng: np.random.Generator, weights: np.ndarray,
         n_spins: int) -> np.ndarray:
    """Spin a wheel with one segment per weight, sized in proportion to
    it, ``n_spins`` times; return the hits of each segment.

    A spin is a uniform draw mapped through the wheel's cumulative bounds,
    as ``rng.choice(len(weights), n_spins, p=weights / weights.sum())``
    maps the same draws, so the hits, and the generator's state after
    them, are the ones it gives."""
    cdf = np.cumsum(weights / weights.sum())
    cdf /= cdf[-1]
    picks = cdf.searchsorted(rng.random(n_spins), side="right")
    return np.bincount(picks, minlength=len(weights))


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
    resizable = np.array([settings.policy == POLICY_WEL
                          or ln.status == CANDIDATE for ln in net.lines],
                         dtype=bool)
    caps = np.array(net.base_capacities, dtype=float)
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
        p = ev.congestion_probability
        eligible = np.flatnonzero((p > settings.congestion_threshold)
                                  & resizable)
        if eligible.size == 0:
            return SizingTrace(tuple(steps), STOP_NO_CONGESTION, ev)
        if iteration >= MAX_SIZING_ITERATIONS:
            return SizingTrace(tuple(steps), STOP_ITERATION_CAP, ev)

        iteration += 1
        rng = substream(rng_entropy, DOMAIN_SPIN, iteration)
        hits = spin(rng, p[eligible], n_spins=eligible.size)
        added_mw = eligible.size * settings.delta_f
        prev = ev.breakdown
        caps[eligible] += hits * settings.delta_f
        capacities = tuple(caps.tolist())
        ev = evaluate(capacities)

        mec = (ev.breakdown.ec - prev.ec) / added_mw
        mi = (ev.breakdown.t_inv - prev.t_inv) / added_mw
        ids = [net.line_ids[k] for k in eligible]
        steps.append(SizingStep(
            iteration=iteration,
            capacities=capacities,
            expected_cost=ev.breakdown.ec,
            transmission_investment=ev.breakdown.t_inv,
            eligible=tuple(ids),
            hits=tuple(sorted((lid, int(m)) for lid, m in zip(ids, hits)
                              if m)),
            mec=mec,
            mi=mi,
        ))
        # The marginal test needs a settled estimate; skip it on the very
        # first update and stop once extra MW cost at least as much in
        # investment as they recover in expected cost.
        if iteration >= 2 and abs(mec) <= mi:
            return SizingTrace(tuple(steps), STOP_MARGINAL, ev)
