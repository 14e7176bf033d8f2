"""Genetic-algorithm search over candidate-line build plans.

Each chromosome (one bit per candidate line) is priced by applying the
plan, growing line capacities through the roulette sizing loop, and
rolling the final ratings up into the objective J = EC + T_inv + G_inv.
Evaluations are memoized per bit pattern and fully determined by
(case, chromosome, mode, seed). Plans whose intact topology strands a
demand bus or a generator, and plans whose pricing raises a GridTepError
(such as an exhausted resample budget), get an infinite-J sentinel and
the reason instead of an evaluation; the search goes on.

The outer loop is a plain generational GA: tournament selection, uniform
crossover, per-bit mutation at rate 1 / chromosome length, and elitism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .adequacy import ExpectationReport
from .contingency import is_islanded
from .costs import CostBreakdown, objective
from .errors import GridTepError
from .evaluation import PlanEvaluator, PlanSettings, RunContext, is_integer
from .network import ActiveNetwork, Chromosome, NetworkCase, apply_plan
from .rng import DOMAIN_GA, chromosome_entropy, substream
from .sizing import sizing_loop

CROSSOVER_RATE = 0.9  # share of children bred by uniform crossover
TOURNAMENT_SIZE = 2
ELITISM_COUNT = 1  # best plans carried over unchanged


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 30
    generations: int = 450
    seed: int = 0

    def __post_init__(self):
        for name, least in (("population_size", 2), ("generations", 0),
                            ("seed", 0)):
            value = getattr(self, name)
            if not (is_integer(value) and value >= least):
                raise ValueError(
                    f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class SizingSummary:
    iterations: int
    stop_reason: str
    final_total_capacity: float


@dataclass(frozen=True)
class FitnessRecord:
    chromosome: Chromosome
    line_ids: tuple[int, ...]  # active lines, existing first
    capacities: tuple[float, ...]  # final ratings, aligned with line_ids
    breakdown: CostBreakdown
    report: ExpectationReport | None
    sizing: SizingSummary | None
    infeasible_reason: str | None = None

    @property
    def feasible(self) -> bool:
        return self.infeasible_reason is None

    @property
    def j(self) -> float:
        return self.breakdown.j


@dataclass(frozen=True)
class PlanResult:
    best: FitnessRecord
    history: tuple[float, ...]  # best-so-far J after init and each generation
    mode: str
    policy: str


INFEASIBLE_SENTINEL = math.inf


def _infeasible_record(context: RunContext, chromosome: Chromosome,
                       reason: str) -> FitnessRecord:
    # inf propagates through the breakdown so j = ec + t_inv + g_inv holds.
    return FitnessRecord(
        chromosome=chromosome,
        line_ids=(),
        capacities=(),
        breakdown=objective(INFEASIBLE_SENTINEL, 0.0, 0.0,
                            INFEASIBLE_SENTINEL, context.g_inv),
        report=None,
        sizing=None,
        infeasible_reason=reason,
    )


def evaluate_chromosome(context: RunContext, chromosome: Chromosome,
                        settings: PlanSettings, seed: int) -> FitnessRecord:
    """Full pricing of one build plan: sizing loop plus cost rollup.

    A plan that islands, or whose pricing raises a GridTepError, comes back
    infeasible with the reason.
    """
    net = apply_plan(context.case, chromosome)
    if is_islanded(context.case, net, frozenset(), frozenset()):
        return _infeasible_record(
            context, chromosome,
            "intact network strands a demand bus or a generator")
    try:
        return _priced_record(context, chromosome, net, settings, seed)
    except GridTepError as exc:
        return _infeasible_record(context, chromosome,
                                  f"{type(exc).__name__}: {exc}")


def _priced_record(context: RunContext, chromosome: Chromosome,
                   net: ActiveNetwork, settings: PlanSettings,
                   seed: int) -> FitnessRecord:
    entropy = chromosome_entropy(seed, chromosome.bits)
    evaluator = PlanEvaluator(context, net, settings, entropy)
    trace = sizing_loop(net, evaluator.evaluate, settings, entropy)
    ev = trace.final_evaluation
    return FitnessRecord(
        chromosome=chromosome,
        line_ids=net.line_ids,
        capacities=trace.final_capacities,
        breakdown=ev.breakdown,
        report=ev.report,
        sizing=SizingSummary(
            iterations=trace.iterations,
            stop_reason=trace.stop_reason,
            final_total_capacity=float(sum(trace.final_capacities)),
        ),
    )


def _tournament(rng, fitness: list[float], size: int) -> int:
    picks = rng.integers(0, len(fitness), size=size)
    return int(min(picks, key=lambda k: (fitness[k], k)))


def run(
    case: NetworkCase,
    ga: GaConfig,
    settings: PlanSettings,
) -> PlanResult:
    """Evolve build plans toward minimum J and return the best found.
    Every plan of the run shares one ``RunContext``."""
    n_bits = len(case.candidate_lines)
    memo: dict[tuple[bool, ...], FitnessRecord] = {}
    context = RunContext(case)

    def priced(bits: tuple[bool, ...]) -> FitnessRecord:
        rec = memo.get(bits)
        if rec is None:
            rec = evaluate_chromosome(context, Chromosome(bits), settings,
                                      ga.seed)
            memo[bits] = rec
        return rec

    rng = substream([ga.seed, 0], DOMAIN_GA)

    population = [
        tuple(bool(b) for b in rng.random(n_bits) < 0.5)
        for _ in range(ga.population_size)
    ]
    records = [priced(bits) for bits in population]
    best = min(records, key=lambda r: r.j)
    history = [best.j]

    for _ in range(ga.generations):
        fitness = [r.j for r in records]
        ranked = sorted(range(len(population)), key=lambda k: (fitness[k], k))
        next_pop = [population[k] for k in ranked[:ELITISM_COUNT]]
        while len(next_pop) < ga.population_size:
            p1 = population[_tournament(rng, fitness, TOURNAMENT_SIZE)]
            p2 = population[_tournament(rng, fitness, TOURNAMENT_SIZE)]
            if rng.random() < CROSSOVER_RATE:
                mix = rng.random(n_bits) < 0.5
                child = tuple(a if m else b for a, b, m in zip(p1, p2, mix))
            else:
                child = p1
            flips = rng.random(n_bits) < 1.0 / max(n_bits, 1)
            child = tuple(b ^ f for b, f in zip(child, flips))
            next_pop.append(child)
        population = next_pop
        records = [priced(bits) for bits in population]
        gen_best = min(records, key=lambda r: r.j)
        if gen_best.j < best.j:
            best = gen_best
        history.append(best.j)

    return PlanResult(best=best, history=tuple(history),
                      mode=settings.mode, policy=settings.policy)
