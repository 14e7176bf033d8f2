"""Tests for chromosome pricing and the genetic search."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math

import hypothesis
import numpy as np
import pytest
from hypothesis import given, strategies as st

from gridtep import evaluation, planner
from gridtep.adequacy import ExpectationReport
from gridtep.costs import generation_investment
from gridtep.evaluation import base_schedules
from gridtep.network import Chromosome, load_case
from gridtep.planner import (
    GaConfig,
    PlanResult,
    PlanSettings,
    evaluate_chromosome,
    run,
)
from gridtep.report import plan_payload, write_plan_json

from _toys import build_case, ga_toy_case, gen, line, mcs_toy_case

from test_network import BUNDLED

N1 = PlanSettings(mode="n1")


def test_plan_that_strands_a_generator_is_infeasible():
    """The bundled case parks two new generators on line-less buses; the
    empty build plan leaves them islanded and prices at infinity."""
    case = load_case(BUNDLED)
    rec = evaluate_chromosome(case, Chromosome.from_ints([0] * 14), N1, seed=0)
    assert not rec.feasible
    assert math.isinf(rec.j)
    # G_inv survives so J still decomposes as EC + T_inv + G_inv.
    assert rec.breakdown.g_inv == generation_investment(
        case, base_schedules(case))
    assert "strands" in rec.infeasible_reason


def test_empty_plan_of_a_case_without_existing_lines_is_infeasible():
    """With every line a candidate, the all-zero chromosome builds a
    network with no lines: it is recorded as islanded, not raised."""
    case = load_case(BUNDLED)
    case = dataclasses.replace(case, lines=tuple(
        dataclasses.replace(ln, status="candidate") for ln in case.lines))
    rec = evaluate_chromosome(
        case, Chromosome.from_ints([0] * len(case.candidate_lines)), N1,
        seed=0)
    assert not rec.feasible
    assert "strands" in rec.infeasible_reason


def test_plan_whose_pricing_raises_is_infeasible_and_the_search_goes_on(
        monkeypatch):
    """On a ring whose elements fail 40 % of the time, one draw per slot
    seldom yields a usable state: pricing raises ResampleBudgetError,
    which marks that plan infeasible with the reason instead of ending
    the run."""
    lines = [line(1, 1, 2, for_=0.4), line(2, 2, 3, for_=0.4),
             line(3, 3, 4, for_=0.4), line(4, 4, 1, for_=0.4),
             line(5, 1, 3, for_=0.4, status="candidate"),
             line(6, 2, 4, for_=0.4, status="candidate")]
    case = build_case([0, 0, 60, 40], lines, [gen(1, 80.0), gen(2, 60.0)],
                      min_online=1)
    settings = PlanSettings(mode="mcs", n_mcs=10)
    monkeypatch.setattr(evaluation, "MAX_RESAMPLES", 1)
    records = []
    real = planner.evaluate_chromosome

    def recorded(*args, **kwargs):
        records.append(real(*args, **kwargs))
        return records[-1]

    monkeypatch.setattr(planner, "evaluate_chromosome", recorded)
    result = run(case, GaConfig(population_size=4, generations=2, seed=1),
                 settings)
    assert len(result.history) == 3
    failed = [r for r in records if not r.feasible]
    assert failed
    for rec in failed:
        assert math.isinf(rec.j)
        assert rec.infeasible_reason.startswith("ResampleBudgetError: ")

    manifest = dict(
        command="plan", case_path="ring.json", mode="mcs", policy="nl",
        seed=1, mcs_iters=10, generations=2, pop_size=4, delta_f=5.0,
        congestion_threshold=0.1, tool_version="test", wall_time_s=0.0)
    best = plan_payload(manifest, result)["result"]["best"]
    assert best["infeasible_reason"] == result.best.infeasible_reason


def test_plan_json_of_an_infeasible_best_is_strict_json(tmp_path):
    """An infeasible plan's infinite costs are written as null, so parsers
    that reject Infinity and NaN read plan.json."""
    case = mcs_toy_case()
    best = planner._infeasible_record(case, Chromosome(()), "stranded")
    result = PlanResult(best=best, history=(best.j, best.j), mode="mcs",
                        policy="nl")
    path = tmp_path / "plan.json"
    write_plan_json(path, plan_payload({"seed": 0}, result))

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    data = json.loads(path.read_text(), parse_constant=reject)
    written = data["result"]["best"]
    assert written["costs_kusd"]["j"] is None
    assert written["costs_kusd"]["ec"] is None
    assert written["costs_kusd"]["g_inv"] == best.breakdown.g_inv
    assert data["result"]["history_j_kusd"] == [None, None]
    assert written["infeasible_reason"] == "stranded"


def test_n1_plan_whose_every_state_fails_the_screen_is_infeasible():
    """With every line of the toy case rated 1 MW, none of its N-1 states
    passes the validity screen: the plan is infeasible with a reason that
    names the mode and the month, not priced at EC = 0."""
    toy = mcs_toy_case()
    case = dataclasses.replace(toy, lines=tuple(
        dataclasses.replace(ln, base_capacity_mw=1.0) for ln in toy.lines))
    rec = evaluate_chromosome(case, Chromosome(()), N1, seed=0)
    assert not rec.feasible
    assert math.isinf(rec.j)
    assert rec.infeasible_reason.startswith("GridTepError: mode n1, month 1")


def assert_bit_identical(a, b):
    assert a.j == b.j
    assert (a.capacities, a.sizing, a.breakdown) == \
        (b.capacities, b.sizing, b.breakdown)
    assert (a.report is None) == (b.report is None)
    if a.report is not None:
        for field in dataclasses.fields(ExpectationReport):
            x, y = getattr(a.report, field.name), getattr(b.report, field.name)
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), \
                field.name


@hypothesis.settings(max_examples=10, deadline=None)
@given(st.data())
def test_records_do_not_depend_on_the_order_plans_are_priced_in(data):
    """Pricing a set of plans, then pricing them again in another order on
    the same case object, gives bit-identical records: J and every
    monthly report array. Nothing one plan's pricing leaves behind may
    change another's."""
    plans = data.draw(st.lists(st.tuples(*[st.booleans()] * 6),
                               min_size=2, max_size=4, unique=True))
    order = data.draw(st.permutations(range(len(plans))))
    case = ga_toy_case()
    settings = PlanSettings(mode="mcs", policy="wel", n_mcs=40)
    first = [evaluate_chromosome(case, Chromosome(bits), settings, seed=5)
             for bits in plans]
    again = {k: evaluate_chromosome(case, Chromosome(plans[k]), settings,
                                    seed=5)
             for k in order}
    for k, rec in enumerate(first):
        assert_bit_identical(rec, again[k])


def test_chromosome_pricing_is_deterministic():
    case = ga_toy_case()
    bits = Chromosome.from_ints([1, 0, 0, 1, 0, 0])
    settings = PlanSettings(mode="mcs", n_mcs=150)
    a = evaluate_chromosome(case, bits, settings, seed=11)
    b = evaluate_chromosome(case, bits, settings, seed=11)
    assert a.j == b.j
    assert a.capacities == b.capacities
    assert a.sizing == b.sizing


def test_seed_changes_monte_carlo_pricing():
    case = ga_toy_case()
    bits = Chromosome.from_ints([1, 0, 0, 1, 0, 0])
    settings = PlanSettings(mode="mcs", n_mcs=150)
    a = evaluate_chromosome(case, bits, settings, seed=11)
    b = evaluate_chromosome(case, bits, settings, seed=12)
    assert a.j != b.j


def test_ga_matches_exhaustive_on_single_candidate():
    case = build_case(
        [0, 40, 40],
        [
            line(1, 1, 2, cap=60.0),
            line(2, 2, 3, cap=30.0),
            line(3, 1, 3, cap=30.0),
            line(4, 1, 3, cap=30.0, status="candidate"),
        ],
        [gen(1, 120.0, cost=1.0), gen(2, 60.0, cost=2.0)],
    )
    ga = GaConfig(population_size=2, generations=3, seed=4)
    result = run(case, ga, N1)
    exhaustive = min(
        (evaluate_chromosome(case, Chromosome.from_ints(bits), N1, ga.seed)
         for bits in ([0], [1])),
        key=lambda rec: rec.j,
    )
    assert result.best.j == exhaustive.j
    assert result.best.chromosome == exhaustive.chromosome


def test_history_tracks_best_so_far():
    case = ga_toy_case()
    ga = GaConfig(population_size=4, generations=5, seed=2)
    result = run(case, ga, N1)
    assert len(result.history) == ga.generations + 1
    assert all(b <= a for a, b in zip(result.history, result.history[1:]))
    assert result.history[-1] == result.best.j


def test_ga_without_candidate_lines_returns_the_empty_plan():
    """With no candidate line the chromosome is empty: the GA loop still
    runs every generation, prices the one plan there is, and every
    history entry is its J."""
    toy = ga_toy_case()
    case = dataclasses.replace(toy, lines=toy.existing_lines)
    ga = GaConfig(population_size=3, generations=4, seed=1)
    result = run(case, ga, N1)
    assert result.best.chromosome == Chromosome(())
    assert result.best.feasible
    assert result.history == (result.best.j,) * (ga.generations + 1)
    alone = evaluate_chromosome(case, Chromosome(()), N1, ga.seed)
    assert (result.best.j, result.best.capacities) == \
        (alone.j, alone.capacities)


def test_ga_is_reproducible():
    case = ga_toy_case()
    ga = GaConfig(population_size=4, generations=3, seed=9)
    a = run(case, ga, N1)
    b = run(case, ga, N1)
    assert a.history == b.history
    assert a.best.chromosome == b.best.chromosome


def test_ga_config_validation():
    for field, value in [
        ("population_size", 1),
        ("population_size", 2.0),
        ("population_size", True),
        ("generations", -1),
        ("generations", 3.0),
        ("generations", False),
        ("seed", -1),
        ("seed", 1.5),
        ("seed", True),
    ]:
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            GaConfig(**{field: value})
    ga = GaConfig(population_size=np.int64(4), generations=np.int32(0),
                  seed=np.uint64(3))
    assert (ga.population_size, ga.generations, ga.seed) == (4, 0, 3)


def test_exhaustive_landscape_is_not_flat():
    """The GA toy must actually discriminate between plans; otherwise the
    exhaustive-vs-GA comparison proves nothing."""
    case = ga_toy_case()
    values = set()
    for combo in itertools.product([0, 1], repeat=3):
        bits = Chromosome.from_ints(list(combo) + [0, 0, 0])
        values.add(evaluate_chromosome(case, bits, N1, seed=0).j)
    assert len(values) > 1
