"""Tests for the case model, its JSON round trip, and plan application."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gridtep.cli import EXIT_VALIDATION, main
from gridtep.errors import CaseParseError, CaseValidationError
from gridtep.network import (
    CANDIDATE,
    EXISTING,
    ActiveNetwork,
    Chromosome,
    apply_plan,
    case_from_dict,
    case_to_dict,
    load_case,
    save_case,
    scenario_demand,
    validate_case,
)

from _toys import build_case, gen, line

BUNDLED = Path(__file__).resolve().parent.parent / "cases" / "fig1-7bus.json"


def test_bundled_case_structure():
    """The shipped demonstration case has 7 buses, 7 existing lines, 14
    candidate corridors at a 5 MW starting rating, and 4 generators."""
    case = load_case(BUNDLED)
    assert len(case.buses) == 7
    assert len(case.existing_lines) == 7
    assert len(case.candidate_lines) == 14
    assert len(case.generators) == 4
    assert all(ln.base_capacity_mw == 5.0 for ln in case.candidate_lines)
    assert validate_case(case) == []


def test_case_round_trip():
    """Serializing a case and parsing it back reproduces every field."""
    case = load_case(BUNDLED)
    again = case_from_dict(json.loads(json.dumps(case_to_dict(case))))
    assert again == case


def test_validation_names_field_paths():
    """Each invariant violation points at the offending field."""
    case = build_case(
        [0, 50],
        [line(1, 1, 2, x=-0.5, for_=1.0)],
        [gen(1, 100.0), gen(2, 100.0)],
    )
    failures = dict(validate_case(case))
    assert "must be > 0" in failures["lines[0].reactance"]
    assert "[0, 1)" in failures["lines[0].forced_outage_rate"]


def test_validation_rejects_low_generation():
    """Total generator capacity below peak demand is flagged."""
    case = build_case([0, 200], [line(1, 1, 2)], [gen(1, 50.0), gen(2, 20.0)])
    paths = [p for p, _ in validate_case(case)]
    assert "generators" in paths


def test_validation_rejects_split_existing_network():
    """Existing lines must form one connected component."""
    case = build_case(
        [0, 10, 10, 10],
        [line(1, 1, 2), line(2, 3, 4)],
        [gen(1, 100.0), gen(2, 100.0)],
    )
    paths = [p for p, _ in validate_case(case)]
    assert "lines" in paths


SPLIT = ("lines", "existing lines must form a single connected component")


def bfs_components(edges) -> int:
    """Connected components among the endpoints of ``edges``."""
    adjacent: dict[int, set[int]] = {}
    for a, b in edges:
        adjacent.setdefault(a, set()).add(b)
        adjacent.setdefault(b, set()).add(a)
    unseen, count = set(adjacent), 0
    while unseen:
        count += 1
        queue = [unseen.pop()]
        while queue:
            for b in adjacent[queue.pop()] & unseen:
                unseen.remove(b)
                queue.append(b)
    return count


# Bus ids run 1..n_buses; endpoints up to 8 may name unknown buses.
EDGES = st.lists(st.tuples(st.integers(1, 8), st.integers(1, 8),
                           st.booleans()), max_size=8)


@settings(max_examples=200, deadline=None)
@given(n_buses=st.integers(2, 6), slack=st.integers(1, 6), edges=EDGES)
@example(n_buses=3, slack=1, edges=[(1, 2, True), (2, 3, True)])
@example(n_buses=4, slack=2, edges=[(1, 2, True), (3, 4, True)])
@example(n_buses=4, slack=1, edges=[(1, 2, True), (7, 8, True)])
@example(n_buses=4, slack=1, edges=[(7, 8, True), (3, 4, False)])
@example(n_buses=3, slack=3, edges=[])
def test_split_is_reported_exactly_when_a_bfs_finds_two_components(
        n_buses, slack, edges):
    """validate_case reports a split grid exactly when the endpoints of
    the existing lines, unknown bus ids included, form more than one
    component; buses without lines do not count. An ActiveNetwork's slack
    is the bus flagged is_slack."""
    slack = min(slack, n_buses)
    lines = [line(k + 1, a, b, status=EXISTING if existing else CANDIDATE)
             for k, (a, b, existing) in enumerate(edges)]
    case = build_case([0] * n_buses, lines, [gen(1, 10.0), gen(1, 10.0)])
    buses = tuple(dataclasses.replace(b, is_slack=b.id == slack)
                  for b in case.buses)
    case = dataclasses.replace(case, buses=buses)

    existing = [(a, b) for a, b, is_existing in edges if is_existing]
    assert (SPLIT in validate_case(case)) == (bfs_components(existing) > 1)
    assert ActiveNetwork(buses, case.existing_lines).slack_bus == slack
    assert ActiveNetwork(buses, ()).slack_bus == slack


def test_case_from_dict_reports_missing_field():
    data = case_to_dict(load_case(BUNDLED))
    del data["lines"][0]["reactance"]
    with pytest.raises(CaseValidationError) as err:
        case_from_dict(data)
    assert any(path == "lines[0].reactance" for path, _ in err.value.failures)


def test_save_case_reproduces_the_bundled_file(tmp_path):
    out = tmp_path / "case.json"
    save_case(load_case(BUNDLED), out)
    assert json.loads(out.read_text()) == json.loads(BUNDLED.read_text())


@st.composite
def valid_cases(draw):
    """Random valid cases: an existing path through every bus, extra
    existing or candidate lines, and generators that each cover peak
    demand. Float fields sometimes draw integers."""
    n = draw(st.integers(2, 6))
    number = st.one_of(st.floats(1e-3, 1e3), st.integers(1, 1000))
    rate = st.floats(0.0, 0.99)
    demands = draw(st.lists(st.one_of(st.floats(0.0, 500.0), st.integers(0, 500)),
                            min_size=n, max_size=n))
    multipliers = draw(st.lists(st.floats(0.01, 1.0), min_size=12, max_size=12))
    ends = [(k, k + 1, EXISTING) for k in range(1, n)]
    for _ in range(draw(st.integers(0, 4))):
        f, t = draw(st.lists(st.integers(1, n), min_size=2, max_size=2,
                             unique=True))
        ends.append((f, t, draw(st.sampled_from([EXISTING, CANDIDATE]))))
    lines = [line(i + 1, f, t, x=draw(number), cap=draw(number),
                  for_=draw(rate), length=draw(number), status=status)
             for i, (f, t, status) in enumerate(ends)]
    peak = max(multipliers) * sum(demands)
    gens = [gen(draw(st.integers(1, n)), peak + draw(number), cost=draw(number),
                for_=draw(rate), capital=draw(number), rl=draw(number),
                is_new=draw(st.booleans()))
            for _ in range(draw(st.integers(1, 3)))]
    return build_case(demands, lines, gens, multipliers=multipliers,
                      min_online=draw(st.integers(1, len(gens))),
                      c_edns=draw(number), c_t2=draw(number))


@settings(max_examples=50, deadline=None)
@given(valid_cases())
def test_case_json_round_trip_on_random_cases(case):
    assert validate_case(case) == []
    assert case_from_dict(json.loads(json.dumps(case_to_dict(case)))) == case


DELETE = object()


# Malformed or out-of-range values in the bundled case: (JSON path, new
# value or DELETE, the failure's field path, its message).
MALFORMED = [
    (("costs", "c_edns", 3), "x", "costs.c_edns[3]", "expected int/float"),
    (("ldc", "monthly_multipliers", 5), None, "ldc.monthly_multipliers[5]",
     "expected int/float"),
    (("buses", 2), 3, "buses[2]", "expected dict"),
    (("costs", "hours_per_month"), "730h", "costs.hours_per_month",
     "expected int/float"),
    (("options",), "fast", "options", "expected dict"),
    (("options",), [2], "options", "expected dict"),
    (("buses", 0, "id"), True, "buses[0].id", "expected int"),
    (("generators", 0, "capacity_mw"), float("inf"),
     "generators[0].capacity_mw", "must be finite"),
    (("buses", 1, "base_demand"), float("nan"), "buses[1].base_demand",
     "must be finite"),
    (("lines", 0, "reactance"), "0.02", "lines[0].reactance",
     "expected int/float"),
    (("lines",), {}, "lines", "expected list"),
    (("buses", 0, "id"), 1.5, "buses[0].id", "expected int"),
    (("costs", "c_t2"), DELETE, "costs.c_t2", "missing field"),
    (("buses", 3, "base_demand"), DELETE, "buses[3].base_demand",
     "missing field"),
    (("buses", 0, "is_slack"), "yes", "buses[0].is_slack", "expected bool"),
    (("options", "min_online_generators"), 2.5,
     "options.min_online_generators", "expected int"),
    (("lines", 3, "status"), 1, "lines[3].status", "expected str"),
    (("lines", 0, "length_km"), 10**400, "lines[0].length_km",
     "must be finite"),
    (("generators", 0, "capital_cost"), -5, "generators[0].capital_cost",
     "must be >= 0"),
    (("generators", 0, "revenue_loss_rate"), -1,
     "generators[0].revenue_loss_rate", "must be >= 0"),
]


@pytest.mark.parametrize("keys, value, path, message", MALFORMED,
                         ids=[p for _, _, p, _ in MALFORMED])
def test_malformed_value_fails_by_its_path(keys, value, path, message,
                                           tmp_path, capsys):
    """A malformed value is one validation failure naming its field, from
    the library and from `gridtep validate` (exit 1, no traceback)."""
    data = json.loads(BUNDLED.read_text())
    *parents, last = keys
    target = data
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    with pytest.raises(CaseValidationError) as err:
        case_from_dict(data)
    assert err.value.failures == [(path, message)]

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["validate", "--case", str(bad)]) == EXIT_VALIDATION
    fails = [ln for ln in capsys.readouterr().out.splitlines() if "FAIL" in ln]
    assert fails == [f"{path}: FAIL - {message}"]


def test_validation_rejects_more_online_generators_than_units(
        tmp_path, capsys):
    """A minimum-online count above the generator count leaves no state
    that the sampler's screen passes: validation fails on it, from the
    library and from `gridtep validate`."""
    data = json.loads(BUNDLED.read_text())
    data["options"]["min_online_generators"] = 5
    failure = ("options.min_online_generators",
               "must be <= the generator count (4)")
    with pytest.raises(CaseValidationError) as err:
        case_from_dict(data)
    assert err.value.failures == [failure]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["validate", "--case", str(bad)]) == EXIT_VALIDATION
    assert f"{failure[0]}: FAIL - {failure[1]}" in capsys.readouterr().out
    data["options"]["min_online_generators"] = 4
    assert validate_case(case_from_dict(data)) == []


def test_load_case_rejects_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(CaseParseError):
        load_case(bad)


def test_apply_plan_selects_candidates():
    """A plan activates every existing line plus exactly the chosen
    candidates, all at their base ratings."""
    case = load_case(BUNDLED)
    bits = [0] * 14
    bits[0] = bits[5] = 1
    net = apply_plan(case, Chromosome.from_ints(bits))
    assert len(net.lines) == 9
    statuses = [ln.status for ln in net.lines]
    assert statuses.count(EXISTING) == 7
    assert statuses.count(CANDIDATE) == 2
    assert net.base_capacities == tuple(ln.base_capacity_mw
                                        for ln in net.lines)


def test_apply_plan_rejects_wrong_length():
    case = load_case(BUNDLED)
    with pytest.raises(ValueError):
        apply_plan(case, Chromosome.from_ints([1, 0]))


def test_scenario_demand_scales_by_month():
    case = build_case(
        [0, 100, 60],
        [line(1, 1, 2), line(2, 2, 3)],
        [gen(1, 200.0), gen(2, 100.0)],
        multipliers=[0.5] * 6 + [1.0] + [0.5] * 5,
    )
    np.testing.assert_allclose(scenario_demand(case, 7), [0, 100, 60])
    np.testing.assert_allclose(scenario_demand(case, 1), [0, 50, 30])
    with pytest.raises(ValueError):
        scenario_demand(case, 13)
