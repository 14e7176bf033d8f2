"""Tests for the merit-order dispatch."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridtep.contingency import OutageState
from gridtep.dispatch import (
    bus_generation,
    dispatch_rows,
    merit_order,
    merit_order_dispatch,
)
from gridtep.evaluation import RunContext, build_record
from gridtep.network import Chromosome, apply_plan, load_case

from _toys import build_case, gen, line

from test_network import BUNDLED


def two_gen_case():
    return build_case(
        [0, 0, 120],
        [line(1, 1, 2), line(2, 2, 3), line(3, 1, 3)],
        [gen(1, 50.0, cost=1.0), gen(2, 100.0, cost=2.0)],
    )


def test_cheapest_unit_fills_first():
    """50 MW at cost 1 and 100 MW at cost 2 cover 120 MW as 50 + 70."""
    case = two_gen_case()
    result = merit_order_dispatch(case, np.array([0.0, 0.0, 120.0]))
    assert result.schedule == (50.0, 70.0)
    assert result.deficit == 0.0


def test_zero_demand_dispatches_nothing():
    case = two_gen_case()
    result = merit_order_dispatch(case, np.zeros(3))
    assert result.schedule == (0.0, 0.0)
    np.testing.assert_array_equal(result.served_demand, 0.0)


def test_shortfall_becomes_deficit_and_curtails_proportionally():
    """Demand above online capacity sheds load pro rata per bus."""
    case = build_case(
        [0, 60, 120],
        [line(1, 1, 2), line(2, 2, 3)],
        [gen(1, 100.0, cost=1.0), gen(2, 100.0, cost=2.0)],
    )
    result = merit_order_dispatch(case, np.array([0.0, 60.0, 120.0]),
                                  offline=frozenset([1]))
    assert result.schedule == (100.0, 0.0)
    np.testing.assert_allclose(result.deficit, 80.0)
    np.testing.assert_allclose(result.served_demand, [0.0, 100 / 3, 200 / 3])
    np.testing.assert_allclose(result.served_demand.sum(), 100.0)


def test_merit_order_breaks_cost_ties_by_bus():
    case = build_case(
        [0, 0, 100],
        [line(1, 1, 2), line(2, 2, 3)],
        [gen(3, 50.0, cost=1.0), gen(1, 50.0, cost=1.0), gen(2, 50.0, cost=0.5)],
    )
    assert merit_order(case) == [2, 1, 0]


def test_dispatch_ignores_demand_bus_permutation():
    """Total dispatch depends on total demand, not on its bus split."""
    case = two_gen_case()
    a = merit_order_dispatch(case, np.array([10.0, 40.0, 70.0]))
    b = merit_order_dispatch(case, np.array([70.0, 10.0, 40.0]))
    assert a.schedule == b.schedule


def test_merit_dispatch_is_cost_minimal():
    """On an exhaustive 1 MW grid, no feasible schedule covering the same
    demand costs less than the merit-order one."""
    case = build_case(
        [0, 0, 9],
        [line(1, 1, 2), line(2, 2, 3)],
        [gen(1, 4.0, cost=3.0), gen(2, 5.0, cost=1.0), gen(3, 6.0, cost=2.0)],
    )
    demand = np.array([0.0, 0.0, 9.0])
    result = merit_order_dispatch(case, demand)
    merit_cost = sum(
        mw * g.operating_cost for mw, g in zip(result.schedule, case.generators)
    )
    caps = [int(g.capacity_mw) for g in case.generators]
    best = min(
        sum(mw * g.operating_cost for mw, g in zip(combo, case.generators))
        for combo in itertools.product(*(range(c + 1) for c in caps))
        if sum(combo) == 9
    )
    np.testing.assert_allclose(merit_cost, best)


def test_injections_balance_to_zero():
    """Generation minus served demand sums to zero, even under deficit."""
    case = two_gen_case()
    for offline in (frozenset(), frozenset([0]), frozenset([1])):
        result = merit_order_dispatch(case, np.array([0.0, 0.0, 120.0]),
                                      offline=offline)
        inj = bus_generation(case, result.schedule) - result.served_demand
        np.testing.assert_allclose(inj.sum(), 0.0, atol=1e-9)


def test_bus_generation_aggregates_fleet():
    case = build_case(
        [0, 0, 100],
        [line(1, 1, 2), line(2, 2, 3)],
        [gen(1, 60.0), gen(1, 60.0), gen(2, 60.0)],
    )
    g = bus_generation(case, (10.0, 20.0, 30.0))
    np.testing.assert_allclose(g, [30.0, 30.0, 0.0])


def test_cut_off_outputs_use_base_schedule():
    """A forced-out unit's lost output is what it produced in the
    intact-fleet dispatch, not zero."""
    case = two_gen_case()
    net = apply_plan(case, Chromosome(()))
    # A flat load curve: every month's demand is the base [0, 0, 120] MW.
    context = RunContext(case)
    out = build_record(context, net, 1, OutageState(frozenset(),
                                                    frozenset([0])))
    np.testing.assert_array_equal(out.ego, [50.0, 0.0])
    intact = build_record(context, net, 1, OutageState(frozenset(),
                                                       frozenset()))
    np.testing.assert_array_equal(intact.ego, [0.0, 0.0])


def loop_dispatch(case, demand, offline):
    """Merit dispatch the slow way, unit by unit in plain Python floats:
    (schedule, served demand, deficit)."""
    total = float(demand.sum())
    schedule, remaining = [0.0] * len(case.generators), total
    for k in merit_order(case):
        if k in offline or remaining <= 0:
            continue
        schedule[k] = min(case.generators[k].capacity_mw, remaining)
        remaining -= schedule[k]
    if remaining > 1e-9:
        served = demand * ((total - remaining) / total) if total > 0 \
            else demand.copy()
        return schedule, served, remaining
    return schedule, demand.copy(), 0.0


@pytest.mark.numpy_floor
@settings(max_examples=40, deadline=None)
@given(bundled=st.booleans(), data=st.data())
def test_dispatch_rows_match_the_one_row_view_bit_for_bit(bundled, data):
    """Each row of a many-row dispatch is, to the bit, the one-row
    dispatch of its demand and outages, and the unit-by-unit loop's:
    rows short of online capacity (the deficit branch) and rows of zero
    total demand included."""
    case = load_case(BUNDLED) if bundled else two_gen_case()
    n_buses, n_units = len(case.buses), len(case.generators)
    peak = 1.5 * sum(g.capacity_mw for g in case.generators) / n_buses
    rows = data.draw(st.lists(st.tuples(
        st.lists(st.one_of(st.just(0.0), st.floats(0.0, peak)),
                 min_size=n_buses, max_size=n_buses),
        st.frozensets(st.integers(0, n_units - 1))), min_size=1, max_size=20))
    rows += [([0.0] * n_buses, frozenset()),
             ([peak] * n_buses, frozenset([0]))]
    demand = np.array([d for d, _ in rows])
    offline = np.array([[k in out for k in range(n_units)]
                        for _, out in rows])
    schedule, served, deficit = dispatch_rows(case, demand, offline)
    generation = bus_generation(case, schedule)
    for r, (d, out) in enumerate(rows):
        one = merit_order_dispatch(case, demand[r], offline=out)
        want = loop_dispatch(case, demand[r], out)
        assert one.schedule == tuple(schedule[r].tolist()) == tuple(want[0])
        assert one.served_demand.tobytes() == served[r].tobytes() \
            == want[1].tobytes()
        assert one.deficit == deficit[r] == want[2]
        assert bus_generation(case, one.schedule).tobytes() \
            == generation[r].tobytes()
    assert deficit[-1] > 0 and not served[-2].any()
