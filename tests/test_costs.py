"""Tests for the cost model: expected-cost terms, investments, objective."""

from __future__ import annotations

import numpy as np
import pytest

from gridtep.costs import (
    ExpectedCost,
    TransmissionInvestment,
    generation_investment,
    line_capital_rate,
    objective,
    outage_compensation_factor,
)
from gridtep.network import ActiveNetwork, CostParameters

from _toys import bare_net, build_case, gen, line


def params(c_edns=1.0, c_egns=1.0, c_ewl=1.0, c_t2=0.002):
    return CostParameters(
        c_edns=(c_edns,) * 12,
        c_egns=(c_egns,) * 12,
        c_ewl=(c_ewl,) * 12,
        c_t2=c_t2,
    )


def one_month(value, month=0):
    x = np.zeros(12)
    x[month] = value
    return x


def test_edns_cost_single_month():
    """10 MW unserved for one 730-hour month at 1 k$/MWh costs 7300 k$."""
    assert ExpectedCost(params(), ()).edns(one_month(10.0)) == 7300.0


def test_edns_cost_uniform_year():
    """1 MW all year at 2 k$/MWh costs 730 * 12 * 2 = 17520 k$."""
    assert ExpectedCost(params(c_edns=2.0), ()).edns(np.ones(12)) == 17520.0


def test_edns_cost_requires_twelve_months():
    with pytest.raises(ValueError):
        ExpectedCost(params(), ()).edns(np.ones(11))


def test_egns_cost_splits_network_and_outage_terms():
    """5 MW of bottled generation at 2 k$/MWh for a month costs 7300 k$;
    a forced-out unit's 10 MW at a 0.5 k$/MWh revenue-loss rate costs
    3650 k$ on its own."""
    generators = (gen(1, 100.0, rl=0.5),)
    no_ego = np.zeros((12, 1))
    assert ExpectedCost(params(c_egns=2.0), generators).egns(
        one_month(5.0), no_ego) == 7300.0
    ego = np.zeros((12, 1))
    ego[3, 0] = 10.0
    assert ExpectedCost(params(), generators).egns(np.zeros(12), ego) == 3650.0


def test_egns_cost_checks_ego_shape():
    with pytest.raises(ValueError):
        ExpectedCost(params(), (gen(1, 10.0),)).egns(np.zeros(12),
                                                     np.zeros((12, 3)))


def test_ewl_cost_examples():
    ewl = ExpectedCost(params(), ()).ewl
    assert ewl(np.zeros(12)) == 0.0
    assert ewl(one_month(43.68)) == 31886.4
    assert ewl(2 * one_month(43.68)) == 2 * 31886.4


def test_line_capital_rate_spot_values():
    assert line_capital_rate(0.0) == 0.19
    assert line_capital_rate(50.0) == 17.69
    assert line_capital_rate(100.0) == 35.19
    with pytest.raises(ValueError):
        line_capital_rate(-1.0)


def test_outage_compensation_factor():
    assert outage_compensation_factor(0.1) == 9.0
    assert outage_compensation_factor(0.5) == 1.0
    with pytest.warns(UserWarning):
        assert outage_compensation_factor(0.0) == 0.0


def test_new_line_pays_full_rating():
    """A 100 MW, 40 km new line carries 35.19 * 40 = 1407.6 k$ capital."""
    base = bare_net(2, [(1, 2, 0.1)])
    net = ActiveNetwork(
        buses=base.buses,
        lines=(line(1, 1, 2, length=40.0, status="candidate", for_=0.5),),
    )
    assert TransmissionInvestment(net, params(c_t2=0.0))((100.0,)) == 1407.6


def test_existing_line_pays_only_its_increment():
    """Upgrading an existing line is charged on the added MW alone; an
    untouched existing line carries no capital at all."""
    base = bare_net(3, [(1, 2, 0.1), (2, 3, 0.1)])
    lines = (
        line(1, 1, 2, length=10.0, status="existing", cap=100.0, for_=0.5),
        line(2, 2, 3, length=10.0, status="existing", cap=100.0, for_=0.5),
    )
    net = ActiveNetwork(buses=base.buses, lines=lines)
    expected = line_capital_rate(20.0) * 10.0
    assert TransmissionInvestment(net, params(c_t2=0.0))(
        (120.0, 100.0)) == expected


def test_operating_charge_scales_with_rating_and_outage_factor():
    base = bare_net(2, [(1, 2, 0.1)])
    net = ActiveNetwork(
        buses=base.buses,
        lines=(line(1, 1, 2, length=10.0, status="existing", cap=50.0,
                    for_=0.1),),
    )
    p = params(c_t2=0.002)
    caps = net.base_capacities
    operating_only = TransmissionInvestment(net, p)(caps) \
        - TransmissionInvestment(net, params(c_t2=0.0))(caps)
    assert operating_only == pytest.approx(0.002 * 10.0 * 50.0 * 9.0)


def test_generation_investment_units():
    """100 MW of new plant at 1 k$/kW is 100000 k$ of capital; 50 MW
    dispatched every month at 0.001 k$/kWh is 438000 k$ of operating."""
    case = build_case(
        [0, 40],
        [line(1, 1, 2)],
        [gen(1, 100.0, cost=0.001, capital=1.0, is_new=True),
         gen(2, 100.0, cost=0.0, capital=1.0, is_new=False)],
    )
    schedules = [(50.0, 0.0)] * 12
    total = generation_investment(case, schedules)
    assert total == 100000.0 + 438000.0


def test_objective_decomposes_exactly():
    b = objective(10.0, 20.0, 30.0, 400.0, 5000.0)
    assert b.ec == 60.0
    assert b.j == b.ec + b.t_inv + b.g_inv
    money = b.in_millions()
    assert money["j"] == pytest.approx(5.46)
    assert money["ec"] == pytest.approx(0.06)
