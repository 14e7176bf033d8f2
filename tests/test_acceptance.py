"""Acceptance checklist: one test per release criterion.

Each test registers a one-line pass/fail verdict that the terminal
summary prints after the run (see conftest.py), then asserts it.
"""

from __future__ import annotations

import itertools
import json
import warnings
from math import comb

import numpy as np
import pytest

from gridtep.adequacy import balance_from_diffs, line_overloads, nodal_balance
from gridtep.cli import EXIT_OK, main
from gridtep.contingency import is_islanded
from gridtep.costs import line_capital_rate
from gridtep.dcflow import flow_residual, solve
from gridtep.evaluation import (POLICY_WEL, PlanEvaluator, PlanSettings,
                                RunContext)
from gridtep.network import Chromosome, apply_plan, load_case
from gridtep.planner import GaConfig, evaluate_chromosome, run
from gridtep.rng import chromosome_entropy
from gridtep.sizing import sizing_loop

from _criteria import record
from _toys import (
    adequacy_reference,
    bare_net,
    ga_toy_case,
    mcs_toy_case,
    random_balanced_parts,
    random_connected_net,
)

from test_network import BUNDLED
from test_sizing import seeded_updates


def check(number, ok, text):
    record(number, ok, text)
    assert ok, f"criterion {number}: {text}"


# ---------------------------------------------------------------------------
# Shared expensive runs (bundled case, all candidates built, desk scale)

ALL_ONES = tuple([True] * 14)
DESK_MCS = 1000
SIZING_SEED = 5


@pytest.fixture(scope="module")
def bundled_case():
    return load_case(BUNDLED)


def _sized_run(case, policy):
    """Sizing loop on the all-candidates plan; returns the evaluator,
    the trace, and the final ratings."""
    net = apply_plan(case, Chromosome(ALL_ONES))
    entropy = chromosome_entropy(SIZING_SEED, ALL_ONES)
    settings = PlanSettings(mode="mcs", policy=policy, n_mcs=DESK_MCS,
                            delta_f=5.0, congestion_threshold=0.1)
    evaluator = PlanEvaluator(RunContext(case), net, settings, entropy)
    trace = sizing_loop(net, evaluator.evaluate, settings, entropy)
    return evaluator, trace, trace.final_capacities


@pytest.fixture(scope="module")
def bundled_wel_run(bundled_case):
    return _sized_run(bundled_case, "wel")


@pytest.fixture(scope="module")
def bundled_nl_run(bundled_case):
    return _sized_run(bundled_case, "nl")


# ---------------------------------------------------------------------------
# Criteria

def test_criterion_01_worked_diff_classification():
    balance = balance_from_diffs([-25.0, 0.0, 9.02, 15.83, 0.0],
                                 demand=[0.0, 0.0, 30.0, 40.0, 0.0],
                                 generation=[70.0, 0.0, 0.0, 0.0, 0.0])
    ok = (
        balance.gns[0] == 25.0
        and balance.dns[2] == 9.02
        and balance.dns[3] == 15.83
        and abs(balance.total_dns - 24.85) <= 0.02
        and balance.total_gns == 25.0
    )
    check(1, ok, "DIFF {-25, 0, 9.02, 15.83, 0} classifies to GNS_1=25, "
                 "DNS_3=9.02, DNS_4=15.83, system DNS 24.85 +/- 0.02, GNS 25")


def test_criterion_02_wheeling_loss_exact():
    _, wl = line_overloads(np.array([27.85, 15.83]), np.zeros(2))
    check(2, wl == 43.68, "overloads {27.85, 15.83} sum to WL = 43.68 exactly")


def test_criterion_03_line_capital_rate_spot_values():
    ok = line_capital_rate(0.0) == 0.19 and line_capital_rate(100.0) == 35.19
    check(3, ok, "line capital rate: F=0 -> 0.19, F=100 -> 35.19 k$/km exact")


def test_criterion_04_system_dns_equals_gns():
    rng = np.random.default_rng(404)
    worst = 0.0
    ok = True
    for _ in range(1000):
        net = random_connected_net(rng)
        demand, generation = random_balanced_parts(rng, net.n_buses)
        flows = solve(net, generation - demand).flows
        caps = rng.uniform(0.0, 80.0, size=len(net.lines))
        balance = nodal_balance(net, flows, demand, generation, capacities=caps)
        gap = abs(balance.total_dns - balance.total_gns)
        worst = max(worst, gap / demand.sum())
        ok = ok and gap <= 1e-6 * demand.sum()
    check(4, ok, "1000 random balanced cases: |system DNS - GNS| <= 1e-6 x "
                 f"total demand (worst relative gap {worst:.2e})")


def test_criterion_05_dc_solver_oracle():
    rng = np.random.default_rng(505)
    ok = True
    for _ in range(200):
        net = random_connected_net(rng)
        p1 = rng.uniform(-100, 100, size=net.n_buses)
        p1 -= p1.mean()
        p2 = rng.uniform(-100, 100, size=net.n_buses)
        p2 -= p2.mean()
        s1 = solve(net, p1)
        ok = ok and flow_residual(net, s1) <= 1e-6
        f2 = solve(net, p2).flows
        f_sum = solve(net, p1 + p2).flows
        f_scaled = solve(net, 3.0 * p1).flows
        ok = ok and np.allclose(f_sum, s1.flows + f2, rtol=1e-9, atol=1e-9)
        ok = ok and np.allclose(f_scaled, 3.0 * s1.flows, rtol=1e-9, atol=1e-9)
    check(5, ok, "200 random networks: nodal residual <= 1e-6 MW, "
                 "linearity and superposition within 1e-9")


def _exhaustive_toy_oracle(case, net, caps):
    """Exact conditional expectations over all 2^6 outage combinations,
    weighted by forced-outage products, with the sampler's feasibility
    rules and the estimator's validity screen applied identically."""
    from gridtep.evaluation import build_record

    context = RunContext(case)
    line_ids = [ln.id for ln in net.lines]
    line_for = {ln.id: ln.forced_outage_rate for ln in net.lines}
    gen_for = [g.forced_outage_rate for g in case.generators]

    states = []
    for k_lines in range(len(line_ids) + 1):
        for lines_out in itertools.combinations(line_ids, k_lines):
            for k_gens in range(len(gen_for) + 1):
                for gens_out in itertools.combinations(
                        range(len(gen_for)), k_gens):
                    w = 1.0
                    for lid in line_ids:
                        f = line_for[lid]
                        w *= f if lid in lines_out else (1 - f)
                    for g in range(len(gen_for)):
                        f = gen_for[g]
                        w *= f if g in gens_out else (1 - f)
                    states.append((frozenset(lines_out), frozenset(gens_out), w))
    assert len(states) == 2 ** (len(line_ids) + len(gen_for))

    total_w = 0.0
    moments = np.zeros((2, 3))  # rows: E[x], E[x^2]; cols: dns, gns, wl
    for lines_out, gens_out, w in states:
        online = len(case.generators) - len(gens_out)
        if online < case.min_online_generators:
            continue
        if is_islanded(case, net, lines_out, gens_out):
            continue
        from gridtep.contingency import OutageState
        rec = build_record(context, net, case.ldc.peak_month(),
                           OutageState(lines_out, gens_out))
        ref = adequacy_reference(net, rec.flows, rec.demand, rec.generation,
                                 caps)
        if not ref.valid:
            continue
        x = np.array([ref.total_dns + rec.deficit, ref.total_gns,
                      ref.wheeling])
        total_w += w
        moments[0] += w * x
        moments[1] += w * x ** 2
    mean = moments[0] / total_w
    var = moments[1] / total_w - mean ** 2
    return mean, np.maximum(var, 0.0)


def test_criterion_06_mcs_matches_exhaustive_oracle():
    case = mcs_toy_case()
    net = apply_plan(case, Chromosome.from_ints([]))
    caps = np.asarray(net.base_capacities)
    exact_mean, exact_var = _exhaustive_toy_oracle(case, net, caps)

    n_mcs = 1000
    evaluator = PlanEvaluator(RunContext(case), net,
                              PlanSettings(mode="mcs", n_mcs=n_mcs),
                              entropy=[606, 1])
    report = evaluator.evaluate(caps).report
    estimates = np.array([
        report.edns.mean(), report.egns.mean(), report.ewl.mean(),
    ])
    n_total = 12 * n_mcs  # flat load curve: twelve independent batches
    se = np.sqrt(exact_var / n_total)
    gaps = np.abs(estimates - exact_mean)
    ok = bool(np.all(gaps <= 3 * se + 1e-9))
    check(6, ok,
          "toy-case MCS (12 x 1000 samples) vs exact 2^6 enumeration: "
          f"EDNS gap {gaps[0]:.4f} <= {3 * se[0]:.4f}, "
          f"EGNS gap {gaps[1]:.4f} <= {3 * se[1]:.4f}, "
          f"EWL gap {gaps[2]:.4f} <= {3 * se[2]:.4f} (3 SE)")


def test_criterion_07_roulette_conservation(monkeypatch):
    """500 sizing updates on a 4-line ring whose stub evaluator draws
    seeded congestion probabilities at every call."""
    net = bare_net(4, [(1, 2, 0.1), (2, 3, 0.1), (3, 4, 0.1), (4, 1, 0.1)])
    settings = PlanSettings(policy=POLICY_WEL, delta_f=5.0,
                            congestion_threshold=0.1)
    ok = seeded_updates(net, settings, 707, monkeypatch, n_updates=500)
    check(7, ok, "500 seeded spin rounds: sum m_j = N, F_j updates exact, "
                 "lines at P_con <= 0.1 untouched")


def test_criterion_08_sizing_terminates_and_clears_congestion(
        bundled_case, bundled_wel_run):
    _, trace, final_caps = bundled_wel_run
    fresh = PlanEvaluator(
        RunContext(bundled_case),
        apply_plan(bundled_case, Chromosome(ALL_ONES)),
        PlanSettings(mode="mcs", n_mcs=DESK_MCS),
        chromosome_entropy(SIZING_SEED + 1, ALL_ONES),
    )
    p_con = fresh.evaluate(final_caps).congestion_probability
    sigma = (0.1 * 0.9 / (12 * DESK_MCS)) ** 0.5
    bound = 0.1 + 3 * sigma
    ok = trace.iterations <= 200 and bool(np.all(p_con <= bound))
    check(8, ok,
          f"WEL sizing stopped after {trace.iterations} iterations "
          f"({trace.stop_reason}); fresh-seed re-evaluation max P_con "
          f"{p_con.max():.4f} <= {bound:.4f}")


def _strip_wall_time(text):
    return "\n".join(
        ln for ln in text.splitlines() if '"wall_time_s"' not in ln)


def test_criterion_09_plan_json_is_deterministic(tmp_path):
    flags = ["plan", "--case", str(BUNDLED), "--mode", "mcs",
             "--policy", "nl", "--seed", "123", "--mcs-iters", "100",
             "--pop-size", "4", "--generations", "2"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(flags + ["--out", str(out_a)]) == EXIT_OK
    assert main(flags + ["--out", str(out_b)]) == EXIT_OK
    text_a = (out_a / "plan.json").read_text()
    text_b = (out_b / "plan.json").read_text()
    ok = _strip_wall_time(text_a) == _strip_wall_time(text_b)
    check(9, ok, "two plan runs with identical flags and seed produce "
                 "byte-identical plan.json (wall time excluded)")


def test_criterion_10_upgrading_existing_lines_is_directionally_cheaper(
        bundled_case, bundled_wel_run, bundled_nl_run):
    """Directional check only: the source study's absolute figures (EDNS
    71.43 -> 20.71 MW, J 140.4 -> 104.69 M$) depend on network data not
    published with it and are not reproducible here."""
    g_inv = 0.0  # identical for both policies; irrelevant to the ordering
    js = {}
    for name, (evaluator, trace, final_caps) in (
            ("wel", bundled_wel_run), ("nl", bundled_nl_run)):
        ev = evaluator.evaluate(final_caps)
        js[name] = ev.breakdown.ec + ev.breakdown.t_inv + g_inv
    ok = js["wel"] <= js["nl"]
    check(10, ok,
          f"fixed seed, all-candidates plan: J(WEL) = {js['wel'] / 1000:.2f} "
          f"M$ + G_inv <= J(NL) = {js['nl'] / 1000:.2f} M$ + G_inv "
          "(absolute study figures are not reproducible from published data; "
          "directional check only)")


def _best_j_musd(out_dir):
    payload = json.loads((out_dir / "plan.json").read_text())
    return payload["result"]["best"]["costs_musd"]["j"]


def test_criterion_11_deterministic_modes_complete(tmp_path):
    js = {}
    for mode in ("n1", "n2", "mcs"):
        out = tmp_path / mode
        code = main([
            "plan", "--case", str(BUNDLED), "--mode", mode,
            "--seed", "7", "--mcs-iters", "150", "--pop-size", "4",
            "--generations", "2", "--out", str(out),
        ])
        assert code == EXIT_OK
        report = (out / "report.csv").read_text()
        for metric in ("edns_mw", "ewl_mw", "t_inv_musd", "ec_musd", "j_musd"):
            assert f"metric,{metric}" in report
        js[mode] = _best_j_musd(out)
    ok = all(np.isfinite(v) for v in js.values())
    if not (js["n1"] <= js["n2"] <= js["mcs"]):
        warnings.warn(
            "mode-cost ordering J(n1) <= J(n2) <= J(mcs) does not hold on "
            f"this case: {js} (soft expectation only)")
    check(11, ok,
          f"n1/n2/mcs studies complete with full metric rows; J = "
          f"{js['n1']:.2f} / {js['n2']:.2f} / {js['mcs']:.2f} M$")


def test_criterion_12_ga_matches_exhaustive_search():
    case = ga_toy_case()
    settings = PlanSettings(mode="n1")
    ga = GaConfig(population_size=10, generations=50, seed=1)
    result = run(case, ga, settings)

    history_ok = all(
        b <= a for a, b in zip(result.history, result.history[1:]))
    best_exhaustive = min(
        evaluate_chromosome(RunContext(case), Chromosome.from_ints(bits),
                            settings, ga.seed).j
        for bits in itertools.product([0, 1], repeat=6)
    )
    ok = history_ok and result.best.j == best_exhaustive
    check(12, ok,
          "best-J history non-increasing and seeded GA (50 generations) "
          f"matches the 64-plan exhaustive optimum ({best_exhaustive:.1f} k$)")
