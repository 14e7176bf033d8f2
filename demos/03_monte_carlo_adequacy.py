"""Monte Carlo adequacy assessment of a fixed expansion plan.

Forced outages make adequacy a probabilistic question: every month, each
line and generator is out with its forced outage rate (FOR), and the
network that remains must move whatever the merit-order dispatch
produces. This demo estimates the expected adequacy indices of the
bundled seven-bus case by sampled contingency states:

  1. for each of the 12 monthly load scenarios, draw N outage states
     (elements out independently with probability FOR; states that
     island demand or leave too few units online are redrawn);
  2. dispatch, solve the DC flow, truncate line flows at ratings, and
     read off DNS/GNS/WL per state plus which lines were congested;
  3. average into EDNS / EGNS / EWL and per-line congestion
     probabilities P_con.

Identical seeds reproduce identical estimates bit-for-bit: every slot
draws from its own counter-derived random stream. One evaluator sums its
states in the order they were first drawn, so after pricing other
rating vectors it can differ from a fresh evaluator in the last bits
(seen up to 7e-15 MW).

Run:  python demos/03_monte_carlo_adequacy.py
"""

from __future__ import annotations

from pathlib import Path

from gridtep import (
    Chromosome,
    PlanEvaluator,
    PlanSettings,
    RunContext,
    apply_plan,
    chromosome_entropy,
    load_case,
)

CASE = Path(__file__).resolve().parent.parent / "cases" / "fig1-7bus.json"


def main() -> None:
    case = load_case(CASE)
    # Build every candidate corridor so nothing is islanded; ratings stay
    # at their 5 MW starting value, so congestion is everywhere.
    bits = tuple([True] * len(case.candidate_lines))
    net = apply_plan(case, Chromosome(bits))

    n_mcs = 500
    evaluator = PlanEvaluator(
        RunContext(case), net, PlanSettings(mode="mcs", n_mcs=n_mcs),
        entropy=chromosome_entropy(seed=0, bits=bits),
    )
    ev = evaluator.evaluate(net.base_capacities)
    report = ev.report

    print(f"bundled case, all {len(case.candidate_lines)} candidates built"
          f" at base ratings, {n_mcs} samples per month")
    print("\nmonth  EDNS (MW)  EGNS (MW)  EWL (MW)")
    for m in range(12):
        print(f"{m + 1:>5}  {report.edns[m]:9.2f}  {report.egns[m]:9.2f}"
              f"  {report.ewl[m]:8.2f}")
    print(f" mean  {report.edns.mean():9.2f}  {report.egns.mean():9.2f}"
          f"  {report.ewl.mean():8.2f}")

    print("\nmost congested lines (pooled over months):")
    pooled = ev.congestion_probability
    order = pooled.argsort()[::-1][:5]
    for k in order:
        ln = net.lines[k]
        print(f"  line {ln.id} ({ln.from_bus}->{ln.to_bus},"
              f" rating {ln.base_capacity_mw:5.1f} MW):"
              f" P_con = {pooled[k]:.3f}")

    money = ev.breakdown.in_millions()
    print(f"\nexpected cost of this plan: {money['ec']:.2f} M$/yr"
          f" (EDNS {money['edns_cost']:.2f}, EGNS {money['egns_cost']:.2f},"
          f" EWL {money['ewl_cost']:.2f})")
    print("high P_con at 5 MW ratings is the signal the capacity-sizing"
          " loop consumes (see demo 04)")


if __name__ == "__main__":
    main()
