"""Roulette-wheel capacity sizing with the marginal-cost stopping rule.

Given a fixed set of built lines, how large should each one be? The
sizing loop grows ratings iteratively using congestion statistics from
Monte Carlo simulation:

  1. evaluate the network: expected cost EC (price of EDNS + EGNS + EWL)
     and per-line congestion probabilities P_con;
  2. lines with P_con above the threshold (default 0.1) that the policy
     may resize enter a roulette wheel, each segment proportional to its
     P_con;
  3. the wheel is spun once per eligible line; every hit adds one
     capacity step (default 5 MW) to the line it lands on, so the most
     congested lines grow fastest — but stochastically, not greedily;
  4. stop when nothing exceeds the threshold, or when the marginal
     expected-cost saving per added MW (MEC) no longer beats the
     marginal investment (MI).

Two policies: "nl" may only resize candidate (new) lines, "wel" may
also upgrade existing lines. Upgrades of existing lines are charged
capital on the added MW only.

Run:  python demos/04_capacity_sizing.py
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
    sizing_loop,
)

CASE = Path(__file__).resolve().parent.parent / "cases" / "fig1-7bus.json"


def main() -> None:
    case = load_case(CASE)
    bits = tuple([True] * len(case.candidate_lines))
    net = apply_plan(case, Chromosome(bits))
    entropy = chromosome_entropy(seed=0, bits=bits)

    settings = PlanSettings(mode="mcs", policy="wel", n_mcs=300,
                            delta_f=5.0, congestion_threshold=0.1)
    evaluator = PlanEvaluator(RunContext(case), net, settings, entropy)

    print("sizing the all-candidates plan (WEL policy, 5 MW steps)\n")
    trace = sizing_loop(net, evaluator.evaluate, settings, entropy)

    print("iter  F_N (MW)  EC (k$)      T_inv (k$)   MEC      MI")
    for s in trace.steps:
        total = sum(s.capacities)
        mec = "  --  " if s.mec is None else f"{s.mec:7.1f}"
        mi = "  --  " if s.mi is None else f"{s.mi:7.1f}"
        print(f"{s.iteration:>4}  {total:8.0f}  {s.expected_cost:11.1f}"
              f"  {s.transmission_investment:11.1f}  {mec}  {mi}")
    print(f"\nstopped: {trace.stop_reason} after {trace.iterations}"
          " iterations")

    grown = [
        (ln, before, after)
        for ln, before, after in zip(net.lines, net.base_capacities,
                                     trace.final_capacities)
        if after > before
    ]
    print(f"{len(grown)} of {len(net.lines)} lines grew:")
    for ln, before, after in grown:
        print(f"  line {ln.id:>2} ({ln.from_bus}->{ln.to_bus}, {ln.status}):"
              f" {before:6.1f} -> {after:6.1f} MW")

    p_con = trace.final_evaluation.congestion_probability
    print(f"\nmax P_con after sizing: {p_con.max():.3f}"
          " (was driven below the 0.1 threshold)")


if __name__ == "__main__":
    main()
