"""Command-line front end.

Three subcommands: ``plan`` runs the full GA study and writes plan.json,
report.csv, and history.csv; ``validate`` checks a case file against the
model invariants; ``adequacy`` reports one-shot expected adequacy indices
for a fixed network, without sizing or search.

Exit codes: 0 success, 1 case validation/parse failure, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache
from pathlib import Path

from . import __version__
from .errors import CaseParseError, CaseValidationError, GridTepError
from .evaluation import (MODES, POLICIES, PlanEvaluator, PlanSettings,
                         RunContext, is_integer)
from .network import Chromosome, apply_plan, load_case
from .contingency import is_islanded
from .planner import GaConfig, run
from .report import (
    plan_payload,
    write_adequacy_csv,
    write_history_csv,
    write_plan_json,
    write_report_csv,
)
from .rng import chromosome_entropy

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: each ``main`` call parses
    with it, so no call leaves a parser in reference cycles."""
    parser = argparse.ArgumentParser(
        prog="gridtep",
        description="Probabilistic transmission expansion planning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="run the GA expansion study")
    p_plan.add_argument("--case", required=True, help="case file (JSON)")
    p_plan.add_argument("--mode", choices=MODES, default=PlanSettings.mode)
    p_plan.add_argument("--policy", choices=POLICIES,
                        default=PlanSettings.policy)
    p_plan.add_argument("--seed", type=int, default=0)
    p_plan.add_argument("--mcs-iters", type=int, default=PlanSettings.n_mcs,
                        help="Monte Carlo samples per scenario")
    p_plan.add_argument("--generations", type=int, default=20)
    p_plan.add_argument("--pop-size", type=int, default=10)
    p_plan.add_argument("--delta-f", type=float, default=PlanSettings.delta_f,
                        help="MW added per roulette hit")
    p_plan.add_argument("--congestion-threshold", type=float,
                        default=PlanSettings.congestion_threshold)
    p_plan.add_argument("--out", default=".", help="output directory")
    p_plan.set_defaults(func=cmd_plan)

    p_val = sub.add_parser("validate", help="check a case file")
    p_val.add_argument("--case", required=True)
    p_val.set_defaults(func=cmd_validate)

    p_adq = sub.add_parser("adequacy",
                           help="expected adequacy of a fixed network")
    p_adq.add_argument("--case", required=True)
    p_adq.add_argument("--mode", choices=MODES, default=PlanSettings.mode)
    p_adq.add_argument("--seed", type=int, default=0)
    p_adq.add_argument("--mcs-iters", type=int, default=PlanSettings.n_mcs)
    plan_source = p_adq.add_mutually_exclusive_group()
    plan_source.add_argument(
        "--plan", default=None,
        help="candidate bits as a 0/1 string (default: none built)")
    plan_source.add_argument(
        "--plan-file", default=None,
        help="plan.json whose best plan (bits and sized capacities) is assessed")
    p_adq.add_argument("--out", default=None,
                       help="directory for adequacy.csv (default: print only)")
    p_adq.set_defaults(func=cmd_adequacy)
    return parser


def _load(path: str):
    try:
        return load_case(path)
    except (CaseParseError, CaseValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _out_dir(path) -> Path:
    """The output directory, created if need be."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise GridTepError(f"cannot use --out {path}: {exc}") from exc
    return out


def cmd_plan(args) -> int:
    try:
        settings = PlanSettings(
            mode=args.mode,
            policy=args.policy,
            n_mcs=args.mcs_iters,
            delta_f=args.delta_f,
            congestion_threshold=args.congestion_threshold,
        )
        ga = GaConfig(
            population_size=args.pop_size,
            generations=args.generations,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    case = _load(args.case)
    if case is None:
        return EXIT_VALIDATION
    try:
        out = _out_dir(args.out)
        started = time.perf_counter()
        result = run(case, ga, settings)
    except GridTepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    wall = time.perf_counter() - started

    manifest = dict(
        command="plan",
        case_path=str(args.case),
        mode=args.mode,
        policy=args.policy,
        seed=args.seed,
        mcs_iters=args.mcs_iters,
        generations=args.generations,
        pop_size=args.pop_size,
        delta_f=args.delta_f,
        congestion_threshold=args.congestion_threshold,
        tool_version=__version__,
        wall_time_s=wall,
    )
    write_plan_json(out / "plan.json", plan_payload(manifest, result))
    write_report_csv(out / "report.csv", case, result)
    write_history_csv(out / "history.csv", result.history)

    money = result.best.breakdown.in_millions()
    if result.best.feasible:
        print(f"best J = {money['j']:.2f} M$ "
              f"(EC {money['ec']:.2f}, T_inv {money['t_inv']:.2f}, "
              f"G_inv {money['g_inv']:.2f}); artifacts in {out}")
    else:
        print("no feasible plan found; artifacts written anyway",
              file=sys.stderr)
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        case = load_case(args.case)
    except CaseParseError as exc:
        print(f"parse: FAIL - {exc}")
        return EXIT_VALIDATION
    except CaseValidationError as exc:
        print("parse: ok")
        for path, message in exc.failures:
            print(f"{path}: FAIL - {message}")
        return EXIT_VALIDATION
    print("parse: ok")
    print(f"buses: ok ({len(case.buses)})")
    print(f"lines: ok ({len(case.existing_lines)} existing, "
          f"{len(case.candidate_lines)} candidate)")
    print(f"generators: ok ({len(case.generators)})")
    print("ldc: ok")
    print("costs: ok")
    return EXIT_OK


def _plan_bits(args, case) -> tuple[Chromosome, tuple[float, ...] | None]:
    """The assessed plan's bits, and its sized capacities when it comes
    from a plan file."""
    n = len(case.candidate_lines)
    if args.plan is not None:
        text = args.plan.strip()
        if len(text) != n or any(c not in "01" for c in text):
            raise GridTepError(
                f"--plan must be a {n}-character string of 0s and 1s")
        return Chromosome.from_ints(int(c) for c in text), None
    if args.plan_file is None:
        return Chromosome.from_ints([0] * n), None
    try:
        best = json.loads(Path(args.plan_file).read_text())["result"]["best"]
        raw_bits = list(best["bits"])
        capacities = tuple(best["capacities_mw"])
    except OSError as exc:
        raise GridTepError(f"cannot read plan file: {exc}") from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise GridTepError(
            f"{args.plan_file} is not a readable plan.json: {exc!r}") from exc
    if len(raw_bits) != n or not all(is_integer(b) and b in (0, 1)
                                     for b in raw_bits):
        raise GridTepError(
            f"plan file bits must be {n} 0s and 1s, one per candidate line")
    bits = Chromosome.from_ints(raw_bits)
    n_lines = len(case.existing_lines) + sum(bits.bits)
    if len(capacities) != n_lines:
        raise GridTepError(
            f"plan file has {len(capacities)} capacities for the plan's "
            f"{n_lines} lines (an infeasible plan has none)")
    # JSON numbers only: a bool or a string is not a rating, and an
    # integer past the float range is not finite.
    if not all((is_integer(c) or isinstance(c, float))
               and 0 <= c <= sys.float_info.max for c in capacities):
        raise GridTepError(
            "plan file capacities must be finite and >= 0 MW")
    return bits, tuple(map(float, capacities))


def cmd_adequacy(args) -> int:
    try:
        settings = PlanSettings(mode=args.mode, n_mcs=args.mcs_iters)
        if not args.seed >= 0:
            raise ValueError(f"seed must be >= 0, got {args.seed!r}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    case = _load(args.case)
    if case is None:
        return EXIT_VALIDATION
    try:
        chromosome, capacities = _plan_bits(args, case)
        net = apply_plan(case, chromosome)
        if is_islanded(case, net, frozenset(), frozenset()):
            raise GridTepError(
                "plan leaves a demand bus or generator bus disconnected")
        out = None if args.out is None else _out_dir(args.out)
        evaluator = PlanEvaluator(
            RunContext(case), net, settings,
            chromosome_entropy(args.seed, chromosome.bits),
        )
        ev = evaluator.evaluate(
            net.base_capacities if capacities is None else capacities)
    except GridTepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    report = ev.report
    print("month  edns_mw     egns_mw     ewl_mw")
    for m in range(12):
        print(f"{m + 1:>5}  {report.edns[m]:<10.4f}  "
              f"{report.egns[m]:<10.4f}  {report.ewl[m]:<10.4f}")
    print(f"mean   {report.edns.mean():<10.4f}  "
          f"{report.egns.mean():<10.4f}  {report.ewl.mean():<10.4f}")
    if out is not None:
        write_adequacy_csv(out / "adequacy.csv", report)
        print(f"wrote {out / 'adequacy.csv'}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
