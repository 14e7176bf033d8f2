"""The benchmark's three workloads on the 7-bus case, and their checks.

Each workload turns a seed into inputs (case file, plan files, CLI
argument lists), runs them through ``gridtep.cli.main`` in-process, and
checks every call's outputs: the invariants on any seed, and the
reference fingerprint in ``reference.json`` on the workload's default
seed.

* ``plan_mcs_wel`` - GA study, MCS mode, WEL policy. Most of its draws are
  validity redraws, so it exercises the redraw loop in
  ``_McsScenario.result`` and shows the slow-plan tail.
* ``adequacy_mcs`` - six ``adequacy`` calls on fixed plans with every
  line rated 300 MW: sampling at scale with no validity redraws.
* ``plan_n2_nl`` - GA study, N-2 enumeration, NL policy: no sampling,
  many cheap plans, dominated by DC solves.

The GA seed alone changes how much work a study does several-fold on
this case (which chromosomes it visits, and so how many redraws they
need). The plan workloads therefore keep the GA/MCS ``--seed`` at the
reference value and take their seeded input from a price scenario: the
EDNS, EGNS, EWL and line-investment prices of the case, each scaled by a
factor in [0.8, 1.25]. The default seed prices the case as shipped.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gridtep import cli
from gridtep.contingency import is_islanded
from gridtep.network import Chromosome, apply_plan, load_case

CASE = "cases/fig1-7bus.json"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEEDS = {"plan_mcs_wel": 7, "adequacy_mcs": 3, "plan_n2_nl": 7}

GA_SEED = 7  # the reference GA/MCS seed of both plan workloads
PRICE_RANGE = (0.8, 1.25)
ADEQUACY_CALLS = 6
ADEQUACY_ITERS = 250
ADEQUACY_BUILT = 7  # candidate lines built in each assessed plan
ADEQUACY_RATING_MW = 300.0
REL_TOL = 1e-9

PLAN_FLAGS = {
    "plan_mcs_wel": ["--mode", "mcs", "--policy", "wel", "--mcs-iters", "25",
                     "--generations", "2", "--pop-size", "8"],
    "plan_n2_nl": ["--mode", "n2", "--policy", "nl",
                   "--generations", "6", "--pop-size", "8"],
}
NAMES = ("plan_mcs_wel", "adequacy_mcs", "plan_n2_nl")


@dataclass
class Call:
    argv: list[str]
    out: Path
    expect: dict | None = None  # reference fingerprint, default seed only


@dataclass
class Study:
    name: str
    seed: int
    calls: list[Call]
    ga_evaluations: int  # pop * (gens + 1); 0 for adequacy
    captured: dict = field(default_factory=dict)  # out dir -> adequacy report

    @property
    def is_plan(self) -> bool:
        return self.name != "adequacy_mcs"


def prepare(name: str, seed: int, root: Path, work: Path) -> Study:
    """Inputs of one workload for one seed, written under ``work``, with
    the reference fingerprint attached on the default seed."""
    study = inputs(name, seed, root, work)
    if seed == DEFAULT_SEEDS[name]:
        expected = json.loads(REFERENCE.read_text())[name]
        for call, expect in zip(study.calls, expected, strict=True):
            call.expect = expect
    return study


def inputs(name: str, seed: int, root: Path, work: Path) -> Study:
    """Inputs of one workload for one seed, written under ``work``."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    work.mkdir(parents=True, exist_ok=True)
    if name == "adequacy_mcs":
        return _adequacy_inputs(seed, root, work)
    case = _price_scenario(seed, DEFAULT_SEEDS[name], root, work)
    flags = PLAN_FLAGS[name]
    out = work / name
    argv = ["plan", "--case", str(case), *flags, "--seed", str(GA_SEED),
            "--out", str(out)]
    pop = int(flags[flags.index("--pop-size") + 1])
    gens = int(flags[flags.index("--generations") + 1])
    return Study(name, seed, [Call(argv, out)],
                 ga_evaluations=pop * (gens + 1))


def _price_scenario(seed: int, default: int, root: Path, work: Path) -> Path:
    if seed == default:
        return root / CASE
    data = json.loads((root / CASE).read_text())
    lo, hi = np.log(PRICE_RANGE)
    f = np.exp(np.random.default_rng(seed).uniform(lo, hi, size=4))
    costs = data["costs"]
    for k, key in enumerate(("c_edns", "c_egns", "c_ewl")):
        costs[key] = [float(v * f[k]) for v in costs[key]]
    costs["c_t2"] = float(costs["c_t2"] * f[3])
    path = work / "case.json"
    path.write_text(json.dumps(data))
    return path


def _adequacy_inputs(seed: int, root: Path, work: Path) -> Study:
    case_path = root / CASE
    case = load_case(case_path)
    n = len(case.candidate_lines)
    calls = []
    for k in range(ADEQUACY_CALLS):
        rng = np.random.default_rng([seed, k])
        while True:
            bits = [0] * n
            for j in rng.choice(n, size=ADEQUACY_BUILT, replace=False):
                bits[int(j)] = 1
            net = apply_plan(case, Chromosome.from_ints(bits))
            if not is_islanded(case, net, frozenset(), frozenset()):
                break
        plan = work / f"plan{k}.json"
        plan.write_text(json.dumps({"result": {"best": {
            "bits": bits,
            "capacities_mw": [ADEQUACY_RATING_MW] * len(net.lines),
        }}}))
        out = work / f"adequacy{k}"
        argv = ["adequacy", "--case", str(case_path), "--plan-file",
                str(plan), "--mcs-iters", str(ADEQUACY_ITERS),
                "--seed", str(seed), "--out", str(out)]
        calls.append(Call(argv, out))
    return Study("adequacy_mcs", seed, calls, ga_evaluations=0)


# -- running ---------------------------------------------------------------

def run_study(study: Study) -> tuple[float, list[int | None]]:
    """Run every call once. Returns the wall time of the calls and each
    call's exit code (None when it raised)."""
    codes: list[int | None] = []
    study.captured = {}
    original = cli.write_adequacy_csv

    def capture(path, report):  # full-precision means for the fingerprint
        study.captured[Path(path).parent] = report
        return original(path, report)

    cli.write_adequacy_csv = capture
    sink = io.StringIO()
    try:
        start = time.perf_counter()
        for call in study.calls:
            try:
                with redirect_stdout(sink):
                    codes.append(cli.main(call.argv))
            except Exception:  # a call that raises counts as failed
                traceback.print_exc()
                codes.append(None)
        took = time.perf_counter() - start
    finally:
        cli.write_adequacy_csv = original
    return took, codes


def check_study(study: Study, codes) -> list[str]:
    """One problem string per failed call; empty when all calls pass."""
    problems = []
    for k, (call, code) in enumerate(zip(study.calls, codes)):
        if code != 0:
            problems.append(f"call {k}: exit code {code}")
            continue
        try:
            if study.is_plan:
                errs = _check_plan(call)
            else:
                errs = _check_adequacy(call, study.captured.get(call.out))
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            errs = [f"unreadable output: {exc!r}"]
        if errs:
            problems.append(f"call {k}: " + "; ".join(errs))
    return problems


def _close(a: float, b: float) -> bool:
    # Relative below magnitude 1 would compare float noise (EGNS of order
    # 1e-13 MW), so small values are compared absolutely to REL_TOL.
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def _check_plan(call: Call) -> list[str]:
    errs = []
    best = json.loads((call.out / "plan.json").read_text())["result"]["best"]
    k = best["costs_kusd"]
    if not best["feasible"] or not math.isfinite(k["j"]):
        errs.append("best plan is infeasible")
    if not _close(k["j"], k["ec"] + k["t_inv"] + k["g_inv"]):
        errs.append("J != EC + T_inv + G_inv")
    with open(call.out / "history.csv", newline="") as fh:
        history = [float(r["best_j_kusd"]) for r in csv.DictReader(fh)]
    if not history or any(b > a for a, b in zip(history, history[1:])):
        errs.append("history.csv increases")
    ex = best["expectations"]
    for key in ("edns_mw_by_month", "egns_mw_by_month", "ewl_mw_by_month",
                "ego_mw_by_month_per_generator",
                "congestion_probability_by_month_per_line"):
        rows = ex[key]
        if len(rows) != 12:
            errs.append(f"{key} has {len(rows)} monthly rows")
        if np.any(np.asarray(rows, dtype=float) < 0):
            errs.append(f"{key} has a negative expectation")
    if call.expect is not None:
        if best["bits"] != call.expect["bits"]:
            errs.append(f"best bits {best['bits']} != reference")
        if not _close(k["j"], call.expect["j_kusd"]):
            errs.append(f"J {k['j']!r} != reference {call.expect['j_kusd']!r}")
        if best["sizing"]["stop_reason"] != call.expect["stop_reason"]:
            errs.append("sizing stop reason differs from reference")
    return errs


def _check_adequacy(call: Call, report) -> list[str]:
    errs = []
    with open(call.out / "adequacy.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 12:
        errs.append(f"adequacy.csv has {len(rows)} monthly rows")
    if any(float(r[c]) < 0 for r in rows
           for c in ("edns_mw", "egns_mw", "ewl_mw")):
        errs.append("adequacy.csv has a negative expectation")
    if report is None:
        return errs + ["adequacy report was not written"]
    means = adequacy_means(report)
    if any(v < 0 for v in means.values()):
        errs.append("negative mean expectation")
    if call.expect is not None:
        for key, value in means.items():
            if not _close(value, call.expect[key]):
                errs.append(f"{key} {value!r} != reference "
                            f"{call.expect[key]!r}")
    return errs


def adequacy_means(report) -> dict[str, float]:
    return {"edns_mw": float(report.edns.mean()),
            "egns_mw": float(report.egns.mean()),
            "ewl_mw": float(report.ewl.mean())}


def fingerprint(study: Study) -> list[dict]:
    """Reference entries of a study that has just run, one per call."""
    if not study.is_plan:
        return [adequacy_means(study.captured[c.out]) for c in study.calls]
    entries = []
    for call in study.calls:
        best = json.loads((call.out / "plan.json").read_text())
        best = best["result"]["best"]
        entries.append({"bits": best["bits"],
                        "j_kusd": best["costs_kusd"]["j"],
                        "stop_reason": best["sizing"]["stop_reason"]})
    return entries
