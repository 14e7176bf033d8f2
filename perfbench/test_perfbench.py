"""The benchmark's own checks.

Run from the repository root (takes a few minutes):

    python3 -m pytest perfbench -q

* Two traced studies give identical counts, and tracing leaves every
  output unchanged (the reference fingerprint was recorded untraced).
* At the reference sizes below, the traced counts reproduce the figures
  the benchmark was designed around.
* A name the tracer rebinds that no longer exists fails loudly.
* Outside a checkout the command exits non-zero without a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from gridtep import cli, evaluation  # noqa: E402
from tracer import Tracer, TracerError  # noqa: E402
from workloads import (  # noqa: E402
    CASE, DEFAULT_SEEDS, NAMES, Call, Study, check_study, fingerprint,
    inputs, prepare, run_study,
)


def traced(study: Study) -> Tracer:
    tracer = Tracer()
    with tracer:
        _, codes = run_study(study)
    assert check_study(study, codes) == []
    return tracer


@pytest.mark.parametrize("name", NAMES)
def test_traced_counts_repeat_and_match_reference(name, tmp_path):
    study = prepare(name, DEFAULT_SEEDS[name], ROOT, tmp_path)
    first = traced(study).layer_counts(study.ga_evaluations)
    second = traced(study).layer_counts(study.ga_evaluations)
    assert first == second
    for key in ("contingency.draws", "evaluation.rows_evaluated",
                "dcflow.solves", "evaluation.states_built",
                "sizing.iterations", "planner.plans_priced"):
        assert key in first


@pytest.mark.parametrize("name", NAMES)
def test_tracing_leaves_outputs_unchanged_on_other_seeds(name, tmp_path):
    study = inputs(name, 1234, ROOT, tmp_path)
    _, codes = run_study(study)
    assert check_study(study, codes) == []
    untraced = fingerprint(study)
    traced(study)
    assert fingerprint(study) == untraced


def _self_times(name, work):
    s = traced(prepare(name, DEFAULT_SEEDS[name], ROOT, work)).layer_seconds()
    del s["planner.plan_p50_s"], s["planner.plan_max_s"]  # latencies
    return s


def test_self_time_leaders(tmp_path):
    s = _self_times("plan_mcs_wel", tmp_path / "a")
    assert max(s, key=s.get) == "evaluation.batch_self_s"
    s = _self_times("adequacy_mcs", tmp_path / "b")
    sampling = s.pop("dcflow.components_s") + s.pop("rng.self_s")
    assert sampling > max(s.values())
    s = _self_times("plan_n2_nl", tmp_path / "c")
    assert max(s, key=s.get) == "dcflow.solve_self_s"


def _issue_study(tmp_path, name, argv, ga_evaluations=0):
    calls = []
    for k, args in enumerate(argv):
        out = tmp_path / f"call{k}"
        calls.append(Call([*args, "--out", str(out)], out))
    return Study(name, 0, calls, ga_evaluations)


def test_reference_sizes_reproduce_design_figures(tmp_path):
    case = str(ROOT / CASE)
    mcs = _issue_study(tmp_path / "mcs", "plan_mcs_wel", [[
        "plan", "--case", case, "--mode", "mcs", "--policy", "wel",
        "--seed", "7", "--mcs-iters", "200", "--generations", "2",
        "--pop-size", "8"]], ga_evaluations=8 * 3)
    tr = traced(mcs)
    c = tr.layer_counts(mcs.ga_evaluations)
    assert c["planner.plans_priced"] == 20
    assert tr.mcs_slots == 48_000
    assert c["contingency.draws"] == 131_488
    assert c["evaluation.validity_redraws"] == 131_488 - 48_000
    assert c["contingency.island_rejects"] == 62

    n2 = _issue_study(tmp_path / "n2", "plan_n2_nl", [[
        "plan", "--case", case, "--mode", "n2", "--policy", "nl",
        "--seed", "7", "--generations", "20", "--pop-size", "16"]],
        ga_evaluations=16 * 21)
    assert traced(n2).layer_counts(n2.ga_evaluations)[
        "planner.plans_priced"] == 212

    adequacy = inputs("adequacy_mcs", 3, ROOT, tmp_path / "adq")
    for call in adequacy.calls:
        call.argv[call.argv.index("--mcs-iters") + 1] = "3000"
    c = traced(adequacy).layer_counts(0)
    assert c["contingency.draws"] == 6 * 12 * 3000
    assert c["evaluation.validity_redraws"] == 0


def test_missing_name_fails_loudly(monkeypatch):
    original = cli.main
    monkeypatch.delattr(evaluation, "build_record")
    with pytest.raises(TracerError, match="build_record"):
        with Tracer():
            pass
    assert cli.main is original  # names patched before the failure restored


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [*command, "--workload", NAMES[0], "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
