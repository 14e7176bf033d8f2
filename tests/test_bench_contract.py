"""The benchmark's tracer (perfbench/tracer.py) rebinds gridtep's
module-level names from outside; this checks that every name it rebinds
still exists and is restored when tracing ends."""

from __future__ import annotations

from pathlib import Path

from gridtep import cli
from gridtep.network import save_case

from _toys import mcs_toy_case

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_rebinds_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracer import Tracer

    tracer = Tracer()
    with tracer:  # raises TracerError when a name it rebinds is gone
        rebound = list(tracer._saved)
        assert rebound
        for owner, attr, original in rebound:
            assert getattr(owner, attr).__wrapped__ is original, attr
    for owner, attr, original in rebound:
        assert getattr(owner, attr) is original, attr


def test_tracer_counts_the_slots_of_an_mcs_adequacy_call(
        monkeypatch, tmp_path, capsys):
    """The tracer reads the mode and n_mcs of PlanEvaluator's settings
    argument when an evaluator is built; a change to that signature must
    fail here, not only in the benchmark."""
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracer import Tracer

    path = tmp_path / "toy.json"
    save_case(mcs_toy_case(), path)
    n_mcs = 3
    tracer = Tracer()
    with tracer:
        code = cli.main(["adequacy", "--case", str(path), "--mode", "mcs",
                         "--mcs-iters", str(n_mcs)])
    assert code == cli.EXIT_OK
    assert tracer.mcs_slots == 12 * n_mcs


def test_workloads_reproduce_the_reference_fingerprints(monkeypatch,
                                                        tmp_path):
    """Each benchmark workload, run at its default seed, passes its own
    checks: the invariants of every call, and the best bits, J, sizing
    stop reason and adequacy means recorded in perfbench/reference.json."""
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import workloads

    for name in workloads.NAMES:
        study = workloads.prepare(name, workloads.DEFAULT_SEEDS[name], ROOT,
                                  tmp_path / name)
        assert all(call.expect is not None for call in study.calls), name
        _, codes = workloads.run_study(study)
        assert workloads.check_study(study, codes) == [], name
