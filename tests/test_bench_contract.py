"""The benchmark's tracer (perfbench/tracer.py) rebinds gridtep's
module-level names from outside; this checks that every name it rebinds
still exists and is restored when tracing ends."""

from __future__ import annotations

from pathlib import Path

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
