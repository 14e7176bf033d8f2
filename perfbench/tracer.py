"""Per-layer tracing of gridtep from outside, by rebinding module names.

Every traced function is replaced, for the duration of a ``with`` block,
by a wrapper that times the call and charges it to the innermost traced
call that is still open. A call's self time is its duration minus the
time its traced children took. Plan-level and capacity-evaluation calls
are kept as spans (name, start, end, parent span). Per-state calls are
folded into (name, parent) aggregates of call count and self time, so
memory stays bounded however many states a study draws.

Nothing under ``src/`` is edited: the wrappers replace the module-level
names that gridtep's own callers look up at call time. If a name is gone
or no longer callable, patching raises ``TracerError`` instead of
silently tracing nothing.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

from gridtep import cli, contingency, evaluation, planner, sizing

# Names whose calls are kept as individual spans; all others aggregate.
SPAN_NAMES = frozenset({
    "cli.main", "planner.run", "planner.plan", "sizing.loop",
    "evaluation.capacity_eval",
})


class TracerError(RuntimeError):
    """A name the tracer rebinds no longer exists in gridtep."""


class Tracer:
    def __init__(self):
        self._stack: list[list] = []  # open calls: [name, child_s, span_id]
        self.agg: dict[tuple[str, str | None], list] = defaultdict(
            lambda: [0, 0.0])  # (name, parent name) -> [calls, self_s]
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.plan_seconds: list[float] = []
        self.mcs_slots = 0  # 12 * n_mcs summed over MCS evaluators
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name, observe=None):
        stack, agg, spans = self._stack, self.agg, self.spans
        keep = name in SPAN_NAMES
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = None
            if keep:
                span_id = len(spans)
                spans.append(None)  # reserve the id; filled in on return
            frame = [name, 0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                rec = agg[(name, parent[0] if parent else None)]
                rec[0] += 1
                rec[1] += took - frame[1]
                if parent is not None:
                    parent[1] += took
                if keep:
                    spans[span_id] = (span_id, _span_parent(stack), name,
                                      start, end)
            if observe is not None:
                observe(args, kwargs, result, took)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, name, observe=None, timed=True):
        fn = getattr(owner, attr, None)
        if not callable(fn):
            where = getattr(owner, "__name__", repr(owner))
            raise TracerError(
                f"{where}.{attr} no longer exists; perfbench/tracer.py "
                f"must follow the rename before per-layer figures mean "
                f"anything")
        self._saved.append((owner, attr, fn))
        setattr(owner, attr,
                self._wrap(fn, name, observe) if timed
                else _counted(fn, self.counts, name, observe))

    def __enter__(self):
        if self._saved:
            raise TracerError("tracer is already installed")
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def _install(self):
        c = self.counts

        def on_plan(args, kwargs, result, took):
            self.plan_seconds.append(took)

        def on_sizing(args, kwargs, trace, took):
            c["sizing.iterations"] += trace.iterations
            c[f"sizing.stop.{trace.stop_reason}"] += 1

        def on_batch(args, kwargs, result, took):
            c["evaluation.rows_evaluated"] += len(args[0])

        def on_screen(args, kwargs, feasible, took):
            if not feasible:
                c["contingency.screen_rejects"] += 1

        def on_island(args, kwargs, islanded, took):
            if islanded:
                c["contingency.island_rejects"] += 1

        def on_enumerate(args, kwargs, states, took):
            c["contingency.enumerated_states"] += len(states)

        def on_init(args, kwargs, result, took):
            config = args[3] if len(args) > 3 else kwargs["config"]
            if config.mode == evaluation.MODE_MCS:
                self.mcs_slots += 12 * config.n_mcs

        # cli / report
        self._patch(cli, "main", "cli.main")
        self._patch(cli, "run", "planner.run")
        for writer in ("write_plan_json", "write_report_csv",
                       "write_history_csv", "write_adequacy_csv"):
            self._patch(cli, writer, "report.write")
        # planner and sizing
        self._patch(planner, "evaluate_chromosome", "planner.plan", on_plan)
        self._patch(planner, "sizing_loop", "sizing.loop", on_sizing)
        # evaluation
        self._patch(evaluation.PlanEvaluator, "__init__", "evaluation.init",
                    on_init)
        self._patch(evaluation.PlanEvaluator, "evaluate",
                    "evaluation.capacity_eval")
        self._patch(evaluation.ScenarioBatch, "evaluate", "evaluation.batch",
                    on_batch)
        self._patch(evaluation, "build_record", "evaluation.build_record")
        # contingency
        self._patch(evaluation, "sample_state", "contingency.sample_state")
        self._patch(evaluation, "enumerate_deterministic",
                    "contingency.enumerate", on_enumerate)
        self._patch(contingency, "_feasible", "contingency.screen", on_screen)
        # Counted only: its time stays in the screen's self time.
        self._patch(contingency, "is_islanded", "contingency.island_checks",
                    on_island, timed=False)
        # dcflow and dispatch. Only the island screen's union-find is its
        # own layer; the one inside solve_with_outages is part of the solve.
        self._patch(contingency, "connected_components", "dcflow.components")
        self._patch(evaluation, "solve_with_outages", "dcflow.solve")
        self._patch(evaluation, "merit_order_dispatch", "dispatch.merit_order")
        # rng
        for module in (evaluation, planner, sizing):
            self._patch(module, "substream", "rng.substream")

    # -- results ----------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(v[0] for (n, _), v in self.agg.items() if n == name)

    def self_s(self, name: str, parent: str | None = None) -> float:
        return sum(v[1] for (n, p), v in self.agg.items()
                   if n == name and (parent is None or p == parent))

    def layer_counts(self, ga_evaluations: int) -> dict[str, float]:
        """Counts of one traced study; they repeat exactly across runs."""
        c = self.counts
        draws = self.calls("contingency.sample_state")
        screened = self.calls("contingency.screen")
        plans = self.calls("planner.plan")
        return {
            "evaluation.batch_evals": self.calls("evaluation.batch"),
            "evaluation.rows_evaluated": c["evaluation.rows_evaluated"],
            "evaluation.validity_redraws": draws - self.mcs_slots,
            "evaluation.capacity_evals": self.calls("evaluation.capacity_eval"),
            "evaluation.states_built": self.calls("evaluation.build_record"),
            "contingency.draws": draws,
            "contingency.island_checks": c["contingency.island_checks"],
            "contingency.island_rejects": c["contingency.island_rejects"],
            "contingency.screen_accept_ratio":
                (screened - c["contingency.screen_rejects"]) / screened
                if screened else 0.0,
            "contingency.enumerated_states": c["contingency.enumerated_states"],
            "dcflow.components_calls": self.calls("dcflow.components"),
            "dcflow.solves": self.calls("dcflow.solve"),
            "dispatch.calls": self.calls("dispatch.merit_order"),
            "rng.substreams": self.calls("rng.substream"),
            "planner.plans_priced": plans,
            "planner.memo_hit_ratio":
                1.0 - plans / ga_evaluations if ga_evaluations else 0.0,
            "planner.plan_samples": len(self.plan_seconds),
            "sizing.loops": self.calls("sizing.loop"),
            "sizing.iterations": c["sizing.iterations"],
            "sizing.stop.no_congestion": c["sizing.stop.no_congestion"],
            "sizing.stop.marginal_cost_floor":
                c["sizing.stop.marginal_cost_floor"],
            "sizing.stop.iteration_cap": c["sizing.stop.iteration_cap"],
        }

    def layer_seconds(self) -> dict[str, float]:
        """Self times of one traced study, in seconds."""
        s = self.self_s
        plans = self.plan_seconds
        return {
            "evaluation.batch_self_s": s("evaluation.batch"),
            "evaluation.self_s": s("evaluation.capacity_eval")
                                 + s("evaluation.init"),
            "evaluation.build_self_s": s("evaluation.build_record"),
            "contingency.sample_self_s":
                s("contingency.sample_state")
                + s("contingency.screen", "contingency.sample_state"),
            "contingency.enumerate_self_s":
                s("contingency.enumerate")
                + s("contingency.screen", "contingency.enumerate"),
            "dcflow.components_s": s("dcflow.components"),
            "dcflow.solve_self_s": s("dcflow.solve"),
            "dispatch.self_s": s("dispatch.merit_order"),
            "rng.self_s": s("rng.substream"),
            "planner.self_s": s("planner.run") + s("planner.plan"),
            "planner.plan_p50_s": statistics.median(plans) if plans else 0.0,
            "planner.plan_max_s": max(plans) if plans else 0.0,
            "sizing.self_s": s("sizing.loop"),
            "report.write_s": s("report.write"),
            "cli.self_s": s("cli.main"),
        }

    def summary(self) -> dict:
        """Per-parent aggregates and kept spans, for the trace file."""
        return {
            "self_by_parent": [
                {"name": n, "parent": p, "calls": v[0], "self_s": v[1]}
                for (n, p), v in sorted(self.agg.items(),
                                        key=lambda kv: -kv[1][1])
            ],
            "spans": [
                {"id": i, "parent": p, "name": n, "start": a, "end": b}
                for i, p, n, a, b in self.spans
            ],
        }


def _counted(fn, counts, name, observe):
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        counts[name] += 1
        if observe is not None:
            observe(args, kwargs, result, 0.0)
        return result

    counted.__wrapped__ = fn
    return counted


def _span_parent(stack) -> int | None:
    for frame in reversed(stack):
        if frame[2] is not None:
            return frame[2]
    return None
