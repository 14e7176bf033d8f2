"""Result artifacts: plan.json and the CSV tables.

plan.json is the machine-readable record of a run (manifest plus full
result); report.csv lays the sized lines and the cost summary out in a
table meant for side-by-side comparison of modes and policies;
history.csv tracks the best objective per generation. Every number in
the CSVs can be recomputed from plan.json.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict
from pathlib import Path

from .adequacy import ExpectationReport
from .network import NetworkCase
from .planner import FitnessRecord, PlanResult


def _report_dict(report: ExpectationReport | None) -> dict | None:
    if report is None:
        return None
    return {
        "edns_mw_by_month": report.edns.tolist(),
        "egns_mw_by_month": report.egns.tolist(),
        "ewl_mw_by_month": report.ewl.tolist(),
        "ego_mw_by_month_per_generator": report.ego.tolist(),
        "congestion_probability_by_month_per_line":
            report.congestion_probability.tolist(),
        "samples_used_by_month": report.samples_used.tolist(),
        "samples_drawn_by_month": report.samples_drawn.tolist(),
    }


def _record_dict(rec: FitnessRecord) -> dict:
    return {
        "bits": [int(b) for b in rec.chromosome.bits],
        "feasible": rec.feasible,
        "line_ids": list(rec.line_ids),
        "capacities_mw": list(rec.capacities),
        "costs_kusd": asdict(rec.breakdown),
        "costs_musd": rec.breakdown.in_millions(),
        "sizing": asdict(rec.sizing) if rec.sizing is not None else None,
        "expectations": _report_dict(rec.report),
        "infeasible_reason": rec.infeasible_reason,
    }


def plan_payload(manifest: dict, result: PlanResult) -> dict:
    """plan.json's content: ``manifest`` holds everything needed to
    reproduce the run bit-for-bit (plus wall time)."""
    return {
        "manifest": manifest,
        "result": {
            "mode": result.mode,
            "policy": result.policy,
            "best": _record_dict(result.best),
            "history_j_kusd": list(result.history),
        },
    }


def write_plan_json(path, payload: dict) -> None:
    # RFC 8259 has no Infinity or NaN: non-finite numbers, such as an
    # infeasible plan's costs, are written as null.
    strict = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    Path(path).write_text(json.dumps(strict, indent=2, sort_keys=True,
                                     allow_nan=False) + "\n")


CSV_HEADER = ["record", "id", "from_bus", "to_bus", "length_km", "status",
              "capacity_mw", "value"]


def write_report_csv(path, case: NetworkCase, result: PlanResult) -> None:
    """Line table (id, endpoints, length, final capacity) plus summary rows."""
    rec = result.best
    cap_by_id = dict(zip(rec.line_ids, rec.capacities))
    rows: list[list] = []
    for ln in case.lines:
        cap = cap_by_id.get(ln.id)
        rows.append([
            "line", ln.id, ln.from_bus, ln.to_bus, ln.length_km, ln.status,
            "" if cap is None else f"{cap:.6g}", "",
        ])

    money = rec.breakdown.in_millions()
    metrics: list[tuple[str, str]] = []
    if rec.report is not None:
        metrics += [
            ("edns_mw", f"{float(rec.report.edns.mean()):.4f}"),
            ("egns_mw", f"{float(rec.report.egns.mean()):.4f}"),
            ("ewl_mw", f"{float(rec.report.ewl.mean()):.4f}"),
        ]
    metrics += [
        ("ec_musd", f"{money['ec']:.2f}"),
        ("t_inv_musd", f"{money['t_inv']:.2f}"),
        ("g_inv_musd", f"{money['g_inv']:.2f}"),
        ("j_musd", f"{money['j']:.2f}"),
    ]
    for name, value in metrics:
        rows.append(["metric", name, "", "", "", "", "", value])

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)


def write_history_csv(path, history) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["generation", "best_j_kusd"])
        for g, j in enumerate(history):
            writer.writerow([g, j])


def write_adequacy_csv(path, report: ExpectationReport) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["month", "edns_mw", "egns_mw", "ewl_mw",
                         "samples_used", "samples_drawn"])
        for m in range(12):
            writer.writerow([
                m + 1,
                f"{report.edns[m]:.6f}",
                f"{report.egns[m]:.6f}",
                f"{report.ewl[m]:.6f}",
                int(report.samples_used[m]),
                int(report.samples_drawn[m]),
            ])
