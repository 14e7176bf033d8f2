"""Tests for the command-line interface and its artifacts."""

from __future__ import annotations

import csv
import gc
import json
import weakref

import pytest

from gridtep import cli
from gridtep.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main
from gridtep.errors import GridTepError
from gridtep.evaluation import PlanSettings
from gridtep.network import case_to_dict, load_case, save_case

from _toys import build_case, ga_toy_case, gen, line

from test_network import BUNDLED


@pytest.fixture
def toy_case_path(tmp_path):
    path = tmp_path / "toy.json"
    save_case(ga_toy_case(), path)
    return path


def test_validate_accepts_bundled_case(capsys):
    assert main(["validate", "--case", str(BUNDLED)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "parse: ok" in out
    assert "candidate" in out


def test_validate_names_offending_field(tmp_path, capsys):
    data = case_to_dict(ga_toy_case())
    data["ldc"]["monthly_multipliers"] = [1.0] * 11
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["validate", "--case", str(bad)]) == EXIT_VALIDATION
    assert "ldc.monthly_multipliers" in capsys.readouterr().out


def test_validate_rejects_malformed_json(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{this is not json")
    assert main(["validate", "--case", str(bad)]) == EXIT_VALIDATION
    assert "FAIL" in capsys.readouterr().out


def test_plan_writes_all_artifacts(toy_case_path, tmp_path, capsys):
    out = tmp_path / "run"
    code = main([
        "plan", "--case", str(toy_case_path), "--mode", "n1",
        "--policy", "nl", "--seed", "3", "--pop-size", "4",
        "--generations", "2", "--out", str(out),
    ])
    assert code == EXIT_OK
    assert "best J" in capsys.readouterr().out

    payload = json.loads((out / "plan.json").read_text())
    assert payload["manifest"]["mode"] == "n1"
    assert payload["manifest"]["seed"] == 3
    best = payload["result"]["best"]
    assert len(best["bits"]) == 6
    assert best["feasible"] is True
    assert len(payload["result"]["history_j_kusd"]) == 3

    with open(out / "report.csv") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    assert header[0] == "record"
    line_rows = [r for r in body if r[0] == "line"]
    metric_names = {r[1] for r in body if r[0] == "metric"}
    assert len(line_rows) == 11
    assert {"edns_mw", "ec_musd", "t_inv_musd", "g_inv_musd",
            "j_musd"} <= metric_names

    with open(out / "history.csv") as fh:
        hist = list(csv.reader(fh))
    assert hist[0] == ["generation", "best_j_kusd"]
    assert len(hist) == 1 + 3


def test_adequacy_reports_zeros_without_outages(tmp_path, capsys):
    """With every outage rate at zero and generous ratings, the expected
    shortfalls vanish in every month."""
    case = build_case(
        [0, 50, 30],
        [line(1, 1, 2, for_=0.0, cap=500.0),
         line(2, 2, 3, for_=0.0, cap=500.0)],
        [gen(1, 100.0, for_=0.0), gen(2, 50.0, for_=0.0)],
    )
    path = tmp_path / "calm.json"
    save_case(case, path)
    out = tmp_path / "adq"
    code = main(["adequacy", "--case", str(path), "--mode", "mcs",
                 "--mcs-iters", "50", "--out", str(out)])
    assert code == EXIT_OK
    output = capsys.readouterr().out
    assert "mean   0.0000" in output

    with open(out / "adequacy.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["month", "edns_mw", "egns_mw", "ewl_mw", "samples_used",
                       "samples_drawn"]
    assert len(rows) == 13
    assert all(r[1] == "0.000000" for r in rows[1:])
    # Nothing fails, so each slot takes its first draw.
    assert all(r[4] == r[5] == "50" for r in rows[1:])


def test_adequacy_rejects_malformed_plan_string(toy_case_path, capsys):
    code = main(["adequacy", "--case", str(toy_case_path), "--mode", "n1",
                 "--plan", "10"])
    assert code == EXIT_RUNTIME
    assert "6-character" in capsys.readouterr().err


def test_adequacy_rejects_islanding_plan(capsys):
    """The bundled case's default (no-build) plan strands the new
    generator buses and is refused as a runtime error."""
    code = main(["adequacy", "--case", str(BUNDLED), "--mode", "n1"])
    assert code == EXIT_RUNTIME
    assert "disconnected" in capsys.readouterr().err


def test_adequacy_on_a_case_without_existing_lines_is_one_error_line(
        tmp_path, capsys):
    """With every line a candidate, the default (no-build) plan has no
    lines at all: it is refused as islanding, exit 2, no traceback."""
    data = case_to_dict(load_case(BUNDLED))
    for ln in data["lines"]:
        ln["status"] = "candidate"
    path = tmp_path / "no-lines.json"
    path.write_text(json.dumps(data))
    code = main(["adequacy", "--case", str(path), "--mcs-iters", "5"])
    assert code == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    errors = [ln for ln in captured.err.splitlines() if "error: " in ln]
    assert len(errors) == 1 and "disconnected" in errors[0]


def test_adequacy_accepts_plan_file(toy_case_path, tmp_path, capsys):
    out = tmp_path / "run"
    main(["plan", "--case", str(toy_case_path), "--mode", "n1",
          "--seed", "3", "--pop-size", "4", "--generations", "1",
          "--out", str(out)])
    capsys.readouterr()
    code = main(["adequacy", "--case", str(toy_case_path), "--mode", "n1",
                 "--plan-file", str(out / "plan.json")])
    assert code == EXIT_OK
    assert "month" in capsys.readouterr().out


# A plan.json holding only what `adequacy --plan-file` reads: the best
# plan's bits and sized capacities. ga_toy_case has 5 existing lines and 6
# candidates.
def _plan_json(bits, capacities):
    return json.dumps({"result": {"best": {"bits": bits,
                                           "capacities_mw": capacities}}})


@pytest.mark.parametrize("plan_text, extra", [
    (None, []),  # no such file
    ("{not json", []),
    (_plan_json([1, 0], [100.0] * 6), []),  # 2 bits for 6 candidates
    (_plan_json("000000", [100.0] * 11), []),  # a string is not bits
    (_plan_json([1] + [0] * 5, [100.0] * 5), []),  # 5 capacities, 6 lines
    (_plan_json([0] * 6, []), []),  # an infeasible plan's plan.json
    (_plan_json([0] * 6, [100.0] * 5), ["--plan", "000000"]),
    # Line order is existing first, so the sixth rating is candidate 6's.
    (_plan_json([1] + [0] * 5, [100.0] * 5 + [-5.0]), []),
    (_plan_json([1] + [0] * 5, [-5.0] + [100.0] * 5), []),
    (_plan_json([1] + [0] * 5, [float("nan")] + [100.0] * 5), []),
    (_plan_json([1] + [0] * 5, [float("inf")] + [100.0] * 5), []),
    # JSON true and 1.0 equal 1 in Python, but are not bits.
    (_plan_json([True] + [0] * 5, [100.0] * 6), []),
    (_plan_json([1.0] + [0] * 5, [100.0] * 6), []),
    # float() would read "300" as 300 MW and true as 1 MW.
    (_plan_json([1] + [0] * 5, ["300"] + [100.0] * 5), []),
    (_plan_json([1] + [0] * 5, [True] + [100.0] * 5), []),
], ids=["missing", "not-json", "bit-count", "bit-string", "capacity-count",
        "infeasible", "with-plan", "negative-candidate", "negative-existing",
        "nan", "infinite", "bit-true", "bit-float", "capacity-string",
        "capacity-true"])
def test_bad_plan_file_is_one_error_line_and_exit_2(
        plan_text, extra, toy_case_path, tmp_path, capsys):
    plan = tmp_path / "plan.json"
    if plan_text is not None:
        plan.write_text(plan_text)
    try:
        code = main(["adequacy", "--case", str(toy_case_path), "--mode", "n1",
                     "--plan-file", str(plan), *extra])
    except SystemExit as exc:  # argparse rejects the flag combination
        code = exc.code
    assert code == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    errors = [ln for ln in captured.err.splitlines() if "error: " in ln]
    assert len(errors) == 1 and captured.err.endswith(errors[0] + "\n")


# Small study flags first; argparse keeps the last value of a repeated flag.
QUICK_PLAN = ["plan", "--mode", "n1", "--generations", "1", "--pop-size", "2"]


@pytest.mark.parametrize("argv, field", [
    (QUICK_PLAN + ["--delta-f", "0"], "delta_f"),
    (QUICK_PLAN + ["--delta-f", "-5"], "delta_f"),
    (QUICK_PLAN + ["--delta-f", "nan"], "delta_f"),
    (QUICK_PLAN + ["--congestion-threshold", "-0.1"], "congestion_threshold"),
    (QUICK_PLAN + ["--congestion-threshold", "nan"], "congestion_threshold"),
    (QUICK_PLAN + ["--mcs-iters", "0"], "n_mcs"),
    (QUICK_PLAN + ["--pop-size", "1"], "population_size"),
    (QUICK_PLAN + ["--generations", "-1"], "generations"),
    (["adequacy", "--mode", "mcs", "--mcs-iters", "0"], "n_mcs"),
    (QUICK_PLAN + ["--seed", "-1"], "seed"),
    (["adequacy", "--plan", "111111", "--seed", "-1"], "seed"),
])
def test_out_of_range_setting_is_one_error_line_and_exit_2(
        argv, field, toy_case_path, tmp_path, capsys):
    """Settings are checked before any work starts: one `error:` line
    naming the setting, no traceback, no artifacts."""
    out = tmp_path / "out"
    code = main([*argv, "--case", str(toy_case_path), "--out", str(out)])
    assert code == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field} must be ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    QUICK_PLAN,
    ["adequacy", "--mode", "n1", "--plan", "111111"],
], ids=["plan", "adequacy"])
def test_out_that_names_a_file_is_one_error_line_and_exit_2(
        argv, toy_case_path, monkeypatch, capsys):
    """An --out that cannot be a directory fails before anything is
    priced: one `error:` line naming it, exit 2, the file untouched."""
    def unpriced(*args):
        raise AssertionError("priced before --out was checked")

    monkeypatch.setattr(cli, "run", unpriced)
    monkeypatch.setattr(cli.PlanEvaluator, "evaluate", unpriced)
    code = main([*argv, "--case", str(toy_case_path),
                 "--out", str(toy_case_path)])
    assert code == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot use --out {toy_case_path}")
    assert captured.err.count("\n") == 1
    assert toy_case_path.is_file()


def test_cli_defaults_are_the_library_defaults(toy_case_path, monkeypatch):
    """`plan` and `adequacy` given only a case price with exactly
    PlanSettings()."""
    seen = []

    def stop(*args):
        seen.append(next(a for a in args if isinstance(a, PlanSettings)))
        raise GridTepError("stop")

    monkeypatch.setattr(cli, "run", stop)
    monkeypatch.setattr(cli, "PlanEvaluator", stop)
    assert main(["plan", "--case", str(toy_case_path)]) == EXIT_RUNTIME
    assert main(["adequacy", "--case", str(toy_case_path)]) == EXIT_RUNTIME
    assert seen == [PlanSettings(), PlanSettings()]


def test_missing_case_file_is_validation_error(capsys):
    assert main(["validate", "--case", "/nonexistent/nope.json"]) \
        == EXIT_VALIDATION


def test_calls_in_turn_share_one_parser_and_match_fresh_calls(
        toy_case_path, tmp_path, capsys):
    """``main`` builds its parser once per process. A plan, an assessment
    of its plan file, a validation and a bad flag (exit 2), run in turn
    through the one parser, each give the exit code, output and files a
    call with a freshly built parser gives."""
    def calls(out):
        return [
            ["plan", "--case", str(toy_case_path), "--mode", "mcs",
             "--policy", "wel", "--mcs-iters", "8", "--seed", "3",
             "--pop-size", "4", "--generations", "1", "--out",
             str(out / "plan")],
            ["adequacy", "--case", str(toy_case_path), "--plan-file",
             str(out / "plan" / "plan.json"), "--mcs-iters", "8",
             "--out", str(out / "adequacy")],
            ["validate", "--case", str(toy_case_path)],
            ["plan", "--case", str(toy_case_path), "--no-such-flag"],
        ]

    def run(out, fresh):
        seen = []
        for argv in calls(out):
            if fresh:
                cli.build_parser.cache_clear()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            io = capsys.readouterr()
            seen.append((code, io.out.replace(str(out), "<out>"),
                         io.err.replace(str(out), "<out>")))
        plan = json.loads((out / "plan" / "plan.json").read_text())
        del plan["manifest"]["wall_time_s"], plan["manifest"]["case_path"]
        files = [(out / name).read_text() for name in (
            "plan/report.csv", "plan/history.csv", "adequacy/adequacy.csv")]
        return seen, plan, files

    parser = cli.build_parser()
    shared = run(tmp_path / "shared", fresh=False)
    assert cli.build_parser() is parser
    assert [code for code, _, _ in shared[0]] == [EXIT_OK] * 3 + [2]
    assert "--no-such-flag" in shared[0][-1][2]
    assert run(tmp_path / "fresh", fresh=True) == shared


@pytest.mark.parametrize("argv", [
    ["plan", "--mode", "mcs", "--mcs-iters", "10", "--pop-size", "3",
     "--generations", "1"],
    ["adequacy", "--mode", "n2", "--plan", "111111"],
], ids=["plan", "adequacy"])
def test_nothing_keeps_the_loaded_case_after_the_call(
        argv, toy_case_path, tmp_path, monkeypatch, capsys):
    """Once a call returns and garbage is collected, nothing holds the
    case it loaded: what a run derives from its case lives and dies with
    the run, so a process that runs call after call does not grow."""
    loaded = []
    real = cli.load_case

    def load(path):
        case = real(path)
        loaded.append(weakref.ref(case))
        return case

    monkeypatch.setattr(cli, "load_case", load)
    assert main([*argv, "--case", str(toy_case_path),
                 "--out", str(tmp_path / "out")]) == EXIT_OK
    gc.collect()
    assert len(loaded) == 1
    assert loaded[0]() is None
