"""gridtep benchmark: one workload, one seed, one measured run.

Run from the root of a gridtep checkout:

    python3 perfbench/run.py --workload plan_mcs_wel --seed 7 --seconds 30 --trace 0

The workload runs in this fresh process through ``gridtep.cli.main``.
One traced warm-up study comes first (it fills lazy caches and counts the
plans priced); then whole studies repeat until ``--seconds`` have passed,
at least three times. Every study's outputs are checked (workloads.py).

Host speed on a shared machine drifts by 20 % and more over tens of
seconds, for every process alike. So each study, and each set-up probe,
is timed between two runs of a fixed calibration kernel (integer loops,
small sets, small numpy calls and a 6x6 solve, like gridtep's own mix)
and its wall time is rescaled to the kernel's reference duration
``CAL_REF_S``: times read as seconds on a host where the kernel takes
``CAL_REF_S``. On a 2-vCPU Xeon VM this cut the run-to-run spread of
``study_s`` by about a third, and the drift of its median between sets
of runs tens of minutes apart from 37 % to 8 %. Raw wall times are
printed on the info line. Per-layer self times are raw.

``--trace 0`` metrics: ``setup_s`` (median over fresh interpreters of
``import gridtep`` plus loading and validating the case), ``study_s``
(median study time, untraced), ``plans_per_s`` (plans priced, or plans
assessed, per study second) and ``peak_rss_mb``. ``--trace 1`` alternates
untraced and traced studies and reports the per-layer counts and self
times of tracer.py; the counts must repeat exactly across the traced
studies. The last stdout line is the JSON result.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy is imported, here and in the probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path.cwd()
CASE = "cases/fig1-7bus.json"
WORK = ROOT / ".perfbench"
SETUP_PROBES = 7  # fresh interpreters timed, after one that writes .pyc
MIN_STUDIES = 3
STOP_STARTING_AFTER_S = 120  # no new study after this, whatever --seconds
CAL_REF_S = 0.1  # calibration kernel duration that times are rescaled to
PROBE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1] + "/src")
import gridtep
from gridtep.network import load_case
load_case(sys.argv[1] + "/cases/fig1-7bus.json")
print(time.perf_counter() - start)
"""


def calibrate() -> float:
    """Seconds a fixed slice of gridtep-like work takes: integer loops,
    small sets and tuples, small-array numpy calls and a 6x6 solve."""
    start = time.perf_counter()
    acc = 0
    for i in range(260_000):
        acc += i * i
    seen: dict = {}
    for i in range(52_000):
        key = frozenset((i % 7, i % 11))
        seen[key] = seen.get(key, 0) + len((i, key))
    a, ones = np.arange(8.0), np.ones(8)
    for _ in range(4_000):
        a = np.minimum(np.abs(a), 3.0) + (a @ ones) * 0.0
    b, p = np.eye(6) * 4.0 - 1.0, np.arange(6.0)
    for _ in range(2_000):
        np.linalg.solve(b, p)
    return time.perf_counter() - start


class Clock:
    """Timings taken between calibration runs, raw and rescaled."""

    def __init__(self):
        self._cal = calibrate()
        self.raw: list[float] = []
        self.scaled: list[float] = []

    def record(self, fn):
        """Call ``fn() -> (seconds, result)``; keep its seconds."""
        took, result = fn()
        before, self._cal = self._cal, calibrate()
        self.raw.append(took)
        self.scaled.append(took * CAL_REF_S / ((before + self._cal) / 2))
        return result


def _probe_setup() -> tuple[float, None]:
    out = subprocess.run([sys.executable, "-c", PROBE, str(ROOT)],
                         capture_output=True, text=True, check=True,
                         timeout=60)
    return float(out.stdout.strip().splitlines()[-1]), None


def _environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": 1}


def measure(study, seconds: float, trace: bool) -> dict:
    """Repeat the study; return clocks, layer figures and check tallies."""
    from tracer import Tracer
    from workloads import check_study, run_study

    tally = {"attempted": 0, "failed": 0}

    def once(clock: Clock, tracer=None) -> None:
        def go():
            if tracer is None:
                return run_study(study)
            with tracer:
                return run_study(study)

        codes = clock.record(go)
        problems = check_study(study, codes)
        tally["attempted"] += len(codes)
        tally["failed"] += len(problems)
        for p in problems:
            print(f"{study.name} seed {study.seed}: {p}", file=sys.stderr)

    warm = Tracer()
    once(Clock(), warm)
    counts = warm.layer_counts(study.ga_evaluations)
    repeat_ok = True
    untraced, traced = Clock(), Clock()
    layer_seconds = []
    last = warm
    start = time.perf_counter()
    while True:
        once(untraced)
        if trace:
            last = Tracer()
            once(traced, last)
            repeat_ok &= last.layer_counts(study.ga_evaluations) == counts
            layer_seconds.append(last.layer_seconds())
        elapsed = time.perf_counter() - start
        if elapsed >= STOP_STARTING_AFTER_S or (
                len(untraced.raw) >= MIN_STUDIES and elapsed >= seconds):
            break
    if not repeat_ok:
        print(f"{study.name}: traced counts differ between studies",
              file=sys.stderr)
    return {"untraced": untraced, "traced": traced, "counts": counts,
            "layer_seconds": layer_seconds, "last_tracer": last,
            "repeat_ok": repeat_ok, **tally}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not ((ROOT / "src" / "gridtep" / "__init__.py").is_file()
            and (ROOT / CASE).is_file()):
        print("error: run from the root of a gridtep checkout "
              "(src/gridtep and cases/ not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")

    setup = Clock()
    if not args.trace:
        _probe_setup()  # writes the bytecode caches
        for _ in range(SETUP_PROBES):
            setup.record(_probe_setup)

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        study = workloads.prepare(args.workload, args.seed, ROOT, work)
        m = measure(study, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = _environment()
    untraced = m["untraced"]
    study_s = statistics.median(untraced.scaled)
    plans = (m["counts"]["planner.plans_priced"] if study.is_plan
             else len(study.calls))
    if args.trace:
        metrics = {k: (v, _unit(k)) for k, v in m["counts"].items()}
        for key in m["layer_seconds"][0]:
            metrics[key] = (statistics.median(
                s[key] for s in m["layer_seconds"]), "s")
        traced_s = statistics.median(m["traced"].scaled)
        metrics["trace.study_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - study_s, "s")
        (WORK / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"env": env, "workload": args.workload,
                        "seed": args.seed,
                        "metrics": {k: v for k, (v, _) in metrics.items()},
                        **m["last_tracer"].summary()}, indent=1))
    else:
        metrics = {
            "setup_s": (statistics.median(setup.scaled), "s"),
            "study_s": (study_s, "s"),
            "plans_per_s": (plans / study_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
        }

    print(json.dumps({"env": env, "workload": args.workload,
                      "seed": args.seed, "plans_per_study": plans,
                      "study_wall_s": untraced.raw,
                      "study_scaled_s": untraced.scaled,
                      "traced_wall_s": m["traced"].raw,
                      "setup_wall_s": setup.raw}))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"study_wall_s {statistics.median(untraced.raw)} s (raw median)")
    print(f"failed_ratio {m['failed'] / m['attempted']} "
          f"({m['failed']} of {m['attempted']} calls)")
    print(json.dumps({
        "correct": m["failed"] == 0 and m["repeat_ok"],
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


def _unit(name: str) -> str:
    return "ratio" if name.endswith("_ratio") else "count"


if __name__ == "__main__":
    sys.exit(main())
