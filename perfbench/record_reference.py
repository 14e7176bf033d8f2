"""Record reference.json: the fingerprint of every workload on its
default seed, from the gridtep in ``src/`` of the current directory.

    python3 perfbench/record_reference.py

Re-record only when a change is meant to alter results, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    reference = {}
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-", dir=ROOT / ".perfbench"))
    try:
        for name in workloads.NAMES:
            seed = workloads.DEFAULT_SEEDS[name]
            study = workloads.inputs(name, seed, ROOT, work)
            _, codes = workloads.run_study(study)
            if codes != [0] * len(codes):
                print(f"{name}: exit codes {codes}", file=sys.stderr)
                return 1
            reference[name] = workloads.fingerprint(study)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
