#!/usr/bin/env python3
"""Record the verdict fingerprints the benchmark checks against.

    python3 bench/record_fingerprints.py

Runs every operation of every workload once and writes
``bench/fingerprints.json``.  Record only at a commit whose verdicts are the
reference; a later change that alters a verdict must show up as a failed
operation, not as a new recording.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import fingerprint as fp  # noqa: E402
from run import FINGERPRINTS, Library  # noqa: E402
from workloads import OUT_DIR, WORKLOADS, Phases, setup  # noqa: E402


def main() -> int:
    lib = Library()
    record = {}
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / "record"
    workdir.mkdir(exist_ok=True)
    try:
        for name, workload in WORKLOADS.items():
            state = setup(lib, workload, workdir, Phases())
            record[name] = {}
            for op in workload.ops(lib, state):
                proj = op.run(Phases())
                record[name][op.name] = {"sha256": fp.fingerprint(proj),
                                         "summary": fp.summary(proj)}
                print(f"{name} {op.name}: {fp.summary(proj)}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    FINGERPRINTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
