"""Run the Tier-1 suite, or the benchmark's tests, and compare its failures
with the documented ones.

    python tools/tier1_gate.py           # Tier-1
    python tools/tier1_gate.py bench     # pytest bench -q -p no:cacheprovider

The suite runs as ROADMAP.md's Tier-1 command, or the benchmark's tests as
pytest bench, with src on PYTHONPATH and a JUnit XML report written into a
temporary directory.  The gate exits 0 only if the failing tests (failures
and errors), each as its node id with its whole message, are exactly the
committed list: tools/tier1_failures.json holds the by-design failures of
tests/test_acceptance.py, each tied to a documented source-table defect, and
tools/bench_failures.json the benchmark test that ROADMAP item 1a mends.  A
new failure, a changed message or a documented failure that now passes exits
1, and a run that writes no report exits 2.  The summary line gives the
suite's wall time.  Standard library only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
# each suite's pytest arguments and its documented failures
SUITES = {"tier1": (["--continue-on-collection-errors"], HERE / "tier1_failures.json"),
          "bench": (["bench"], HERE / "bench_failures.json")}


def failures(report: Path) -> list:
    """[node id, whole message] of every failed or erroring test case, sorted."""
    out = []
    for case in ET.parse(report).getroot().iter("testcase"):
        for bad in (*case.findall("failure"), *case.findall("error")):
            message = (bad.get("message") or bad.text or "").strip()
            module = case.get("classname", "").replace(".", "/") + ".py"   # no test classes
            out.append([f"{module}::{case.get('name', '')}", message])
    return sorted(out)


def main(argv) -> int:
    suite = argv[0] if argv else "tier1"
    if len(argv) > 1 or suite not in SUITES:
        print(f"usage: tier1_gate.py [{' | '.join(SUITES)}]", file=sys.stderr)
        return 2
    args, documented = SUITES[suite]
    expected = sorted(json.loads(documented.read_text()))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / f"{suite}.xml"
        start = time.perf_counter()
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", *args,
                              "-p", "no:cacheprovider", f"--junitxml={report}"], cwd=ROOT, env=env)
        wall = time.perf_counter() - start
        if not report.is_file():
            print(f"{suite} gate: pytest exited {run.returncode} and wrote no report",
                  file=sys.stderr)
            return 2
        got = failures(report)
    if got == expected:
        print(f"{suite} gate: the {len(got)} documented failures, with their messages, "
              f"in {wall:.1f} s")
        return 0
    for node, message in got:
        if [node, message] not in expected:
            print(f"new or changed: {node} | {message}", file=sys.stderr)
    for node, message in expected:
        if [node, message] not in got:
            print(f"missing: {node} | {message}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
