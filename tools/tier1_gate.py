"""Run the Tier-1 suite and compare its failures with the documented ones.

    python tools/tier1_gate.py

The suite runs as ROADMAP.md's Tier-1 command, with src on PYTHONPATH and a
JUnit XML report written into a temporary directory.  The gate exits 0 only
if the failing tests (failures and errors), each as its node id with its
whole message, are exactly the committed list in
tools/tier1_failures.json: the by-design failures of
tests/test_acceptance.py, each tied to a documented source-table defect.  A
new failure, a changed message or a documented failure that now passes exits
1, and a run that writes no report exits 2.  Standard library only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().parent / "tier1_failures.json"


def failures(report: Path) -> list:
    """[node id, whole message] of every failed or erroring test case, sorted."""
    out = []
    for case in ET.parse(report).getroot().iter("testcase"):
        for bad in (*case.findall("failure"), *case.findall("error")):
            message = (bad.get("message") or bad.text or "").strip()
            module = case.get("classname", "").replace(".", "/") + ".py"   # no test classes
            out.append([f"{module}::{case.get('name', '')}", message])
    return sorted(out)


def main() -> int:
    expected = sorted(json.loads(EXPECTED.read_text()))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "tier1.xml"
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                              "-p", "no:cacheprovider", f"--junitxml={report}"], cwd=ROOT, env=env)
        if not report.is_file():
            print(f"tier1 gate: pytest exited {run.returncode} and wrote no report", file=sys.stderr)
            return 2
        got = failures(report)
    if got == expected:
        print(f"tier1 gate: the {len(got)} documented failures, with their messages")
        return 0
    for node, message in got:
        if [node, message] not in expected:
            print(f"new or changed: {node} | {message}", file=sys.stderr)
    for node, message in expected:
        if [node, message] not in got:
            print(f"missing: {node} | {message}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
