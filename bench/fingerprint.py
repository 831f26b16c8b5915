"""Verdict projections and their fingerprints.

A verdict is reduced to a fixed projection before it is hashed: check,
structure, ok, tuple count, each violation's ``where`` and residual text,
diff lines, and for commands the exit code.  Fields outside the projection
(timings, progress counters a later report format may add) never change a
fingerprint, while any change to a verdict does.
"""

from __future__ import annotations

import hashlib
import json

# keys of report, diff and table documents that belong to a verdict
_DOC_KEYS = frozenset({
    "check", "structure", "ok", "tuples", "violations", "where", "residual",
    "a", "b", "diffs", "gen", "left", "right", "a_poly", "b_poly", "reports",
    "format_version", "type", "kind", "name", "generators", "id", "parity",
    "table", "terms", "poly", "coeff", "exps", "pairs",
})


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def fingerprint(projection: dict) -> str:
    return sha256(json.dumps(projection, sort_keys=True, separators=(",", ":")))


def report(rep) -> dict:
    """Projection of a ``Report`` (axiom check) or ``DiffReport`` (compare)."""
    if hasattr(rep, "violations"):
        return {
            "check": rep.check,
            "structure": rep.structure,
            "ok": rep.ok,
            "tuples": rep.total,
            "violations": [[list(v.where), v.residual] for v in rep.violations],
        }
    return {
        "a": rep.name_a,
        "b": rep.name_b,
        "ok": rep.ok,
        "diff_lines": [str(line) for line in rep.lines],
    }


def document(doc):
    """Projection of a parsed JSON document: unknown keys are dropped."""
    if isinstance(doc, list):
        return [document(x) for x in doc]
    if isinstance(doc, dict):
        return {
            k: (v if k == "exps" else document(v))
            for k, v in doc.items() if k in _DOC_KEYS
        }
    return doc


def reports(projection) -> list:
    """The report projections inside an operation's projection."""
    if not isinstance(projection, dict):
        return []
    if "violations" in projection:
        return [projection]
    return [v for v in projection.values() if isinstance(v, dict) and "violations" in v]


def summary(projection: dict) -> str:
    """One human-readable line stored next to each recorded fingerprint."""
    if reports(projection):
        return "; ".join(
            f"{r['check']}[{r['structure']}] ok={r['ok']} tuples={r['tuples']} "
            f"violations={len(r['violations'])}" for r in reports(projection))
    if "diff_lines" in projection:
        return (f"compare[{projection['a']} vs {projection['b']}] "
                f"diff_lines={len(projection['diff_lines'])}")
    if "exit" in projection:
        return f"exit={projection['exit']}"
    if "roundtrip_identical" in projection:
        return (f"serialize[{projection['json']['name']}] "
                f"roundtrip_identical={projection['roundtrip_identical']}")
    return ",".join(sorted(projection))
