"""Alternating pairs of benchmark runs of two revisions, and the claim rule.

    python tools/bench_pairs.py BASE CHANGE [--workload W ...] [--seed S] [--pairs N]

Each revision is exported with git archive into a temporary directory of its
own, so the runs see only committed files.  For each workload the script
makes N pairs of runs of BENCHMARK.json's command (bench/run.py --workload W
--seed S --seconds <run_seconds> --trace 0), alternating which side runs
first: BASE first in the even pairs, CHANGE first in the odd ones.  Without
--workload it runs every workload of BENCHMARK.json.

Per end-to-end metric it prints the median of each side, the quartiles of
BASE, the ratio of the medians, the pairs CHANGE won and lost (ties count
for neither) and the verdict of the claim rule: "better" when at least 10
pairs were run, CHANGE won at least nine tenths of them and its median is
better than BASE's by more than BASE's interquartile range; "worse" when
the same holds with the sides swapped; "unresolved" otherwise.  It also
prints whether CHANGE's median stays inside the metric's BENCHMARK.json
bound, and the failed operations of each side.  The last line is one JSON
object with all of it; the exit status is 1 when an operation failed or a
run did not finish.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(xs):
    """(q1, q3) of xs, by statistics.quantiles' default (exclusive) method."""
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3


def verdict(base, change, better="lower"):
    """(won, lost, verdict) of CHANGE against BASE over paired samples, pair i
    being (base[i], change[i]); verdict is "better", "worse" or "unresolved"
    under the claim rule of this module's docstring."""
    sign = 1 if better == "lower" else -1
    won = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    lost = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    q1, q3 = quartiles(base)
    gap = sign * (statistics.median(base) - statistics.median(change))
    enough = len(base) >= MIN_PAIRS
    if enough and won >= WIN_SHARE * len(base) and gap > q3 - q1:
        return won, lost, "better"
    if enough and lost >= WIN_SHARE * len(base) and -gap > q3 - q1:
        return won, lost, "worse"
    return won, lost, "unresolved"


def export(rev, into):
    """Write the files of revision rev into the directory into."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}   # Python 3.10.12+
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, **safe)


def run(tree, command, workload, seed, seconds):
    """The result line of one benchmark run in the checkout tree, or None."""
    proc = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(lines[-1])


def pairs(trees, command, workload, seed, seconds, n):
    """n alternating pairs of runs: {side: [result, ...]} in pair order."""
    out = {side: [] for side in trees}
    for i in range(n):
        for side in (("base", "change") if i % 2 == 0 else ("change", "base")):
            out[side].append(run(trees[side], command, workload, seed, seconds))
            print(f"# {workload} pair {i + 1}/{n} {side} done", file=sys.stderr, flush=True)
    return out


def summarize(results, metrics):
    """Per-metric rows and the failed operations of each side."""
    done = all(r is not None for side in results.values() for r in side)
    summary = {"complete": done, "pairs": len(results["base"]), "metrics": {},
               "failed": {side: sum(r["failed"] for r in rs if r) for side, rs in results.items()},
               "attempted": {side: sum(r["attempted"] for r in rs if r)
                             for side, rs in results.items()}}
    if not done:
        return summary
    for m in metrics:
        name, better = m["name"], m["better"]
        base = [r["metrics"][name]["value"] for r in results["base"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        won, lost, said = verdict(base, change, better)
        mb, mc = statistics.median(base), statistics.median(change)
        ratio = mc / mb if mb else 1.0
        worse_by = ratio - 1 if better == "lower" else 1 - ratio
        summary["metrics"][name] = {
            "unit": m["unit"], "base_median": mb, "base_quartiles": quartiles(base),
            "change_median": mc, "ratio": ratio, "won": won, "lost": lost,
            "verdict": said, "within_bound": worse_by <= m["bound"], "bound": m["bound"]}
    return summary


def show(workload, seed, summary):
    print(f"{workload}, seed {seed}, {summary['pairs']} pairs; failed operations: "
          f"base {summary['failed']['base']} of {summary['attempted']['base']}, "
          f"change {summary['failed']['change']} of {summary['attempted']['change']}"
          + ("" if summary["complete"] else "; a run did not finish"))
    for name, s in summary["metrics"].items():
        q1, q3 = s["base_quartiles"]
        print(f"  {name:<12} base {s['base_median']:.4g} ({q1:.4g}-{q3:.4g}) "
              f"change {s['change_median']:.4g} {s['unit']}, x{s['ratio']:.3f}, "
              f"won {s['won']} lost {s['lost']}: {s['verdict']}, "
              f"{'inside' if s['within_bound'] else 'OUTSIDE'} the {s['bound']:g} bound")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    report = {"base": args.base, "change": args.change, "seed": args.seed, "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in ("base", "change")}
        export(args.base, trees["base"])
        export(args.change, trees["change"])
        for workload in args.workload or names:
            results = pairs(trees, bench["command"], workload, args.seed,
                            bench["run_seconds"], args.pairs)
            summary = summarize(results, bench["end_to_end"])
            show(workload, args.seed, summary)
            report["workloads"][workload] = summary
    print(json.dumps(report))
    bad = [s for s in report["workloads"].values()
           if not s["complete"] or any(s["failed"].values())]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
