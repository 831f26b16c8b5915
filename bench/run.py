#!/usr/bin/env python3
"""Time-to-verdict benchmark for confcoalg.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout and nothing is installed.  Workloads are listed in
``bench/workloads.py`` and ``BENCHMARK.json``.

Set-up is the import of the library (timed in fresh child interpreters)
plus building the workload's tables; each is repeated ``SETUP_REPEATS``
times and the sum of the two medians is reported as ``setup_s``.  The timed
phase then runs whole passes over the workload's operations, in an order
fixed by the seed.  The number of passes is ``--seconds`` divided by the
workload's budgeted pass time (at least one), so every run of every
commit measures the same work.
Every verdict is checked against the fingerprint recorded in
``bench/fingerprints.json``; a mismatch or an exception is a failed
operation.  End-to-end times are scaled to the reference machine by the
workload's probe (see ``bench/README.md``).

With ``--trace 0`` the last line of output reports the end-to-end metrics;
with ``--trace 1`` the run makes one untraced and one traced pass and
reports the per-layer metrics, including the tracing overhead.  The line
before it (``# info ...``) records the machine, the source revision, tuple
counts and sample counts; the full record, spans included, is written to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import fingerprint as fp  # noqa: E402
import micro  # noqa: E402
import tracing  # noqa: E402
from workloads import (  # noqa: E402
    CLI_COMMANDS, CROSSCHECKS, FAMILIES, JORDAN_COALGEBRAS, JORDAN_ID,
    LIE_COALGEBRAS, LIE_FAMILIES, OUT_DIR, ROOT, WORKLOADS, Phases, child_env,
    setup,
)

SETUP_REPEATS = 3
# The speed of a shared machine drifts by up to 2x over minutes.  The
# workload's probe (see workloads.Probe) runs before an operation when
# PROBE_EVERY_S seconds have passed since the last probe and at the end of
# every pass, outside the timed operations.  Set-up and the timed passes are
# each scaled by the probe's reference time over its median during that
# phase.  Raw wall times are kept in the run's info.
PROBE_EVERY_S = 1.0
FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"
MODULES = ("poly", "grassmann", "conformal", "coalgebra", "families",
           "closed_form", "serialize", "cli")
MIN_CMD_SAMPLES = 21   # the least for a percentile above the median with 10 beyond it
END_TO_END = {"setup_s": "s", "verdict_s": "s", "cmd_p50_ms": "ms",
              "cmd_tail_ms": "ms", "peak_rss_mb": "MB", "match_ratio": "ratio"}
CONFORMAL_CHECKS = ("skew", "jacobi", "jordan-comm")


# -- library and machine ---------------------------------------------------------

class Library:
    """The confcoalg modules, imported from this checkout's ``src/``."""

    def __init__(self):
        src = ROOT / "src"
        sys.path.insert(0, str(src))
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"confcoalg.{name}"))
        origin = Path(self.poly.__file__).resolve()
        if src.resolve() not in origin.parents:
            raise ImportError(f"confcoalg imported from {origin}, not from {src}")

    def modules(self) -> dict:
        return {name: getattr(self, name) for name in MODULES}


def git_sha():
    """The checkout's commit, read from .git without running git; None if absent."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "confcoalg").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# -- statistics --------------------------------------------------------------------

def tail(samples):
    """Highest percentile with at least ten samples beyond it, never below the median.

    Returns (value, percentile, samples beyond it)."""
    xs = sorted(samples)
    n = len(xs)
    idx = n - 11
    if idx < n // 2:
        return statistics.median(xs), 50.0, n // 2
    return xs[idx], 100.0 * (idx + 1) / n, n - idx - 1


# -- the timed phase --------------------------------------------------------------

class Pass:
    def __init__(self):
        self.probes = []
        self.wall = 0.0
        self.op_seconds = []          # (op name, seconds)
        self.failed = 0
        self.projections = {}
        self.phases = Phases()


def run_pass(ops, order, expected, probe, tracer=None) -> Pass:
    res = Pass()
    t_pass = time.perf_counter()
    t_probe = -PROBE_EVERY_S
    for i in order:
        op = ops[i]
        if time.perf_counter() - t_probe >= PROBE_EVERY_S:
            res.probes.append(probe.seconds())
            t_probe = time.perf_counter()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                proj = op.run(res.phases)
            else:
                with tracer.span(op.name):
                    proj = op.run(res.phases)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            proj = None
        res.op_seconds.append((op.name, time.perf_counter() - t0))
        res.projections[op.name] = proj
        if proj is None or fp.fingerprint(proj) != expected.get(op.name, {}).get("sha256"):
            res.failed += 1
            print(f"verdict mismatch: {op.name}", file=sys.stderr)
    res.probes.append(probe.seconds())
    res.wall = time.perf_counter() - t_pass - sum(res.probes)
    return res


def load_expected(workload: str) -> dict:
    return json.loads(FINGERPRINTS.read_text()).get(workload, {})


# -- metrics ---------------------------------------------------------------------

def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-commands" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(workload, setup_s, setup_probes, passes):
    attempted = sum(len(p.op_seconds) for p in passes)
    failed = sum(p.failed for p in passes)
    # A command is one operation.  With too few operations for a tail above
    # the median (lie-jacobi, jordan-identity: a handful of checks of very
    # different sizes) the median would fall between two unrelated checks,
    # so a command is the whole pass, as one batch ``verify`` run.
    cmd_unit = "operation"
    samples = [s for p in passes for _, s in p.op_seconds]
    if len(samples) < MIN_CMD_SAMPLES:
        samples, cmd_unit = [p.wall for p in passes], "pass"
    value, pct, beyond = tail(samples)
    ref_s = workload.probe.reference_ms / 1e3
    setup_scale = ref_s / statistics.median(setup_probes)
    scale = ref_s / statistics.median(x for p in passes for x in p.probes)
    values = {
        "setup_s": setup_s * setup_scale,
        "verdict_s": statistics.median(p.wall for p in passes) * scale,
        "cmd_p50_ms": statistics.median(samples) * 1e3 * scale,
        "cmd_tail_ms": value * 1e3 * scale,
        "peak_rss_mb": peak_rss_mb(workload.name),
        "match_ratio": (attempted - failed) / attempted,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    info = {"raw_setup_s": setup_s, "setup_scale": setup_scale,
            "pass_s": [p.wall for p in passes], "scale": scale,
            "cmd_unit": cmd_unit, "cmd_samples": len(samples),
            "cmd_tail_percentile": pct, "cmd_tail_beyond": beyond}
    return metrics, attempted, failed, info


def per_layer_names():
    """Every per-layer metric with its unit, in the order it is printed."""
    names = [(f"conformal.check_jacobi.us_per_tuple.{f}", "us") for f in LIE_FAMILIES]
    names += [(f"conformal.check_jordan_identity.us_per_tuple.{f}.{v}", "us")
              for f, v in JORDAN_ID]
    names += [("conformal.check_skew.s", "s"), ("conformal.check_jordan_comm.s", "s"),
              ("conformal.bracket.calls", "count"), ("conformal.bracket.self_s", "s"),
              ("conformal.tuples", "count"), ("conformal.violations", "count")]
    for op in ("mul", "add", "subst", "permute_vars"):
        names += [(f"poly.MultiPoly.{op}.calls", "count"), (f"poly.MultiPoly.{op}.self_s", "s")]
    names += [(f"poly.Scalar.{op}.calls", "count") for op in ("mul", "add", "new")]
    names += [(f"coalgebra.check_lie_coalgebra.us_per_gen.{f}", "us") for f in LIE_COALGEBRAS]
    names += [(f"coalgebra.check_jordan_coalgebra.us_per_gen.{f}", "us")
              for f in JORDAN_COALGEBRAS]
    names += [("coalgebra.apply_delta_slot.calls", "count"),
              ("coalgebra.apply_delta_slot.self_s", "s"),
              ("coalgebra.tau.calls", "count"), ("coalgebra.zeta.calls", "count"),
              ("coalgebra.dualize.s", "s"), ("coalgebra.compare.s", "s"),
              ("coalgebra.compare.diff_lines", "count"),
              ("coalgebra.double_dual_roundtrip.s", "s")]
    names += [(f"closed_form.coproduct.s.{f}", "s") for f, _, _, _ in CROSSCHECKS]
    names += [(f"families.make.s.{f}", "s") for f in FAMILIES]
    names += [("serialize.dumps.s", "s"), ("serialize.loads.s", "s"),
              ("serialize.bytes", "bytes"), ("serialize.tex.s", "s")]
    names += [("cli.import_ms", "ms")]
    names += [(f"cli.cmd_ms.{name}", "ms") for name, _, _ in CLI_COMMANDS]
    for k in micro.CLASSES:
        names += [(f"micro.{op}.ns.{k}", "ns") for op in (
            "Scalar.mul", "Scalar.add", "MultiPoly.mul",
            "MultiPoly.subst_general", "MultiPoly.permute_vars")]
    names += [(f"micro.grassmann.{op}.ns", "ns") for op in ("mul", "alpha", "hodge")]
    names += [(f"input.{k}", "count") for k in (
        "pairs", "nonempty_pairs", "coeff_terms", "nonintegral_terms", "gaussian_terms")]
    names += [("trace.overhead_s", "s"), ("trace.spans", "count")]
    return names


def import_s() -> float:
    """Seconds to import confcoalg.cli, and with it every module, in a fresh child."""
    probe = ("import time; t = time.perf_counter(); import confcoalg.cli; "
             "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=child_env(),
                          capture_output=True, timeout=60, check=True)
    return float(proc.stdout)


def per_layer(lib, state, props, setup_phases, import_times, untraced, traced, tracer, rng):
    values = {"cli.import_ms": statistics.median(import_times) * 1e3}
    # timings taken around direct calls, from the untraced pass
    values.update(untraced.phases.values)
    # families.make.s.*: median over the set-up repeats
    for key in setup_phases[0].values:
        values[key] = statistics.median(ph.values[key] for ph in setup_phases)
    for key, calls in tracer.calls.items():
        values[f"{key}.calls"] = calls
    for key, s in tracer.self_s.items():
        values[f"{key}.self_s"] = s
    conformal = [r for p in traced.projections.values() for r in fp.reports(p)
                 if r["check"] in CONFORMAL_CHECKS or r["check"].startswith("jordan-id")]
    values["conformal.tuples"] = sum(p["tuples"] for p in conformal)
    values["conformal.violations"] = sum(len(p["violations"]) for p in conformal)
    values["coalgebra.compare.diff_lines"] = sum(
        len(p["diff_lines"]) for p in traced.projections.values() if p and "diff_lines" in p)
    for key in [k for k in values if k.startswith("cli.cmd_ms.")]:
        values[key] *= 1e3
    values.update(micro.run(lib, state.tables, rng))
    for key in ("pairs", "nonempty_pairs", "coeff_terms", "nonintegral_terms", "gaussian_terms"):
        values[f"input.{key}"] = sum(row[key] for row in props.values())
    values["trace.overhead_s"] = traced.wall - untraced.wall
    values["trace.spans"] = len(tracer.spans)
    return {name: (values.get(name, 0), unit) for name, unit in per_layer_names()}


# -- main ---------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)

    lib = Library()
    expected = load_expected(workload.name)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        setup_probes, import_times = [], []
        for _ in range(SETUP_REPEATS):
            setup_probes.append(workload.probe.seconds())
            import_times.append(import_s())
        setup_phases, setup_times = [], []
        for _ in range(SETUP_REPEATS):
            setup_probes.append(workload.probe.seconds())
            ph = Phases()
            t0 = time.perf_counter()
            state = setup(lib, workload, workdir, ph)
            setup_times.append(time.perf_counter() - t0)
            setup_phases.append(ph)
        setup_s = statistics.median(import_times) + statistics.median(setup_times)
        ops = workload.ops(lib, state)

        def order():
            idx = list(range(len(ops)))
            rng.shuffle(idx)
            return idx

        info = {
            "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "python": platform.python_version(), "git_sha": git_sha(),
            "src_sha256": src_digest(), "ops_per_pass": len(ops),
            "tables": micro.input_properties(state.tables),
        }
        if args.trace == 0:
            n_passes = max(1, int(args.seconds // workload.pass_s))
            passes = [run_pass(ops, order(), expected, workload.probe)
                      for _ in range(n_passes)]
            metrics, attempted, failed, extra = end_to_end(
                workload, setup_s, setup_probes, passes)
            info.update(extra)
            last = passes[-1]
        else:
            untraced = run_pass(ops, order(), expected, workload.probe)
            with tracing.Tracer(lib.modules(), tracing.TARGETS) as tracer:
                traced = run_pass(ops, order(), expected, workload.probe, tracer)
            metrics = per_layer(lib, state, info["tables"], setup_phases, import_times,
                                untraced, traced, tracer, rng)
            attempted = len(untraced.op_seconds) + len(traced.op_seconds)
            failed = untraced.failed + traced.failed
            info.update({"absent": tracer.absent,
                         "overhead_s": traced.wall - untraced.wall,
                         "untraced_verdict_s": untraced.wall,
                         "traced_verdict_s": traced.wall})
            last = traced
        info["tuples"] = {f"{name}:{r['check']}": r["tuples"]
                          for name, p in last.projections.items() for r in fp.reports(p)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"info": info, "result": result}
    if args.trace:
        record["spans"] = tracer.spans
    out = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    print("# info " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
