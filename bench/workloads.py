"""The four benchmark workloads: their tables, their operations and why.

An operation is one verdict a batch verifier's user waits for: the checks
of one family (as ``confcoalg verify --family X`` runs them), one
crosscheck, one coalgebra check, one round trip, one serialisation round,
or one CLI command.
Each operation returns the projection of its verdict (see fingerprint.py).
Operations look library functions up on their modules when they run, so
the tracer's wrappers see every call.  No check is given ``workers=`` and
no command ``--workers``: everything runs single-threaded, one verdict at
a time (a closed loop with one client).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import fingerprint as fp

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


class Phases:
    """Per-pass sums of timings taken around direct calls into the library."""

    def __init__(self):
        self.values: Dict[str, float] = {}

    def add(self, key: str, value: float):
        self.values[key] = self.values.get(key, 0.0) + value

    def call(self, key: str, fn: Callable, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.add(key, time.perf_counter() - t0)


@dataclass(frozen=True)
class Probe:
    """A fixed piece of work outside the library whose time tracks machine speed."""

    run: Callable[[], object]
    reference_ms: float     # its median time on the reference machine

    def seconds(self) -> float:
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0


def _fraction_loop():
    acc = {}
    for i in range(6000):
        f = Fraction(i % 7 + 1, 3) * Fraction(5, i % 11 + 1) + Fraction(1, i % 13 + 1)
        acc[i & 127] = acc.get(i & 127, 0) + f
    return acc


def _child_interpreter():
    return subprocess.run(
        [sys.executable, "-c", "import argparse, dataclasses, fractions, itertools, json, re"],
        cwd=ROOT, capture_output=True, check=True, timeout=60)


# Reference times: median on the reference machine (2 vCPU Xeon at 2.1 GHz,
# Python 3.11.7).  In-process Fraction arithmetic tracks the library
# workloads; interpreter start plus stdlib imports tracks CLI children, whose
# time a compute probe does not follow.
FRACTION_PROBE = Probe(_fraction_loop, 63.0)
CHILD_PROBE = Probe(_child_interpreter, 90.0)


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[Phases], dict]


@dataclass
class State:
    """What set-up leaves for the timed phase."""

    tables: Dict[str, object]
    workdir: Path


BETA = "beta"   # stands for the Gaussian unit Scalar(0, 1) in constructor arguments

# family key -> (families constructor, arguments); keys double as metric suffixes
FAMILIES = {
    "Vir": ("make_vir", ()), "Cur-sl2": ("make_cur_sl2", ()),
    **{f"W_{n}": ("make_W", (n,)) for n in range(4)},
    **{f"S_{n}": ("make_S", (n,)) for n in (2, 3)},
    "S_2b-beta": ("make_S_b", (2, BETA)),
    **{f"K_{n}": ("make_K", (n,)) for n in range(1, 7)},
    "K_4p": ("make_K4prime", ()), "CK_6": ("make_CK6", ()),
    **{f"J_{n}": ("make_Jn", (n,)) for n in (2, 3)},
    "JS_1": ("make_JS1", ()), "JCK_4": ("make_JCK4", ()),
}


def build_table(lib, name: str):
    fn, args = FAMILIES[name]
    args = tuple(lib.poly.Scalar(0, 1) if a == BETA else a for a in args)
    return getattr(lib.families, fn)(*args)


def build_tables(lib, names, phases: Phases) -> Dict[str, object]:
    return {
        name: phases.call(f"families.make.s.{name}", build_table, lib, name)
        for name in names
    }


# -- lie-jacobi ----------------------------------------------------------------

LIE_FAMILIES = ("W_2", "K_4", "S_3", "S_2b-beta")


def _lie_ops(lib, st: State) -> List[Op]:
    C = lib.conformal

    def verify(ph, S, fam):
        skew = ph.call("conformal.check_skew.s", lambda: C.check_skew(S))
        t0 = time.perf_counter()
        jacobi = C.check_jacobi(S)
        ph.add(f"conformal.check_jacobi.us_per_tuple.{fam}",
               (time.perf_counter() - t0) / jacobi.total * 1e6)
        return {"skew": fp.report(skew), "jacobi": fp.report(jacobi)}

    return [Op(f"verify/{fam}", lambda ph, S=st.tables[fam], fam=fam: verify(ph, S, fam))
            for fam in LIE_FAMILIES]


# -- jordan-identity -----------------------------------------------------------

JORDAN_FAMILIES = ("J_2", "JCK_4", "JS_1")
JORDAN_ID = (("J_2", "consistent"), ("JS_1", "consistent"),
             ("JCK_4", "printed"), ("JS_1", "printed"))


def _jordan_ops(lib, st: State) -> List[Op]:
    C = lib.conformal

    def verify(ph, S, fam):
        out = {"jordan-comm": fp.report(
            ph.call("conformal.check_jordan_comm.s", lambda: C.check_jordan_comm(S)))}
        for variant in (v for f, v in JORDAN_ID if f == fam):
            t0 = time.perf_counter()
            rep = C.check_jordan_identity(S, variant=variant)
            ph.add(f"conformal.check_jordan_identity.us_per_tuple.{fam}.{variant}",
                   (time.perf_counter() - t0) / rep.total * 1e6)
            out[f"jordan-id.{variant}"] = fp.report(rep)
        return out

    return [Op(f"verify/{fam}", lambda ph, S=st.tables[fam], fam=fam: verify(ph, S, fam))
            for fam in JORDAN_FAMILIES]


# -- coalgebra-crosscheck --------------------------------------------------------

# the criterion-4 pairs: (family key, table key, closed_form emitter, arguments)
CROSSCHECKS = (
    ("Vir", "Vir", "coproduct_vir", ()),
    ("Cur-sl2", "Cur-sl2", "coproduct_cur_sl2", ()),
    *((f"W_{n}", f"W_{n}", "coproduct_W", (n,)) for n in range(4)),
    *((f"S_{n}", f"S_{n}", "coproduct_S", (n,)) for n in (2, 3)),
    *((f"K_{n}", f"K_{n}", "coproduct_K", (n,)) for n in range(1, 7)),
    *((f"N-{n}", f"K_{n}", "coproduct_N", (n,)) for n in (2, 3, 4)),
    ("K_4p", "K_4p", "coproduct_K4prime", ()),
    ("CK_6", "CK_6", "coproduct_CK6", ()),
    *((f"J_{n}", f"J_{n}", "coproduct_Jn", (n,)) for n in (2, 3)),
    ("JS_1", "JS_1", "coproduct_JS1", ()),
    ("JCK_4", "JCK_4", "coproduct_JCK4", ()),
)

COALGEBRA_FAMILIES = (
    "Vir", "Cur-sl2", "W_0", "W_1", "W_2", "W_3", "S_2", "S_3",
    "K_1", "K_2", "K_3", "K_4", "K_5", "K_6", "K_4p", "CK_6",
    "J_2", "J_3", "JS_1", "JCK_4",
)
LIE_COALGEBRAS = ("K_5", "W_3", "CK_6")
JORDAN_COALGEBRAS = ("J_3", "JCK_4")
SERIALIZED = ("K_5", "CK_6")


def _coalgebra_ops(lib, st: State) -> List[Op]:
    co, ser = lib.coalgebra, lib.serialize
    ops = []
    for fam, key, emitter, args in CROSSCHECKS:
        S = st.tables[key]

        def cross(ph, S=S, fam=fam, emitter=emitter, args=args):
            machine = ph.call("coalgebra.dualize.s", lambda: co.dualize(S))
            tabulated = ph.call(f"closed_form.coproduct.s.{fam}",
                                lambda: getattr(lib.closed_form, emitter)(*args))
            return fp.report(
                ph.call("coalgebra.compare.s", lambda: co.compare(machine, tabulated)))

        ops.append(Op(f"crosscheck/{fam}", cross))
    for fam, check, per_gen in (
        [(f, "check_lie_coalgebra", "coalgebra.check_lie_coalgebra") for f in LIE_COALGEBRAS]
        + [(f, "check_jordan_coalgebra", "coalgebra.check_jordan_coalgebra")
           for f in JORDAN_COALGEBRAS]
    ):
        S = st.tables[fam]

        def coalg(ph, S=S, fam=fam, check=check, per_gen=per_gen):
            cop = ph.call("coalgebra.dualize.s", lambda: co.dualize(S))
            t0 = time.perf_counter()
            rep = getattr(co, check)(cop)
            ph.add(f"{per_gen}.us_per_gen.{fam}", (time.perf_counter() - t0) / S.rank * 1e6)
            return fp.report(rep)

        ops.append(Op(f"{check}/{fam}", coalg))
    for fam in COALGEBRA_FAMILIES:
        S = st.tables[fam]

        def roundtrip(ph, S=S):
            return fp.report(ph.call("coalgebra.double_dual_roundtrip.s",
                                     lambda: co.double_dual_roundtrip(S)))

        ops.append(Op(f"roundtrip/{fam}", roundtrip))
    for fam in SERIALIZED:
        S = st.tables[fam]

        def serial(ph, S=S):
            text = ph.call("serialize.dumps.s", lambda: ser.dumps(S))
            ph.add("serialize.bytes", len(text.encode()))
            back = ph.call("serialize.loads.s", lambda: ser.loads(text))
            tex = ph.call("serialize.tex.s", lambda: ser.structure_tex(S))
            ctex = ph.call("serialize.tex.s", lambda: ser.coproduct_tex(co.dualize(S)))
            return {
                "json": fp.document(json.loads(text)),
                "roundtrip_identical": ser.dumps(back) == text,
                "structure_tex": fp.sha256(tex),
                "coproduct_tex": fp.sha256(ctex),
            }

        ops.append(Op(f"serialize/{fam}", serial))
    return ops


# -- cli-commands ----------------------------------------------------------------

CLI_TABLE = "K_3"
CLI_TABLE_FILE = "k3.json"

# (name, argv after "python -m confcoalg.cli", how the output is projected)
CLI_COMMANDS = (
    ("construct-json", ["construct", "--family", "K", "--n", "3", "--format", "json"], "json"),
    ("construct-latex", ["construct", "--family", "W", "--n", "2", "--format", "latex"], "text"),
    ("construct-text", ["construct", "--family", "S", "--n", "2", "--format", "text"], "text"),
    ("verify-in", ["verify", "--in", "{table}"], "text"),
    ("dualize-latex", ["dualize", "--family", "CK6", "--format", "latex"], "text"),
    ("emit", ["emit", "--family", "W", "--n", "3", "--format", "text"], "text"),
    ("crosscheck-json", ["crosscheck", "--family", "S", "--n", "3", "--format", "json"], "json"),
    ("verify-vir", ["verify", "--family", "vir"], "text"),
    ("unknown-family", ["verify", "--family", "nosuch"], "error"),
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    return env


def run_cli(argv: List[str]) -> subprocess.CompletedProcess:
    """One ``python -m confcoalg.cli`` child from the checkout root; waits for it."""
    return subprocess.run(
        [sys.executable, "-m", "confcoalg.cli", *argv],
        cwd=ROOT, env=child_env(), capture_output=True, timeout=120,
    )


def cli_projection(proc: subprocess.CompletedProcess, mode: str) -> dict:
    if mode == "error":
        return {"exit": proc.returncode,
                "error_prefix": proc.stderr.decode().startswith("error:")}
    if mode == "json":
        return {"exit": proc.returncode, "doc": fp.document(json.loads(proc.stdout))}
    return {"exit": proc.returncode, "stdout_sha256": fp.sha256(proc.stdout)}


def _cli_ops(lib, st: State) -> List[Op]:
    table_path = str((st.workdir / CLI_TABLE_FILE).relative_to(ROOT))
    ops = []
    for name, argv, mode in CLI_COMMANDS:
        argv = [table_path if a == "{table}" else a for a in argv]

        def command(ph, argv=argv, mode=mode, name=name):
            proc = ph.call(f"cli.cmd_ms.{name}", run_cli, argv)
            return cli_projection(proc, mode)

        ops.append(Op(f"cli/{name}", command))
    return ops


def _write_cli_table(lib, st: State):
    (st.workdir / CLI_TABLE_FILE).write_text(lib.serialize.dumps(st.tables[CLI_TABLE]))


# -- registry ----------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    families: Tuple[str, ...]
    ops: Callable[[object, State], List[Op]]
    # seconds budgeted per pass: a run of --seconds makes seconds // pass_s
    # passes whatever the speed of machine and code, so that every run measures
    # the same work with the same sample structure.  Chosen from pass times at
    # the commit that defined the benchmark (about 9.5, 10, 8 and 3.6 s on 2
    # vCPUs) so that a 20 s run makes 2, 2, 3 and 4 passes; with these counts
    # the tail of coalgebra-crosscheck and cli-commands falls inside a cluster
    # of like operations instead of on a single extreme sample.
    pass_s: float
    probe: Probe = FRACTION_PROBE
    prepare: Callable[[object, State], None] = lambda lib, st: None


WORKLOADS = {w.name: w for w in (
    Workload(
        "lie-jacobi",
        "skew+Jacobi on W_2, K_4, S_3, S_2b-beta: bracket and poly mul/subst on "
        "integer, Fraction and Gaussian tables",
        LIE_FAMILIES, _lie_ops, 9.5),
    Workload(
        "jordan-identity",
        "commutativity and the six-term identity on J_2, JCK_4, JS_1: arity 4, "
        "substitution-heavy, 256 by-design violations",
        JORDAN_FAMILIES, _jordan_ops, 10.0),
    Workload(
        "coalgebra-crosscheck",
        "dualize+compare for the 23 criterion-4 pairs, coalgebra axioms, round trips, "
        "serialisation; never calls bracket",
        COALGEBRA_FAMILIES, _coalgebra_ops, 6.5),
    Workload(
        "cli-commands",
        "fixed CLI command list as child processes: interpreter start, import and "
        "per-call table construction",
        (CLI_TABLE,), _cli_ops, 5.0, CHILD_PROBE, _write_cli_table),
)}


def setup(lib, workload: Workload, workdir: Path, phases: Phases) -> State:
    st = State(build_tables(lib, workload.families, phases), workdir)
    workload.prepare(lib, st)
    return st
