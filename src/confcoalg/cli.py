"""Command-line surface.

Commands:
  construct   build a family table and emit it (json | latex | text)
  verify      run axiom checks; exit 0 iff all selected checks pass (json | text)
  dualize     emit the coproduct of a family or an imported table
  emit        emit the closed-form (tabulated) coproduct of a family
  crosscheck  diff the machine dual against the tabulated coproduct (json | text)

Exit codes: 0 success, 1 verification/crosscheck failure, 2 usage error.
Output is deterministic.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import re
import sys
from itertools import groupby
from operator import itemgetter
from typing import Optional

import confcoalg

USAGE_ERROR = 2
CHECK_FAILURE = 1


class FamilyDef:
    """A family of the command line: its constructor make, of families, and
    its series, whose emitter module closed_form_<series> holds formula, so
    that a command imports only the emitters it runs.  A family takes --n
    when it has a desk-scale cap on n (--allow-large, which only such a
    family takes, overrides it) or a set of allowed n.  The constructors run
    no check; a verdict comes only from the checks of a verify run."""

    def __init__(self, series, make, cap=None, formula=None, allowed_n=None, takes_b=False):
        self.series = series
        self.make = make
        self.needs_n = cap is not None or allowed_n is not None
        self.cap = cap
        self.formula = formula
        self.allowed_n = allowed_n
        self.takes_b = takes_b

    def build(self, n, b):
        module = importlib.import_module("confcoalg.families")
        args = ((n,) if self.needs_n else ()) + ((b,) if self.takes_b else ())
        return getattr(module, self.make)(*args)

    def tabulated(self, n):
        module = importlib.import_module(f"confcoalg.closed_form_{self.series}")
        return getattr(module, self.formula)(*((n,) if self.needs_n else ()))


FAMILIES = {
    "vir": FamilyDef("current", "make_vir", formula="coproduct_vir"),
    "cur": FamilyDef("current", "make_cur_sl2", formula="coproduct_cur_sl2"),
    "w": FamilyDef("w", "make_W", cap=4, formula="coproduct_W"),
    "s": FamilyDef("w", "make_S", cap=3, formula="coproduct_S"),
    "sb": FamilyDef("w", "make_S_b", cap=2, takes_b=True),
    "stilde": FamilyDef("w", "make_S_tilde", cap=2),
    "k": FamilyDef("contact", "make_K", cap=6, formula="coproduct_K"),
    "n": FamilyDef("contact", "make_K", allowed_n=(2, 3, 4), formula="coproduct_N"),
    "k4prime": FamilyDef("contact", "make_K4prime", formula="coproduct_K4prime"),
    "ck6": FamilyDef("contact", "make_CK6", formula="coproduct_CK6"),
    "jn": FamilyDef("jordan", "make_Jn", cap=3, formula="coproduct_Jn"),
    "js1": FamilyDef("jordan", "make_JS1", formula="coproduct_JS1"),
    "jck4": FamilyDef("jordan", "make_JCK4", formula="coproduct_JCK4"),
    "curjordan": FamilyDef("current", "make_cur_jordan_unit"),
}

LIE_CHECKS = ("skew", "jacobi", "coalg", "roundtrip")
JORDAN_CHECKS = ("jordan-comm", "jordan-id", "cojordan", "roundtrip")

# check name -> the report it makes of a table S, given dual() returning the
# dual coproduct of S, built on the first call of a verify run; its function is
# imported when the check runs.  crosscheck reads the family from the command
# line instead (see cmd_verify)
CHECKS = {
    "skew": lambda S, dual: confcoalg.check_skew(S),
    "jacobi": lambda S, dual: confcoalg.check_jacobi(S),
    "jordan-comm": lambda S, dual: confcoalg.check_jordan_comm(S),
    "jordan-id": lambda S, dual: confcoalg.check_jordan_identity(S),
    "coalg": lambda S, dual: confcoalg.check_lie_coalgebra(dual()),
    "cojordan": lambda S, dual: confcoalg.check_jordan_coalgebra(dual()),
    "roundtrip": lambda S, dual: confcoalg.double_dual_roundtrip(S),
    "crosscheck": None,
}


def parse_scalar(text: str) -> confcoalg.Scalar:
    """Parse "re/den+im/den i" style scalars; also 0, 1, -2, beta, 2i, 1+2i, -i.
    A number written right before i, I or beta is the imaginary part."""
    from fractions import Fraction

    t = text.strip().replace(" ", "")
    m = re.fullmatch(   # the real part is lazy, so "2i" reads as the imaginary 2
        r"(?P<re>[+-]?\d+(?:/\d+)?)??"
        r"(?:(?P<sign>[+-])?(?P<im>\d+(?:/\d+)?)?(?P<unit>i|I|beta))?",
        t,
    )
    if not m or (m.group("re") is None and m.group("unit") is None) or not t:
        raise ValueError(f"cannot parse scalar {text!r}")
    try:
        re_part = Fraction(m.group("re")) if m.group("re") else Fraction(0)
        im_part = Fraction(0)
        if m.group("unit"):
            im_part = Fraction(m.group("im")) if m.group("im") else Fraction(1)
            if m.group("sign") == "-":
                im_part = -im_part
    except ZeroDivisionError:  # a zero denominator, as in 1/0
        raise ValueError(f"cannot parse scalar {text!r}") from None
    return confcoalg.Scalar(re_part, im_part)


def _resolve(args) -> tuple:
    if args.family is None:
        hint = " or --in" if hasattr(args, "infile") else ""
        raise UsageError(f"--family{hint} is required")
    name = args.family.lower()
    if name not in FAMILIES:
        raise UsageError(f"unknown family {args.family!r}; choose from "
                         + ", ".join(sorted(FAMILIES)))
    fd = FAMILIES[name]
    n = args.n
    if fd.needs_n:
        if n is None:
            raise UsageError(f"family {args.family} needs --n")
        if fd.allowed_n is not None and n not in fd.allowed_n:
            raise UsageError(
                f"family {args.family} allows n in {fd.allowed_n}"
            )
        if fd.cap is not None and n > fd.cap and not args.allow_large:
            raise UsageError(
                f"n={n} exceeds the desk-scale cap {fd.cap} for "
                f"{args.family}; pass --allow-large to override"
            )
        if n < 0:
            raise UsageError("n must be >= 0")
    elif n is not None:
        raise UsageError(f"family {args.family} takes no --n")
    if args.b is not None and not fd.takes_b:
        raise UsageError(f"family {args.family} takes no --b")
    if args.allow_large and fd.cap is None:
        raise UsageError(f"family {args.family} takes no --allow-large")
    b = parse_scalar(args.b) if args.b is not None else confcoalg.Scalar(0)
    return fd, n, b


class UsageError(Exception):
    pass


def _write(text: str, out: Optional[str]):
    if not text.endswith("\n"):
        text += "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(T, fmt, out):
    """Write a table or a coproduct T as json, latex or text.  The text rows group
    the stored slots, a table's sorted by (i, j, k) and a coproduct's by k (Table._store)."""
    table = isinstance(T, confcoalg.LambdaStructure)
    if fmt != "text":
        from . import serialize

        text = (serialize.dumps if fmt == "json"
                else serialize.structure_tex if table else serialize.coproduct_tex)(T)
    else:
        g = T.generators
        value = [repr(p) for p in T._values()]      # each distinct value's text, by its index
        rows = groupby(T.packed[1][1], itemgetter(0, 1) if table else itemgetter(2))
        lines = [f"# {T.name} (kind={T.kind}, rank={T.rank})"]
        if table:
            lines += [f"[{g[i].id} lam {g[j].id}] = "
                      + " + ".join(f"({value[e]})*{g[k].id}" for _, _, k, e in row)
                      for (i, j), row in rows]
        else:
            lines += [f"delta({g[k].id}) = " + ", ".join(
                f"{g[i].id}(x){g[j].id}: {value[e]}"
                for i, j, _, e in sorted(row, key=lambda t: (g[t[0]].id, g[t[1]].id)))
                for k, row in rows]
        text = "\n".join(lines)
    _write(text, out)


def _table(args) -> tuple:
    """(table, family, n): the table imported with --in, family and n None,
    or the table of the family on the command line."""
    if getattr(args, "infile", None):
        for flag, value in (("--family", args.family), ("--n", args.n), ("--b", args.b),
                            ("--allow-large", args.allow_large or None)):
            if value is not None:
                raise UsageError(f"--in takes no {flag}")
        from .serialize import loads

        with open(args.infile) as fh:
            S = loads(fh.read())
        if not isinstance(S, confcoalg.LambdaStructure):
            raise confcoalg.StructureError(
                f"{args.infile} holds a coproduct; --in needs a lambda_structure table")
        return S, None, None
    fd, n, b = _resolve(args)
    return fd.build(n, b), fd, n


def cmd_construct(args) -> int:
    _emit(_table(args)[0], args.format, args.out)
    return 0


def cmd_verify(args) -> int:
    S, fd, n = _table(args)
    from .tables import LIE

    default = LIE_CHECKS if S.kind == LIE else JORDAN_CHECKS
    wanted = args.checks.split(",") if args.checks is not None else list(default)
    dual = functools.cache(lambda: confcoalg.dualize(S))
    reports = []
    for c in wanted:
        c = c.strip()
        if c not in CHECKS:
            raise UsageError(f"unknown check {c!r}")
        if c == "crosscheck":
            if fd is None:
                raise UsageError("the crosscheck check needs --family; "
                                 "an imported table (--in) has no tabulated coproduct")
            reports.append(confcoalg.compare(dual(), _formula(fd, args)(n)))
        else:
            reports.append(CHECKS[c](S, dual))
    ok = all(r.ok for r in reports)
    if args.format == "json":
        from .serialize import dumps

        doc = {
            "structure": S.name,
            "ok": ok,
            "reports": [r.to_json() for r in reports],
        }
        _write(dumps(doc), args.out)
    else:
        lines = [r.summary() for r in reports]
        for r in reports:   # a Report lists violations, a crosscheck's DiffReport lines
            if hasattr(r, "violations"):
                lines += [f"  {','.join(v.where)}: {v.residual}" for v in r.violations[:20]]
            else:
                lines += [f"  {l}" for l in r.lines[:20]]
        _write("\n".join(lines), args.out)
    return 0 if ok else CHECK_FAILURE


def cmd_dualize(args) -> int:
    S = _table(args)[0]
    _emit(confcoalg.dualize(S), args.format, args.out)
    return 0


def _formula(fd, args):
    """The closed-form coproduct emitter of the family; a usage error if it has none."""
    if fd.formula is None:
        raise UsageError(f"family {args.family} has no tabulated coproduct")
    return fd.tabulated


def cmd_emit(args) -> int:
    fd, n, b = _resolve(args)
    _emit(_formula(fd, args)(n), args.format, args.out)
    return 0


def cmd_crosscheck(args) -> int:
    fd, n, b = _resolve(args)
    formula = _formula(fd, args)
    rep = confcoalg.compare(confcoalg.dualize(fd.build(n, b)), formula(n))
    if args.format == "json":
        from .serialize import dumps

        _write(dumps(rep.to_json()), args.out)
    else:
        _write("\n".join([rep.summary()] + ["  " + str(l) for l in rep.lines]), args.out)
    return 0 if rep.ok else CHECK_FAILURE


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="confcoalg",
        description="Exact conformal superalgebra tables, axiom verification "
                    "and dualization to differential coalgebras.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, infile=False, formats=("json", "latex", "text")):
        p.add_argument("--family", help="family name (vir, cur, W, S, Sb, "
                       "Stilde, K, N, K4prime, CK6, Jn, JS1, JCK4, CurJordan)")
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--b", default=None,
                       help="deformation parameter, e.g. 1, 1/2, beta, 1+2i")
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", default=None)
        p.add_argument("--allow-large", action="store_true")
        if infile:
            p.add_argument("--in", dest="infile", default=None,
                           help="import a JSON table instead of a family")

    p = sub.add_parser("construct", help="build and emit a family table")
    common(p)
    p.set_defaults(fn=cmd_construct)
    p = sub.add_parser("verify", help="run axiom checks")
    common(p, infile=True, formats=("json", "text"))
    p.add_argument("--checks", default=None, help="comma list: " + ",".join(CHECKS))
    p.set_defaults(fn=cmd_verify)
    p = sub.add_parser("dualize", help="emit the machine-dual coproduct")
    common(p, infile=True)
    p.set_defaults(fn=cmd_dualize)
    p = sub.add_parser("emit", help="emit the tabulated closed-form coproduct")
    common(p)
    p.set_defaults(fn=cmd_emit)
    p = sub.add_parser("crosscheck",
                       help="diff machine dual against the tabulated coproduct")
    common(p, formats=("json", "text"))
    p.set_defaults(fn=cmd_crosscheck)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return USAGE_ERROR if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (UsageError, ValueError, OSError) as e:   # StructureError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
