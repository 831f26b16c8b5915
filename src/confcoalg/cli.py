"""Command-line surface.

Commands:
  construct   build a family table and emit it (json | latex | text)
  verify      run axiom checks; exit 0 iff all selected checks pass
  dualize     emit the coproduct of a family or an imported table
  emit        emit the closed-form (tabulated) coproduct of a family
  crosscheck  diff the machine dual against the tabulated coproduct

Exit codes: 0 success, 1 verification/crosscheck failure, 2 usage error.
Output is deterministic.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import Optional

import confcoalg

USAGE_ERROR = 2
CHECK_FAILURE = 1


class FamilyDef:
    """A family of the command line, naming its constructor in families, its
    cap in families.CAPS and its closed-form emitter in closed_form, so that
    a command imports only the modules it runs."""

    def __init__(self, make, needs_n=False, cap=None, formula=None,
                 allowed_n=None, takes_b=False):
        self.make = make
        self.needs_n = needs_n
        self.cap = cap
        self.formula = formula
        self.allowed_n = allowed_n
        self.takes_b = takes_b

    def build(self, n, b):
        from . import families

        args = ((n,) if self.needs_n else ()) + ((b,) if self.takes_b else ())
        return getattr(families, self.make)(*args)

    def tabulated(self, n):
        from . import closed_form

        return getattr(closed_form, self.formula)(*((n,) if self.needs_n else ()))


FAMILIES = {
    "vir": FamilyDef("make_vir", formula="coproduct_vir"),
    "cur": FamilyDef("make_cur_sl2", formula="coproduct_cur_sl2"),
    "w": FamilyDef("make_W", needs_n=True, cap="W", formula="coproduct_W"),
    "s": FamilyDef("make_S", needs_n=True, cap="S", formula="coproduct_S"),
    "sb": FamilyDef("make_S_b", needs_n=True, cap="Sb", takes_b=True),
    "stilde": FamilyDef("make_S_tilde", needs_n=True, cap="Stilde"),
    "k": FamilyDef("make_K", needs_n=True, cap="K", formula="coproduct_K"),
    "n": FamilyDef("make_K", needs_n=True, allowed_n=(2, 3, 4), formula="coproduct_N"),
    "k4prime": FamilyDef("make_K4prime", formula="coproduct_K4prime"),
    "ck6": FamilyDef("make_CK6", formula="coproduct_CK6"),
    "jn": FamilyDef("make_Jn", needs_n=True, cap="Jn", formula="coproduct_Jn"),
    "js1": FamilyDef("make_JS1", formula="coproduct_JS1"),
    "jck4": FamilyDef("make_JCK4", formula="coproduct_JCK4"),
    "curjordan": FamilyDef("make_cur_jordan_unit"),
}

LIE_CHECKS = ("skew", "jacobi", "coalg", "roundtrip")
JORDAN_CHECKS = ("jordan-comm", "jordan-id", "cojordan", "roundtrip")

# check name -> the report it makes of a table, its function imported when the
# check runs; crosscheck reads the family from the command line instead (see
# cmd_verify)
CHECKS = {
    "skew": lambda S: confcoalg.check_skew(S),
    "jacobi": lambda S: confcoalg.check_jacobi(S),
    "jordan-comm": lambda S: confcoalg.check_jordan_comm(S),
    "jordan-id": lambda S: confcoalg.check_jordan_identity(S),
    "coalg": lambda S: confcoalg.check_lie_coalgebra(confcoalg.dualize(S)),
    "cojordan": lambda S: confcoalg.check_jordan_coalgebra(confcoalg.dualize(S)),
    "roundtrip": lambda S: confcoalg.double_dual_roundtrip(S),
    "crosscheck": None,
}


def parse_scalar(text: str) -> confcoalg.Scalar:
    """Parse "re/den+im/den i" style scalars; also 0, 1, -2, beta, 1+2i, -i."""
    from fractions import Fraction

    t = text.strip().replace(" ", "")
    m = re.fullmatch(
        r"(?P<re>[+-]?\d+(?:/\d+)?)?"
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
        if fd.cap is not None:
            from .families import CAPS

            if n > CAPS[fd.cap] and not args.allow_large:
                raise UsageError(
                    f"n={n} exceeds the desk-scale cap {CAPS[fd.cap]} for "
                    f"{args.family}; pass --allow-large to override"
                )
        if n < 0:
            raise UsageError("n must be >= 0")
    elif n is not None:
        raise UsageError(f"family {args.family} takes no --n")
    if args.b is not None and not fd.takes_b:
        raise UsageError(f"family {args.family} takes no --b")
    b = parse_scalar(args.b) if args.b else confcoalg.Scalar(0)
    return fd, n, b


class UsageError(Exception):
    pass


def _write(text: str, out: Optional[str]):
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_structure(S, fmt, out):
    if fmt == "json":
        from .serialize import dumps

        _write(dumps(S), out)
    elif fmt == "latex":
        from .serialize import structure_tex

        _write(structure_tex(S), out)
    else:
        lines = [f"# {S.name} (kind={S.kind}, rank={S.rank})"]
        for i in range(S.rank):
            for j in range(S.rank):
                e = S.table[(i, j)]
                if e:
                    lines.append(
                        f"[{S.generators[i].id} lam {S.generators[j].id}] = "
                        + S.entry(i, j).pretty(S)
                    )
        _write("\n".join(lines), out)


def _emit_coproduct(C, fmt, out):
    if fmt == "json":
        from .serialize import dumps

        _write(dumps(C), out)
    elif fmt == "latex":
        from .serialize import coproduct_tex

        _write(coproduct_tex(C), out)
    else:
        lines = [f"# {C.name} (kind={C.kind}, rank={C.rank})"]
        for k in range(C.rank):
            merged = C.normalized(k)
            if not merged:
                continue
            terms = ", ".join(
                f"{C.generators[i].id}(x){C.generators[j].id}: {q!r}"
                for (i, j), q in sorted(
                    merged.items(),
                    key=lambda kv: (C.generators[kv[0][0]].id, C.generators[kv[0][1]].id),
                )
            )
            lines.append(f"delta({C.generators[k].id}) = {terms}")
        _write("\n".join(lines), out)


def _load_table(path: str) -> confcoalg.LambdaStructure:
    from .serialize import loads

    with open(path) as fh:
        S = loads(fh.read())
    if not isinstance(S, confcoalg.LambdaStructure):
        raise confcoalg.StructureError(
            f"{path} holds a coproduct; --in needs a lambda_structure table")
    return S


def cmd_construct(args) -> int:
    fd, n, b = _resolve(args)
    S = fd.build(n, b)
    _emit_structure(S, args.format, args.out)
    return 0


def cmd_verify(args) -> int:
    if args.infile:
        S = _load_table(args.infile)
    else:
        fd, n, b = _resolve(args)
        S = fd.build(n, b)
    from .conformal import LIE

    default = LIE_CHECKS if S.kind == LIE else JORDAN_CHECKS
    wanted = args.checks.split(",") if args.checks else list(default)
    reports = []
    for c in wanted:
        c = c.strip()
        if c not in CHECKS:
            raise UsageError(f"unknown check {c!r}")
        if c == "crosscheck":
            if args.infile:
                raise UsageError("the crosscheck check needs --family; "
                                 "an imported table (--in) has no tabulated coproduct")
            reports.append(confcoalg.compare(confcoalg.dualize(S), _formula(fd, args)(n)))
        else:
            reports.append(CHECKS[c](S))
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
        lines = [r.summary() if hasattr(r, "summary") else repr(r) for r in reports]
        for r in reports:
            viols = getattr(r, "violations", None) or getattr(r, "lines", [])
            for v in viols[:20]:
                lines.append("  " + _viol_line(v))
        _write("\n".join(lines), args.out)
    return 0 if ok else CHECK_FAILURE


def _viol_line(v) -> str:
    if hasattr(v, "where"):
        return f"{','.join(v.where)}: {v.residual}"
    return str(v)


def cmd_dualize(args) -> int:
    if args.infile:
        S = _load_table(args.infile)
    else:
        fd, n, b = _resolve(args)
        S = fd.build(n, b)
    _emit_coproduct(confcoalg.dualize(S), args.format, args.out)
    return 0


def _formula(fd, args):
    """The closed-form coproduct emitter of the family; a usage error if it has none."""
    if fd.formula is None:
        raise UsageError(f"family {args.family} has no tabulated coproduct")
    return fd.tabulated


def cmd_emit(args) -> int:
    fd, n, b = _resolve(args)
    _emit_coproduct(_formula(fd, args)(n), args.format, args.out)
    return 0


def cmd_crosscheck(args) -> int:
    fd, n, b = _resolve(args)
    formula = _formula(fd, args)
    rep = confcoalg.compare(confcoalg.dualize(fd.build(n, b)), formula(n))
    if args.format == "json":
        from .serialize import dumps

        _write(dumps(rep.to_json()), args.out)
    else:
        if rep.ok:
            _write(f"crosscheck {rep.name_a} vs {rep.name_b}: empty diff", args.out)
        else:
            lines = [f"crosscheck {rep.name_a} vs {rep.name_b}: "
                     f"{len(rep.lines)} differences"]
            lines += ["  " + str(l) for l in rep.lines]
            _write("\n".join(lines), args.out)
    return 0 if rep.ok else CHECK_FAILURE


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="confcoalg",
        description="Exact conformal superalgebra tables, axiom verification "
                    "and dualization to differential coalgebras.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, infile=False):
        p.add_argument("--family", help="family name (vir, cur, W, S, Sb, "
                       "Stilde, K, N, K4prime, CK6, Jn, JS1, JCK4, CurJordan)")
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--b", default=None,
                       help="deformation parameter, e.g. 1, 1/2, beta, 1+2i")
        p.add_argument("--format", choices=("json", "latex", "text"),
                       default="text")
        p.add_argument("--out", default=None)
        p.add_argument("--allow-large", action="store_true")
        if infile:
            p.add_argument("--in", dest="infile", default=None,
                           help="import a JSON table instead of a family")

    p = sub.add_parser("construct", help="build and emit a family table")
    common(p)
    p.set_defaults(fn=cmd_construct)
    p = sub.add_parser("verify", help="run axiom checks")
    common(p, infile=True)
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
    common(p)
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
