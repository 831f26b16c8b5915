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
from fractions import Fraction
from typing import Optional

from . import closed_form, families, serialize
from .coalgebra import (
    check_jordan_coalgebra,
    check_lie_coalgebra,
    compare,
    double_dual_roundtrip,
    dualize,
)
from .conformal import (
    JORDAN,
    LIE,
    LambdaStructure,
    StructureError,
    check_jacobi,
    check_jordan_comm,
    check_jordan_identity,
    check_skew,
)
from .poly import Scalar

USAGE_ERROR = 2
CHECK_FAILURE = 1


class FamilyDef:
    def __init__(self, build, kind, needs_n=False, cap=None, formula=None,
                 allowed_n=None, takes_b=False):
        self.build = build
        self.kind = kind
        self.needs_n = needs_n
        self.cap = cap
        self.formula = formula
        self.allowed_n = allowed_n
        self.takes_b = takes_b


FAMILIES = {
    "vir": FamilyDef(lambda n, b: families.make_vir(), LIE,
                     formula=lambda n: closed_form.coproduct_vir()),
    "cur": FamilyDef(lambda n, b: families.make_cur_sl2(), LIE,
                     formula=lambda n: closed_form.coproduct_cur_sl2()),
    "w": FamilyDef(lambda n, b: families.make_W(n), LIE, needs_n=True,
                   cap=families.CAPS["W"],
                   formula=lambda n: closed_form.coproduct_W(n)),
    "s": FamilyDef(lambda n, b: families.make_S(n), LIE, needs_n=True,
                   cap=families.CAPS["S"],
                   formula=lambda n: closed_form.coproduct_S(n)),
    "sb": FamilyDef(lambda n, b: families.make_S_b(n, b), LIE, needs_n=True,
                    cap=families.CAPS["Sb"], takes_b=True),
    "stilde": FamilyDef(lambda n, b: families.make_S_tilde(n), LIE,
                        needs_n=True, cap=families.CAPS["Stilde"]),
    "k": FamilyDef(lambda n, b: families.make_K(n), LIE, needs_n=True,
                   cap=families.CAPS["K"],
                   formula=lambda n: closed_form.coproduct_K(n)),
    "n": FamilyDef(lambda n, b: families.make_K(n), LIE, needs_n=True,
                   allowed_n=(2, 3, 4),
                   formula=lambda n: closed_form.coproduct_N(n)),
    "k4prime": FamilyDef(lambda n, b: families.make_K4prime(), LIE,
                         formula=lambda n: closed_form.coproduct_K4prime()),
    "ck6": FamilyDef(lambda n, b: families.make_CK6(), LIE,
                     formula=lambda n: closed_form.coproduct_CK6()),
    "jn": FamilyDef(lambda n, b: families.make_Jn(n), JORDAN, needs_n=True,
                    cap=families.CAPS["Jn"],
                    formula=lambda n: closed_form.coproduct_Jn(n)),
    "js1": FamilyDef(lambda n, b: families.make_JS1(), JORDAN,
                     formula=lambda n: closed_form.coproduct_JS1()),
    "jck4": FamilyDef(lambda n, b: families.make_JCK4(), JORDAN,
                      formula=lambda n: closed_form.coproduct_JCK4()),
    "curjordan": FamilyDef(lambda n, b: families.make_cur_jordan_unit(),
                           JORDAN),
}

LIE_CHECKS = ("skew", "jacobi", "coalg", "roundtrip")
JORDAN_CHECKS = ("jordan-comm", "jordan-id", "cojordan", "roundtrip")

# check name -> the report it makes of a table; crosscheck reads the family
# from the command line instead (see cmd_verify)
CHECKS = {
    "skew": check_skew,
    "jacobi": check_jacobi,
    "jordan-comm": check_jordan_comm,
    "jordan-id": check_jordan_identity,
    "coalg": lambda S: check_lie_coalgebra(dualize(S)),
    "cojordan": lambda S: check_jordan_coalgebra(dualize(S)),
    "roundtrip": double_dual_roundtrip,
    "crosscheck": None,
}


def parse_scalar(text: str) -> Scalar:
    """Parse "re/den+im/den i" style scalars; also 0, 1, -2, beta, 1+2i, -i."""
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
    return Scalar(re_part, im_part)


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
    b = parse_scalar(args.b) if args.b else Scalar(0)
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
        _write(serialize.dumps(S), out)
    elif fmt == "latex":
        _write(serialize.structure_tex(S), out)
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
        _write(serialize.dumps(C), out)
    elif fmt == "latex":
        _write(serialize.coproduct_tex(C), out)
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


def _load_table(path: str) -> LambdaStructure:
    with open(path) as fh:
        S = serialize.loads(fh.read())
    if not isinstance(S, LambdaStructure):
        raise StructureError(f"{path} holds a coproduct; --in needs a lambda_structure table")
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
            reports.append(compare(dualize(S), _formula(fd, args)(n)))
        else:
            reports.append(CHECKS[c](S))
    ok = all(r.ok for r in reports)
    if args.format == "json":
        doc = {
            "structure": S.name,
            "ok": ok,
            "reports": [r.to_json() for r in reports],
        }
        _write(serialize.dumps(doc), args.out)
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
    _emit_coproduct(dualize(S), args.format, args.out)
    return 0


def _formula(fd, args):
    """The closed-form coproduct emitter of the family; a usage error if it has none."""
    if fd.formula is None:
        raise UsageError(f"family {args.family} has no tabulated coproduct")
    return fd.formula


def cmd_emit(args) -> int:
    fd, n, b = _resolve(args)
    _emit_coproduct(_formula(fd, args)(n), args.format, args.out)
    return 0


def cmd_crosscheck(args) -> int:
    fd, n, b = _resolve(args)
    formula = _formula(fd, args)
    rep = compare(dualize(fd.build(n, b)), formula(n))
    if args.format == "json":
        _write(serialize.dumps(rep.to_json()), args.out)
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
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except (StructureError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
