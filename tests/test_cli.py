"""CLI surface: commands, formats, exit codes."""

import functools
import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import confcoalg
from confcoalg import cli, families, families_contact, serialize
from confcoalg.cli import main, parse_scalar
from confcoalg.coalgebra import dualize
from confcoalg.families import corrupt_entry, make_vir
from confcoalg.poly import D, LAM, MultiPoly, Scalar, poly_to_json
from confcoalg.tables import Coproduct, LambdaStructure, Table


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_scalar():
    from fractions import Fraction

    assert parse_scalar("0") == Scalar(0)
    assert parse_scalar("1") == Scalar(1)
    assert parse_scalar("-2") == Scalar(-2)
    assert parse_scalar("1/2") == Scalar(Fraction(1, 2))
    assert parse_scalar("beta") == Scalar(0, 1)
    assert parse_scalar("1/2+3/4i") == Scalar(Fraction(1, 2), Fraction(3, 4))
    assert parse_scalar("-i").im == -1
    # a number written right before the unit is the imaginary part
    for text, im in (("2i", 2), ("1/2i", Fraction(1, 2)), ("-2i", -2), ("3beta", 3),
                     ("2 i", 2), ("2I", 2)):
        assert parse_scalar(text) == Scalar(0, im), text
    for text, value in (("1+2i", Scalar(1, 2)), ("1-i", Scalar(1, -1)), ("+i", Scalar(0, 1)),
                        ("i", Scalar(0, 1)), ("2", Scalar(2))):
        assert parse_scalar(text) == value, text


def test_construct_vir_latex(capsys):
    code, out, _ = run(capsys, "construct", "--family", "vir", "--format", "latex")
    assert code == 0
    assert out.strip() == r"[L_\lambda\, L] = (2\lambda+\partial)L"


def test_dualize_vir_latex(capsys):
    code, out, _ = run(capsys, "dualize", "--family", "vir", "--format", "latex")
    assert code == 0
    assert out.strip() == r"\delta(L^*) = \partial L^*\otimes L^*-L^*\otimes \partial L^*"


def test_construct_k2_rank(capsys):
    code, out, _ = run(capsys, "construct", "--family", "K", "--n", "2",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["generators"]) == 4


def test_verify_families(capsys):
    code, _, _ = run(capsys, "verify", "--family", "CK6",
                     "--checks", "skew,jacobi")
    assert code == 0
    code, _, _ = run(capsys, "verify", "--family", "JS1",
                     "--checks", "jordan-id")
    assert code == 0
    code, _, _ = run(capsys, "verify", "--family", "vir")
    assert code == 0


def test_cap_enforcement(capsys):
    """Each capped family refuses n = cap + 1 with a message naming the cap,
    and --allow-large lets that n through _resolve (nothing is built)."""
    capped = {name: fd.cap for name, fd in cli.FAMILIES.items() if fd.cap is not None}
    assert sorted(capped) == ["jn", "k", "s", "sb", "stilde", "w"]
    for name, cap in capped.items():
        code, out, err = run(capsys, "construct", "--family", name, "--n", str(cap + 1))
        assert (code, out) == (2, ""), name
        assert err == (f"error: n={cap + 1} exceeds the desk-scale cap {cap} for {name}; "
                       "pass --allow-large to override\n")
        args = cli.build_parser().parse_args(
            ["construct", "--family", name, "--n", str(cap + 1), "--allow-large"])
        assert cli._resolve(args)[:2] == (cli.FAMILIES[name], cap + 1)


@pytest.mark.parametrize("name", ["vir", "cur", "n", "k4prime", "ck6", "js1", "jck4", "curjordan"])
def test_allow_large_on_an_uncapped_family_is_a_usage_error(name, capsys):
    """--allow-large overrides a cap on --n, so on a family without one it
    is a usage error rather than dropped; a capped family still takes it."""
    assert cli.FAMILIES[name].cap is None
    argv = ["construct", "--family", name, "--allow-large"]
    if cli.FAMILIES[name].needs_n:
        argv += ["--n", "2"]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: family {name} takes no --allow-large\n")
    code, out, err = run(capsys, "construct", "--family", "k", "--n", "2", "--allow-large")
    assert (code, err) == (0, "") and out


def test_caps_table():
    caps = {name: fd.cap for name, fd in cli.FAMILIES.items()}
    assert caps["w"] == 4 and caps["k"] == 6 and caps["jn"] == 3


def test_unknown_family_and_check(capsys):
    code, _, _ = run(capsys, "construct", "--family", "nope")
    assert code == 2
    for checks in ("bogus", ""):
        code, _, err = run(capsys, "verify", "--family", "vir", "--checks", checks)
        assert code == 2 and err == f"error: unknown check {checks!r}\n"


@pytest.mark.parametrize("argv", [
    ("verify", "--family", "vir", "--format", "latex"),
    ("crosscheck", "--family", "vir", "--format", "latex"),
])
def test_reports_have_no_latex_layout(argv, capsys):
    """verify and crosscheck write text or JSON: --format latex is a usage error."""
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "invalid choice: 'latex'" in err


def test_crosschecks(capsys):
    code, out, _ = run(capsys, "crosscheck", "--family", "W", "--n", "2")
    assert code == 0 and "empty diff" in out
    code, out, _ = run(capsys, "crosscheck", "--family", "Jn", "--n", "2")
    assert code == 0
    code, out, _ = run(capsys, "crosscheck", "--family", "JCK4")
    assert code == 1 and "6 differences" in out


def test_crosscheck_text_is_the_report_summary(capsys):
    """crosscheck writes the status line of verify --checks crosscheck, then every line."""
    code, out, _ = run(capsys, "crosscheck", "--family", "W", "--n", "2")
    assert code == 0 and out == "crosscheck[W_2^c vs W_2^c[formula]]: empty diff\n"
    code, out, _ = run(capsys, "crosscheck", "--family", "JCK4")
    assert code == 1 and out.splitlines() == [
        "crosscheck[JCK_4^c vs JCK_4^c[formula]]: 6 differences",
        "  delta(x1*) @ w2* (x) x3*: 1  !=  -1",
        "  delta(x1*) @ x3* (x) w2*: 1  !=  -1",
        "  delta(x2*) @ w3* (x) x1*: 1  !=  -1",
        "  delta(x2*) @ x1* (x) w3*: 1  !=  -1",
        "  delta(x3*) @ w2* (x) x1*: 1  !=  -1",
        "  delta(x3*) @ x1* (x) w2*: 1  !=  -1",
    ]
    assert run(capsys, "verify", "--family", "JCK4", "--checks", "crosscheck")[:2] == (1, out)


def test_verify_crosscheck_builds_the_table_once(monkeypatch, capsys):
    calls = []
    make = families.make_CK6
    monkeypatch.setattr(families_contact, "make_CK6", lambda: calls.append(1) or make())
    code, out, _ = run(capsys, "verify", "--family", "ck6", "--checks", "crosscheck",
                       "--format", "json")
    assert code == 1 and len(calls) == 1
    # the same document as when the table was built twice
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "00da603224e1599ec2cadb87901800bd9217cc6d1639bc6965fa67fae1e521c3")
    code, cross, _ = run(capsys, "crosscheck", "--family", "ck6", "--format", "json")
    assert code == 1 and json.loads(out)["reports"] == [json.loads(cross)]


def test_verify_dualizes_the_table_once(monkeypatch, capsys):
    calls = []
    dual = confcoalg.dualize
    monkeypatch.setattr(confcoalg, "dualize", lambda S: calls.append(S) or dual(S))
    code, out, _ = run(capsys, "verify", "--family", "K", "--n", "3",
                       "--checks", "coalg,crosscheck")
    assert code == 0 and len(calls) == 1
    assert out.splitlines() == ["coalg[K_3^c]: pass over 8 tuples",
                                "crosscheck[K_3^c vs K_3^c[formula]]: empty diff"]


# sha256 of the stdout of each emitting command in each format; the text
# layouts are pinned nowhere else
EMITTED = {
    ("construct", "vir", "json"): "f4582ec89166d89db53108a49051cd18e440b623b9117718cbc8426acc23d0da",
    ("construct", "vir", "latex"): "6c52b306143ebb63c6d1d6266091af279319587e69b58fcfc2562bf1d8136702",
    ("construct", "vir", "text"): "3a157ed8103b568c309052cdad058228e8d0cb26fb0be07eb53747cef8558fbe",
    ("construct", "K_2", "json"): "0d195aa23b1637c4eb4d545b13794d29309bd6ba41c62a303bf93efadfee9b33",
    ("construct", "K_2", "latex"): "05d127972edbe0a6350634a2638ae0dc889190954858f43a24fc6730eeeb0e2e",
    ("construct", "K_2", "text"): "4d88a7381be4d2de5880812d80e2588e48cb2e4f86cca26fa565edbba9e47a76",
    ("construct", "S_2", "json"): "e42fa4be4e6c4cbf99e6f2bfaf67be64f93e66efd50263d4c415c8ee7813b668",
    ("construct", "S_2", "latex"): "0868dd9ed3515578153ea782e5716065585c5df888a7a452d53d6250df9fcc03",
    ("construct", "S_2", "text"): "0f3945cc3c89bd5e4af292b675c9d5484deab8f70410590c85e4dc0288bd4d11",
    ("construct", "CK6", "json"): "f156029a0a1756ad60b2950ca71084a66b7ec14d0835edd9c7f6beb547651906",
    ("construct", "CK6", "latex"): "b0d14e7052656da47868fbccb2f726fbcd5d8ec0020829e873110400e0921bca",
    ("construct", "CK6", "text"): "97c8d00f5d99109392c0e923c5ee5e094e5e0e582bdbcad624b7b1c537706ab8",
    ("construct", "Jn_2", "json"): "bbdf559b19937902bb0bf84032458378915dbb492afb47501051505e23dec2f2",
    ("construct", "Jn_2", "latex"): "6b44787cc9eab51a04f778222fa6f4957cc8a53c8732f46205e11cba0d4850df",
    ("construct", "Jn_2", "text"): "3b1f4bb28778d576574dcc5c00ed20a524d4b948af8f3ee1a64cda549823f59a",
    ("dualize", "vir", "json"): "c30ed053f4fda3232a232f6a94197a72a9533704a5720a0c7b75219d8c5886ff",
    ("dualize", "vir", "latex"): "822d5f1e46a6fea6eed44a75086b6eb6e8e02cc7d48f89ae1a5ea003b995fc61",
    ("dualize", "vir", "text"): "951e28d7be68016a8bb98b25fd0fa4a271accd249b006b741012130ceb7a2552",
    ("dualize", "K_2", "json"): "5d23b612bbc64d9765ab1346def928074a3ca6569898e052a02da6753d88af7a",
    ("dualize", "K_2", "latex"): "4e1dfecb5c0e4c966d53d1a942c7c3e04c2d954fa61602b0277209049a6e652e",
    ("dualize", "K_2", "text"): "b96bafa0fc9ece8c3beb5672393b7b6fcdca57bf61afb18c39659c149f978ef8",
    ("dualize", "S_2", "json"): "ebf3863beca38d50a19957d2b9ac917f30b1ad6fa2a38788c16b9b152b7e9bbd",
    ("dualize", "S_2", "latex"): "06c3c07e93f9466f75fe2c0629ab33c85e4072c2fd715caf0123434cd74d48dd",
    ("dualize", "S_2", "text"): "d788a4380ee77c27c38391505258a49eb8835407a3853f5e62bef5e01a22778c",
    ("dualize", "CK6", "json"): "767d08450a8a258934fc0a8cd3f18560a3d6a7b0fdc792759f1c0fa1e9959eb5",
    ("dualize", "CK6", "latex"): "4558e2fcf8402bcd3cd3a8aa6046fd3fdbdd9ce6f05068c7515543084b45720a",
    ("dualize", "CK6", "text"): "20bbf71e8dd2da3ff6a8c37033fcfa5add8c3459216086b43b36f3c870d24f07",
    ("dualize", "Jn_2", "json"): "2d5f657d2925f67b9609d3d4de41c6c9491cf6d0e2311794a2287d36cf844129",
    ("dualize", "Jn_2", "latex"): "fe4fff700f3f96bebfac6ad76985cf32ec07b4b6f4944be6e0e5d6b01d3b9134",
    ("dualize", "Jn_2", "text"): "db64f0c88b4a7d7254d7457357650b91e59bb7b82cb4661a94825903fffe7528",
    ("emit", "vir", "json"): "9bdb576e0c8aef61ae9f825daa7be5687febdea6839b6aa1defebe8e9a1322b6",
    ("emit", "vir", "latex"): "822d5f1e46a6fea6eed44a75086b6eb6e8e02cc7d48f89ae1a5ea003b995fc61",
    ("emit", "vir", "text"): "5356f8f8c020e96d8e8607f25d5f7c70c4b9c5e4d44a4f33b90302d918c2140c",
    ("emit", "K_2", "json"): "028d1f04f4b1ee1ac9ed9d7b15e86a889e15ca682fce250ccab73096fcdab0b1",
    ("emit", "K_2", "latex"): "4e1dfecb5c0e4c966d53d1a942c7c3e04c2d954fa61602b0277209049a6e652e",
    ("emit", "K_2", "text"): "6ea6da4a2961a6f8e0ca1b0e4fb9469d867bb3459d309f9d7ee6db48851d25a3",
    ("emit", "S_2", "json"): "aa690b3ea61f930e56eb9a56c6e9e4c1cbfbff1dafcde082554dc74b9f7a4897",
    ("emit", "S_2", "latex"): "0e8525f942fac748e3d613c16bc46b46a824700a4a24fd2a0cc6af9f9738fd1f",
    ("emit", "S_2", "text"): "36523ac1bf5dd6146591fd15690d8981708fec458c7b547a6f3b29ace455833a",
    ("emit", "CK6", "json"): "11c73cc12bc531772d8fff3c730d9aa6f36f5584ffe6b8526f1414ebc311b1f3",
    ("emit", "CK6", "latex"): "9012ba4ff3af028e58ed0609a836cc9a38906182fcf465265d94e90403ed0662",
    ("emit", "CK6", "text"): "3d11c3856687e1fada00b3badea847acc6c43e23322147a5db2fa422ff85d006",
    ("emit", "Jn_2", "json"): "a4b927baa94d3527e0702cd68565754735bc95effa04f496995f8a456679764c",
    ("emit", "Jn_2", "latex"): "fe4fff700f3f96bebfac6ad76985cf32ec07b4b6f4944be6e0e5d6b01d3b9134",
    ("emit", "Jn_2", "text"): "9a448eb381f17f6a36698ccf6dac2853eaad52154f8ba524b23887b420693e1b",
}


@pytest.mark.parametrize("command, family, fmt", sorted(EMITTED))
def test_emitted_documents_are_pinned(command, family, fmt, capsys):
    name, _, n = family.partition("_")
    code, out, err = run(capsys, command, "--family", name, *(("--n", n) if n else ()),
                         "--format", fmt)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == EMITTED[command, family, fmt]


def test_writers_walk_the_stored_slots(monkeypatch, capsys):
    """No writer lays out the row view: with LambdaStructure.table, which
    lays out every generator pair of a table, raising (a coproduct keeps no
    rows), dumps, structure_tex and coproduct_tex and every pinned
    construct, dualize and emit output still write their pinned bytes."""
    def laid_out(self):
        raise AssertionError(f"a writer laid out the rows of {self.name}")

    monkeypatch.setattr(LambdaStructure, "table", property(laid_out))
    S = families.make_K(2)
    for text, (command, fmt) in ((serialize.dumps(S), ("construct", "json")),
                                 (serialize.structure_tex(S), ("construct", "latex")),
                                 (serialize.coproduct_tex(dualize(S)), ("dualize", "latex"))):
        digest = hashlib.sha256((text + "\n").encode()).hexdigest()
        assert digest == EMITTED[command, "K_2", fmt], (command, fmt)
    for (command, family, fmt), pin in sorted(EMITTED.items()):
        name, _, n = family.partition("_")
        code, out, err = run(capsys, command, "--family", name, *(("--n", n) if n else ()),
                             "--format", fmt)
        assert (code, err, hashlib.sha256(out.encode()).hexdigest()) == (0, "", pin), \
            (command, family, fmt)


@pytest.mark.parametrize("family", sorted(cli.FAMILIES))
def test_documents_keep_latex_names(family, capsys, tmp_path):
    """A table written with construct --format json and read back with --in
    dualizes as the family does, and its LaTeX is the table's: the documents
    keep each generator's LaTeX name.  JSON and LaTeX list the generators by
    id and match byte for byte; text lists them in table order, which a
    document does not keep, so its lines match in some order."""
    fam = cli.FAMILIES[family]
    n = (fam.allowed_n[0] if fam.allowed_n else min(2, fam.cap)) if fam.needs_n else None
    flags = ["--family", family, *(("--n", str(n)) if fam.needs_n else ())]
    code, doc, _ = run(capsys, "construct", *flags, "--format", "json")
    assert code == 0
    path = tmp_path / "table.json"
    path.write_text(doc)
    for fmt in ("json", "latex", "text"):
        got, expected = (run(capsys, "dualize", *source, "--format", fmt)
                         for source in (("--in", str(path)), flags))
        if fmt == "text":
            got, expected = ((code, sorted(out.splitlines()), err) for code, out, err in (got, expected))
        assert got == expected, fmt
    S = fam.build(n, None if not fam.takes_b else Scalar(0))
    assert serialize.structure_tex(serialize.loads(serialize.dumps(S))) == serialize.structure_tex(S)


# sha256 of the stdout of verify on tables that fail: violation residuals
# with Fraction and beta coefficients, co-check residuals and diff lines.
# JCK_4 passes its default checks, so its second command adds the crosscheck.
VERIFIED = {
    ("jn2", "text"): "e997b7e9879b37adc9c175ff5a1fadbb5271bd4a2cc216ce6e904c71369e5a7c",
    ("jn2", "json"): "7cee602dcfd121fe69284ab880f7f803492e233fe05af44580d7d2af71ff68b3",
    ("jn3", "text"): "faf8f00c1c484d6c5603c78b20c0e613da0adfcdd40395b06e1398631a1870d5",
    ("jn3", "json"): "09762267146c09745a68f77b91aeb6f6055dce586bf1335106243da099a5c66e",
    ("jck4", "text"): "17dfc71401052a995a4ae22d8e343cdf9791c999dd2404f29146615d36615103",
    ("jck4", "json"): "03382efc04f6b9b6474371a7be7a35c085a7054c6e9328160071c102d1cc236b",
    ("jck4-crosscheck", "text"): "75e03f853e61828cf7d53fde1f3bf22976a602ceffac5a3b77dfb01a5eeab071",
    ("jck4-crosscheck", "json"): "b6462106121a86aaf787e2fae4a6a681d99e5beecd450a9913050a5e8813612e",
    ("sb-corrupted", "text"): "dd6c6669d641d7df50e12d105c9508027cc073b1b42d2e991936c9fd325fd893",
    ("sb-corrupted", "json"): "1c538855b7435c3804195ce2310823f8609736d32e7521e1b185033505fb11c1",
}
VERIFY_ARGV = {
    "jn2": ["--family", "jn", "--n", "2"],
    "jn3": ["--family", "jn", "--n", "3", "--checks", "jordan-id,cojordan"],
    "jck4": ["--family", "jck4"],
    "jck4-crosscheck": ["--family", "jck4",
                        "--checks", "jordan-comm,jordan-id,cojordan,roundtrip,crosscheck"],
    "sb-corrupted": ["--in", "{table}"],
}


def _corrupted_sb(path):
    """S_{2,b=beta} with [k1 lam k4] replaced by ((1/2+beta) lam - 1/3 d) k5,
    written as a table document: skew, Jacobi and coalg fail."""
    S = families.make_S_b(2, Scalar(0, 1))
    q = (MultiPoly.monomial({"lam": 1}, Scalar(Fraction(1, 2), 1))
         + MultiPoly.monomial({"d": 1}, Scalar(Fraction(-1, 3))))
    path.write_text(serialize.dumps(corrupt_entry(S, "k1", "k4", "k5", q)))
    return str(path)


@pytest.mark.parametrize("case, fmt", sorted(VERIFIED))
def test_failing_verify_outputs_are_pinned(case, fmt, tmp_path, capsys):
    table = _corrupted_sb(tmp_path / "sb.json") if case == "sb-corrupted" else None
    argv = [a.format(table=table) for a in VERIFY_ARGV[case]]
    code, out, err = run(capsys, "verify", *argv, "--format", fmt)
    assert (code, err) == (0 if case == "jck4" else 1, "")
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFIED[case, fmt]


def test_emit_formula(capsys):
    code, out, _ = run(capsys, "emit", "--family", "vir", "--format", "latex")
    assert code == 0 and r"\delta" in out


def test_emitted_latex_marks_each_dual_once(capsys):
    """A closed-form dual's id ends in *, which the LaTeX writer writes as ^*,
    so Vir's tabulated coproduct reads as its machine dual does.  For every
    family with a formula, emit and dualize give each dual the same LaTeX
    name, the primal's LaTeX name with ^* (\\xi_{1}^*, not xi1^*)."""
    emitted = run(capsys, "emit", "--family", "vir", "--format", "latex")
    assert emitted == run(capsys, "dualize", "--family", "vir", "--format", "latex")
    for name, fd in sorted(cli.FAMILIES.items()):
        if fd.formula is None:
            continue
        n = ("--n", "2") if fd.needs_n else ()
        code, out, _ = run(capsys, "emit", "--family", name, *n, "--format", "latex")
        assert code == 0 and "^*" in out and "*^*" not in out, name
        args = (2 if n else None,)
        names = [{g.id: serialize._dual_tex(g) for g in cop.generators}
                 for cop in (fd.tabulated(*args), dualize(fd.build(*args, Scalar(0))))]
        assert names[0] == names[1], name
        assert all(tex in out for tex in names[0].values() if "\\" in tex), name


def test_json_round_trip_via_files(tmp_path, capsys):
    table = tmp_path / "k2.json"
    code, _, _ = run(capsys, "construct", "--family", "K", "--n", "2",
                     "--format", "json", "--out", str(table))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--in", str(table),
                       "--checks", "skew,jacobi")
    assert code == 0
    # emitting the import again reproduces the file byte-for-byte
    written = table.read_bytes()
    assert (serialize.dumps(serialize.loads(written.decode())) + "\n").encode() == written
    code2, out2, _ = run(capsys, "dualize", "--in", str(table),
                         "--format", "json")
    assert code2 == 0
    doc = json.loads(out2)
    assert doc["type"] == "coproduct"


def test_corrupted_table_import_fails_with_one_line(tmp_path, capsys):
    bad = corrupt_entry(make_vir(), "L", "L", "L", D + LAM)
    path = tmp_path / "bad.json"
    path.write_text(serialize.dumps(bad))
    code, out, _ = run(capsys, "verify", "--in", str(path), "--checks", "skew")
    assert code == 1
    lines = [l for l in out.splitlines() if l.strip().startswith("L,L")]
    assert len(lines) == 1 and "(d)*L" in lines[0]


def test_import_with_terms_that_cancel_on_an_odd_generator_is_refused(tmp_path, capsys):
    """Two [L lam L] terms on an added odd generator b cancel, but each breaks
    parity additivity as given: verify --in refuses the document."""
    doc = json.loads(serialize.dumps(make_vir()))
    doc["generators"].append({"id": "b", "parity": 1})
    row, = [row for row in doc["table"] if row["left"] == row["right"] == "L"]
    row["terms"] += [{"gen": "b", "poly": poly_to_json(p)} for p in (LAM, -LAM)]
    path = tmp_path / "cancel.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "verify", "--in", str(path)) == (
        2, "", "error: parity violation in (L,L) -> b\n")


COMMANDS = ("construct", "dualize", "emit", "crosscheck", "verify")


@pytest.mark.parametrize("command", COMMANDS)
def test_missing_family_is_a_usage_error(command, capsys):
    code, out, err = run(capsys, command)
    assert code == 2 and out == ""
    hint = " or --in" if command in ("dualize", "verify") else ""
    assert err == f"error: --family{hint} is required\n"


@pytest.mark.parametrize("argv, message", [
    pytest.param(("--family", "W"), "family W needs --n", id="missing-n"),
    pytest.param(("--family", "vir", "--n", "3"), "family vir takes no --n", id="stray-n"),
    pytest.param(("--family", "K", "--n", "2", "--b", "1"), "family K takes no --b", id="stray-b"),
])
@pytest.mark.parametrize("command", COMMANDS)
def test_family_and_n_must_agree(command, argv, message, capsys):
    code, out, err = run(capsys, command, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_crosscheck_of_imported_table_is_a_usage_error(tmp_path, capsys):
    table = tmp_path / "vir.json"
    table.write_text(serialize.dumps(make_vir()))
    code, out, err = run(capsys, "verify", "--in", str(table),
                         "--checks", "skew,crosscheck")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--family" in err


@pytest.mark.parametrize("flags", [("--family", "vir"), ("--n", "5"), ("--b", "1"),
                                   ("--allow-large",)],
                         ids=["family", "n", "b", "allow-large"])
@pytest.mark.parametrize("command", ["verify", "dualize"])
def test_imported_table_takes_no_family_n_or_b(command, flags, tmp_path, capsys):
    """--in names the whole table, so a --family, --n, --b or --allow-large
    next to it is a usage error rather than dropped."""
    table = tmp_path / "k2.json"
    table.write_text(serialize.dumps(families.make_K(2)))
    code, out, err = run(capsys, command, "--in", str(table), *flags)
    assert code == 2 and out == ""
    assert err == f"error: --in takes no {flags[0]}\n"


# -- malformed --in documents: exit 2 with one error line naming the fault


def _table_doc():
    return json.loads(serialize.dumps(make_vir()))


def _coproduct_doc():
    return json.loads(serialize.dumps(dualize(make_vir())))


def _first_row(doc):
    return doc["table"][0]


MALFORMED = {
    "non-object": (lambda: [1, 2], lambda doc: None, "document is not a JSON object"),
    "no-generators": (_table_doc, lambda doc: doc.pop("generators"),
                      "document has no 'generators' key"),
    "no-table": (_table_doc, lambda doc: doc.pop("table"), "document has no 'table' key"),
    "no-terms": (_table_doc, lambda doc: _first_row(doc).pop("terms"),
                 "table row 0 has no 'terms' key"),
    "no-pairs": (_coproduct_doc, lambda doc: _first_row(doc).pop("pairs"),
                 "table row 0 has no 'pairs' key"),
    "unknown-gen": (_table_doc, lambda doc: _first_row(doc)["terms"][0].update(gen="nosuch"),
                    "'gen' of term 0 of table row 0 names unknown generator 'nosuch'"),
    "unknown-left": (_table_doc, lambda doc: _first_row(doc).update(left="nosuch"),
                     "'left' of table row 0 names unknown generator 'nosuch'"),
    "unknown-right": (_coproduct_doc,
                      lambda doc: _first_row(doc)["pairs"][0].update(right="nosuch"),
                      "'right' of pair 0 of table row 0 names unknown generator 'nosuch'"),
    "bad-parity": (_table_doc, lambda doc: doc["generators"][0].update(parity=2),
                   "parity of generator 0 is not 0 or 1"),
    **{f"parity-{name}": (_coproduct_doc, lambda doc, p=p: doc["generators"][0].update(parity=p),
                          "parity of generator 0 is not 0 or 1")
       for name, p in (("float", 1.7), ("true", True), ("string", "1"))},
    "id-int": (_table_doc, lambda doc: doc["generators"][0].update(id=5),
               "'id' of generator 0 is not a JSON string"),
    "id-list": (_coproduct_doc, lambda doc: doc["generators"][0].update(id=["L"]),
                "'id' of generator 0 is not a JSON string"),
    "name-int": (_table_doc, lambda doc: doc.update(name=5),
                 "'name' of document is not a JSON string"),
    "name-list": (_coproduct_doc, lambda doc: doc.update(name=["vir"]),
                  "'name' of document is not a JSON string"),
    "duplicate-id": (_coproduct_doc, lambda doc: doc["generators"].append(doc["generators"][0]),
                     "generator ids not unique"),
    "format-version": (_table_doc, lambda doc: doc.update(format_version=99),
                       "unsupported format_version 99"),
    "no-format-version": (_coproduct_doc, lambda doc: doc.pop("format_version"),
                          "unsupported format_version None"),
    **{f"exponent-{name}": (_table_doc, lambda doc, e=e: _first_row(doc)["terms"][0]["poly"][0]
                            ["exps"].update(lam=e),
                            "malformed poly of term 0 of table row 0: "
                            + repr(ValueError(f"exponent {e!r} of lam is not an integer")))
       for name, e in (("true", True), ("float", 1.5), ("string", "2"))},
    "exps-list": (_table_doc, lambda doc: _first_row(doc)["terms"][0]["poly"][0].update(exps=[1]),
                  "malformed poly of term 0 of table row 0: "
                  + repr(ValueError("exponents [1] are not an object"))),
    "exps-string": (_coproduct_doc,
                    lambda doc: _first_row(doc)["pairs"][0]["poly"][0].update(exps="x1"),
                    "malformed poly of pair 0 of table row 0: "
                    + repr(ValueError("exponents 'x1' are not an object"))),
    "coeff-true": (_table_doc, lambda doc: _first_row(doc)["terms"][0]["poly"][0].update(
                       coeff=[True, 1, 0, 1]),
                   "malformed poly of term 0 of table row 0: "
                   + repr(ValueError("coefficient part True is not an integer"))),
    "duplicate-row": (_table_doc, lambda doc: doc["table"].append(doc["table"][0]),
                      "table row 1 repeats the pair (L, L)"),
    "duplicate-gen-row": (_coproduct_doc,
                          lambda doc: doc["table"].append({"gen": "L*", "pairs": []}),
                          "table row 1 repeats the generator L*"),
    "stray-variable": (_coproduct_doc,
                       lambda doc: _first_row(doc)["pairs"][0]["poly"][0]["exps"].update(x3=1),
                       "delta(L*) @ L* (x) L* uses x3; coproduct entries may only use x1 and x2"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_is_an_input_error(case, tmp_path, capsys):
    make, edit, message = MALFORMED[case]
    doc = make()
    edit(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for command in ("verify", "dualize"):
        code, out, err = run(capsys, command, "--in", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


# -- the arithmetic limits: every table the reader takes gets a verdict


def _first_term(doc):
    return doc["table"][0]["terms"][0]["poly"][0]


@pytest.mark.parametrize("family, kind, top", [("K", "lie", 127), ("JS1", "jordan", 85)])
def test_entry_degree_bound(family, kind, top, tmp_path, capsys):
    """A reader takes an entry of total degree up to serialize.MAX_DEGREE of
    its kind, the most whose products in the checks, of two entries of a Lie
    table and three of a Jordan one, fit an exponent field (255), and
    refuses one of degree one above, before any check runs: verify gives
    a verdict on every check at the bound and dualize writes the dual."""
    assert serialize.MAX_DEGREE[kind] == top == 255 // {"lie": 2, "jordan": 3}[kind]
    S = families.make_K(2) if family == "K" else families.make_JS1()
    path = tmp_path / "doc.json"
    for degree in (top, top + 1):
        doc = json.loads(serialize.dumps(S))
        _first_term(doc)["exps"] = {"lam": degree}
        path.write_text(json.dumps(doc))
        verify = run(capsys, "verify", "--in", str(path))
        dual = run(capsys, "dualize", "--in", str(path))
        if degree == top:
            code, out, err = verify
            assert code == 1 and err == ""
            assert len(re.findall(r"^\S+: (?:pass|FAIL)", out, re.M)) == 4
            assert dual[0] == 0 and f"^{top}" in dual[1]
        else:
            message = (f"error: poly of term 0 of table row 0 has total degree {degree}; "
                       f"a {kind} table takes at most {top}\n")
            assert verify == dual == (2, "", message)


def test_coefficient_past_the_int_string_limit_gets_a_verdict(tmp_path, capsys):
    """K_2 with one coefficient of 3,000 digits: the Jacobi residual squares
    it, past the interpreter's int-string limit (4,300 digits unless set
    otherwise), and verify still exits 1 with every violation, written
    exactly, in text and in JSON: as it writes them with the limit lifted.
    The limit is left as it was."""
    doc = json.loads(serialize.dumps(families.make_K(2)))
    _first_term(doc)["coeff"][0] = 10 ** 2999 + 7
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    limit = sys.get_int_max_str_digits()
    got = [run(capsys, "verify", "--in", str(path), "--format", fmt) for fmt in ("text", "json")]
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        want = [run(capsys, "verify", "--in", str(path), "--format", fmt) for fmt in ("text", "json")]
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == want
    (code, text, err), (json_code, document, json_err) = got
    assert code == json_code == 1 and err == json_err == ""
    assert max(map(len, re.findall(r"\d+", text))) > 4300
    reports = json.loads(document)["reports"]
    assert [r["check"] for r in reports if r["violations"]] == ["skew", "jacobi", "coalg"]


def test_deeply_nested_document_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    for command in ("verify", "dualize"):
        code, out, err = run(capsys, command, "--in", str(path))
        assert code == 2 and out == ""
        assert err == "error: document is nested too deeply\n"


@pytest.mark.parametrize("b", ["1/0", "0/0", ""])
def test_zero_denominator_scalar_is_an_input_error(b, capsys):
    code, out, err = run(capsys, "construct", "--family", "Sb", "--n", "2", "--b", b)
    assert code == 2 and out == ""
    assert err == f"error: cannot parse scalar '{b}'\n"


def test_coproduct_document_is_not_a_table(tmp_path, capsys):
    path = tmp_path / "vir-dual.json"
    path.write_text(json.dumps(_coproduct_doc()))
    code, out, err = run(capsys, "verify", "--in", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "lambda_structure" in err


# -- module footprint: each command imports only the modules it runs; with no
# bytecode cache every module a child imports is compiled again


def _footprint(code):
    """Run `code` in a fresh interpreter; return what it binds to `result` and the
    confcoalg modules it loaded, and dataclasses if it loaded that."""
    probe = (f"import sys\n{code}\nimport json\n"
             "print(json.dumps([result, sorted(m for m in sys.modules if m == 'dataclasses'"
             " or m.split('.')[0] == 'confcoalg')]))")
    src = os.path.dirname(os.path.dirname(confcoalg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    result, modules = json.loads(proc.stdout.splitlines()[-1])
    return result, {m.removeprefix("confcoalg.") for m in modules}


def _main_footprint(*argv):
    return _footprint(f"from confcoalg.cli import main\nresult = main({list(argv)!r})")


def test_unknown_family_loads_no_library_module():
    code, modules = _main_footprint("verify", "--family", "nosuch")
    assert code == 2 and modules == {"confcoalg", "cli"}


@pytest.mark.parametrize("command", ["construct", "dualize", "emit", "crosscheck"])
def test_unknown_family_of_every_command_loads_no_library_module(command):
    code, modules = _main_footprint(command, "--family", "nosuch")
    assert code == 2 and modules == {"confcoalg", "cli"}


def test_cap_error_loads_no_library_module():
    code, modules = _main_footprint("construct", "--family", "S", "--n", "5")
    assert code == 2 and modules == {"confcoalg", "cli"}


def test_imported_table_loads_no_constructor(tmp_path):
    table = tmp_path / "vir.json"
    table.write_text(serialize.dumps(make_vir()))
    code, modules = _main_footprint("verify", "--in", str(table))
    assert code == 0 and "serialize" in modules
    assert not modules & {"families", "closed_form"}


def test_construct_json_loads_no_coalgebra(tmp_path):
    out = tmp_path / "k3.json"
    code, modules = _main_footprint("construct", "--family", "K", "--n", "3",
                                    "--format", "json", "--out", str(out))
    assert code == 0 and "serialize" in modules and out.read_text().startswith("{")
    assert not modules & {"coalgebra", "closed_form"}


def test_verify_family_text_loads_no_emitter_or_serialiser():
    code, modules = _main_footprint("verify", "--family", "vir")
    assert code == 0 and "families_current" in modules
    assert not modules & {"families", "closed_form", "closed_form_builder", "serialize"}


def test_construct_text_loads_no_serialiser_or_coalgebra():
    code, modules = _main_footprint("construct", "--family", "S", "--n", "2",
                                    "--format", "text")
    assert code == 0 and "families_w" in modules
    assert not modules & {"families", "serialize", "closed_form", "coalgebra", "dual"}


def test_dualize_text_loads_no_emitter_or_serialiser():
    code, modules = _main_footprint("dualize", "--family", "K", "--n", "2", "--format", "text")
    assert code == 0 and "dual" in modules
    assert not modules & {"serialize", "closed_form", "coalgebra", "conformal"}


# the confcoalg submodules each command of the benchmark's cli-commands
# workload loads, by its name there: the one series module of its family
# (families_<series>, closed_form_<series>), the checks only for verify, restricted only for a subalgebra family, and printed, grassmann and
# the families and closed_form hubs for none
_STORED = {"cli", "poly", "tables"}
_MASKS = _STORED | {"bases", "masks"}
_CHECKS = _STORED | {"coalgebra", "conformal", "dual"}
BENCH_FOOTPRINTS = {
    "construct-json": _MASKS | {"families_contact", "serialize"},
    "construct-latex": _MASKS | {"families_w", "serialize"},
    "construct-text": _MASKS | {"families_w", "restricted"},
    "verify-in": _CHECKS | {"serialize"},
    "dualize-latex": _MASKS | {"dual", "families_contact", "restricted", "serialize"},
    "emit": _MASKS | {"closed_form_builder", "closed_form_w"},
    "crosscheck-json": _MASKS | {"closed_form_builder", "closed_form_w", "dual", "families_w",
                                 "restricted", "serialize"},
    "verify-vir": _CHECKS | {"families_current"},
    "unknown-family": {"cli"},
}
# the most source lines the nine commands may compile in one pass, each
# module they load counted once per command that loads it: with no bytecode
# cache a child compiles every line of every module it imports
COMPILED_LINES_PER_PASS = 21_000


def test_each_benchmark_command_loads_exactly_what_it_runs(tmp_path):
    """The exact confcoalg submodules of each of the nine commands of
    bench/workloads.CLI_COMMANDS, verify --in reading K_3's document."""
    from test_coalgebra import _bench_workloads

    table = tmp_path / "k3.json"
    table.write_text(serialize.dumps(families.make_K(3)))
    commands = _bench_workloads().CLI_COMMANDS
    assert [name for name, _, _ in commands] == list(BENCH_FOOTPRINTS)
    for name, argv, _ in commands:
        argv = [str(table) if a == "{table}" else a for a in argv]
        code, modules = _main_footprint(*argv, "--out", str(tmp_path / "out"))
        assert code == {"crosscheck-json": 1, "unknown-family": 2}.get(name, 0), name
        assert modules == {"confcoalg"} | BENCH_FOOTPRINTS[name], (name, sorted(modules))


def test_benchmark_commands_compile_at_most_21000_lines():
    """The source lines of the confcoalg modules each command of
    bench/workloads.CLI_COMMANDS loads (BENCH_FOOTPRINTS, the package root
    included), summed over the nine commands of one pass."""
    package = os.path.dirname(confcoalg.__file__)

    def lines(module):
        name = "__init__" if module == "confcoalg" else module
        with open(os.path.join(package, name + ".py")) as fh:
            return sum(1 for _ in fh)

    per_command = {name: sum(map(lines, {"confcoalg"} | modules))
                   for name, modules in BENCH_FOOTPRINTS.items()}
    assert sum(per_command.values()) <= COMPILED_LINES_PER_PASS, per_command
    assert per_command["emit"] < 2_200, per_command


# run in a child before its commands: reading the row view raises
_NO_ROW_VIEW = ("from confcoalg.tables import LambdaStructure\n"
                "def _refuse(self):\n"
                "    raise AssertionError('a command read LambdaStructure.table')\n"
                "LambdaStructure.table = property(_refuse)\n")


def test_only_a_table_keeps_a_row_view():
    """The row view and the flip residual are a LambdaStructure's alone, so
    patching them there, as _NO_ROW_VIEW does, reaches every reader: a
    Coproduct is its generators and stored form, and Table caches nothing."""
    for name in ("table", "_rows", "flip_residual"):
        assert not hasattr(Coproduct, name), name
    assert not [v for v in vars(Table).values() if isinstance(v, functools.cached_property)]
    assert {"table", "flip_residual"} <= vars(LambdaStructure).keys()


def test_no_command_reads_the_row_view(tmp_path):
    """The nine commands of bench/workloads.CLI_COMMANDS, and dualize and
    emit writing JSON, exit as they do with LambdaStructure.table made to
    raise: the writers and compare read only the stored form."""
    from test_coalgebra import _bench_workloads

    table = tmp_path / "k3.json"
    table.write_text(serialize.dumps(families.make_K(3)))
    runs = [[str(table) if a == "{table}" else a for a in argv]
            for _, argv, _ in _bench_workloads().CLI_COMMANDS]
    runs += [["dualize", "--family", "K", "--n", "3", "--format", "json"],
             ["emit", "--family", "CK6", "--format", "json"]]
    runs = [argv + ["--out", str(tmp_path / "out")] for argv in runs]
    codes, _ = _footprint(_NO_ROW_VIEW + "from confcoalg.cli import main\n"
                          f"result = [main(argv) for argv in {runs!r}]")
    assert codes == [0, 0, 0, 0, 0, 0, 1, 0, 2, 0, 0]


def test_coalgebra_loads_the_kernels_it_runs():
    """coalgebra imports the flip kernel and both row kernels from conformal
    at its top, as its co-checks run them, and nothing else of the package
    beyond dual, tables and poly."""
    _, modules = _footprint("import confcoalg.coalgebra\nresult = None")
    assert modules == {"confcoalg", "conformal", "dual", "poly", "tables", "coalgebra"}
    from confcoalg import coalgebra, conformal

    kernels = ("_flip_kernel", "_jacobi_rows", "_jordan_rows")
    assert [getattr(coalgebra, k) for k in kernels] == [getattr(conformal, k) for k in kernels]


def test_benchmark_library_reaches_every_name_it_runs():
    """bench/run.Library imports the modules of bench/run.MODULES: every name
    of bench/tracing.TARGETS and every constructor and emitter that
    bench/workloads names is in their namespaces after that import, none of
    them resolves a name lazily (a module __getattr__), and the import has
    loaded conformal, which holds the row kernels, and every series module,
    so that no workload compiles a module of the package inside a timed
    pass."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(confcoalg.__file__)))
    (missing, lazy, loaded, kernels), _ = _footprint(
        f"sys.path.insert(0, {os.path.join(root, 'bench')!r})\n"
        "import run, tracing, workloads\n"
        "mods = run.Library().modules()\n"
        "def space(owner):\n"
        "    module, _, cls = owner.partition('.')\n"
        "    return vars(getattr(mods[module], cls) if cls else mods[module])\n"
        "missing = [f'{t.owner}.{t.attr}' for t in tracing.TARGETS if t.attr not in space(t.owner)]\n"
        "missing += [f'families.{fn}' for fn, _ in workloads.FAMILIES.values()\n"
        "            if fn not in space('families')]\n"
        "missing += [f'closed_form.{fn}' for _, _, fn, _ in workloads.CROSSCHECKS\n"
        "            if fn not in space('closed_form')]\n"
        "lazy = sorted(name for name, module in mods.items() if '__getattr__' in vars(module))\n"
        "kernels = [hasattr(mods['conformal'], name) for name in ('_jacobi_rows', '_jordan_rows')]\n"
        "result = [missing, lazy, sorted(m for m in sys.modules if m.startswith('confcoalg.')),\n"
        "          kernels]")
    series = {f"confcoalg.{kind}_{fd.series}" for fd in cli.FAMILIES.values()
              for kind in ("families", "closed_form")}
    assert missing == [] and lazy == []
    assert len(series) == 8 and {"confcoalg.conformal"} | series <= set(loaded), loaded
    assert kernels == [True, True]


def test_no_module_imports_dataclasses():
    names, modules = _footprint(
        "import importlib, pkgutil, confcoalg\n"
        "result = [m.name for m in pkgutil.iter_modules(confcoalg.__path__)]\n"
        "for name in result:\n"
        "    importlib.import_module('confcoalg.' + name)")
    assert len(names) > 5 and set(names) <= modules
    assert "dataclasses" not in modules


def test_package_root_imports_lazily():
    (loaded, resolved, unknown), modules = _footprint(
        "import importlib, confcoalg\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('confcoalg.'))\n"
        "resolved = [n for n in confcoalg.__all__ if getattr(confcoalg, n) is getattr(\n"
        "    importlib.import_module(getattr(confcoalg, n).__module__), n)]\n"
        "try:\n"
        "    confcoalg.nosuch\n"
        "    unknown = 'resolved'\n"
        "except AttributeError as e:\n"
        "    unknown = str(e)\n"
        "result = [loaded, resolved, unknown]")
    assert loaded == []
    assert resolved == confcoalg.__all__ and len(resolved) == 21
    assert unknown == "module 'confcoalg' has no attribute 'nosuch'"
    assert modules == {"confcoalg", "tables", "conformal", "restricted", "bases", "masks", "dual",
                       "coalgebra", "poly"}
