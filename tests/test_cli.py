"""CLI surface: commands, formats, exit codes."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import confcoalg
from confcoalg import families, serialize
from confcoalg.cli import main, parse_scalar
from confcoalg.coalgebra import dualize
from confcoalg.families import corrupt_entry, make_vir
from confcoalg.poly import D, LAM, MultiPoly, Scalar


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
    code, _, err = run(capsys, "construct", "--family", "S", "--n", "5")
    assert code == 2
    assert "allow-large" in err


def test_unknown_family_and_check(capsys):
    code, _, _ = run(capsys, "construct", "--family", "nope")
    assert code == 2
    code, _, _ = run(capsys, "verify", "--family", "vir", "--checks", "bogus")
    assert code == 2


def test_crosschecks(capsys):
    code, out, _ = run(capsys, "crosscheck", "--family", "W", "--n", "2")
    assert code == 0 and "empty diff" in out
    code, out, _ = run(capsys, "crosscheck", "--family", "Jn", "--n", "2")
    assert code == 0
    code, out, _ = run(capsys, "crosscheck", "--family", "JCK4")
    assert code == 1 and "6 differences" in out


def test_verify_crosscheck_builds_the_table_once(monkeypatch, capsys):
    calls = []
    make = families.make_CK6
    monkeypatch.setattr(families, "make_CK6", lambda: calls.append(1) or make())
    code, out, _ = run(capsys, "verify", "--family", "ck6", "--checks", "crosscheck",
                       "--format", "json")
    assert code == 1 and len(calls) == 1
    # the same document as when the table was built twice
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "00da603224e1599ec2cadb87901800bd9217cc6d1639bc6965fa67fae1e521c3")
    code, cross, _ = run(capsys, "crosscheck", "--family", "ck6", "--format", "json")
    assert code == 1 and json.loads(out)["reports"] == [json.loads(cross)]


def test_emit_formula(capsys):
    code, out, _ = run(capsys, "emit", "--family", "vir", "--format", "latex")
    assert code == 0 and r"\delta" in out


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
    "duplicate-row": (_table_doc, lambda doc: doc["table"].append(doc["table"][0]),
                      "table row 1 repeats the pair (L, L)"),
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


def test_deeply_nested_document_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    for command in ("verify", "dualize"):
        code, out, err = run(capsys, command, "--in", str(path))
        assert code == 2 and out == ""
        assert err == "error: document is nested too deeply\n"


@pytest.mark.parametrize("b", ["1/0", "0/0"])
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
    assert code == 0 and "families" in modules
    assert not modules & {"closed_form", "serialize"}


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
    assert modules == {"confcoalg", "conformal", "coalgebra", "poly"}
