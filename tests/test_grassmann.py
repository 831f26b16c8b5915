"""Grassmann sign calculus: spec examples plus exhaustive invariants."""

import ast
import functools
import importlib
import inspect
import itertools
import pathlib
import pkgutil

import pytest

import confcoalg
from confcoalg.grassmann import IndexSet, SignedMonomial, alpha, complement, hodge, mul, subsets
from confcoalg.masks import members, mul_sign

from helpers import derive, eps


def test_constructor_rejects_unsorted():
    with pytest.raises(ValueError):
        IndexSet(4, [2, 1])
    with pytest.raises(ValueError):
        IndexSet(4, [1, 1])
    with pytest.raises(ValueError):
        IndexSet(4, [5])


def test_alpha_examples():
    # xi_{36} xi_{124} = -xi_{12346}
    I = IndexSet(6, [3, 6])
    J = IndexSet(6, [1, 2, 4])
    assert alpha(I, J) % 2 == 1
    m = mul(I, J)
    assert m.sign == -1 and m.idxset == IndexSet(6, [1, 2, 3, 4, 6])
    assert alpha(IndexSet(4, [1, 2]), IndexSet(4, [3, 4])) == 0
    assert alpha(IndexSet(2, [2]), IndexSet(2, [1])) == 1
    with pytest.raises(ValueError):
        alpha(IndexSet(4, [1]), IndexSet(4, [1, 2]))


def test_mul_examples():
    assert mul(IndexSet(2, [1]), IndexSet(2, [1])) is None
    J = IndexSet(3, [2, 3])
    assert mul(IndexSet(3, []), J) == SignedMonomial(1, J)


def test_eps_and_derive():
    assert eps(3, IndexSet(5, [1, 3, 5])) == 1
    assert eps(1, IndexSet(1, [1])) == 0
    assert eps(5, IndexSet(5, [1, 3, 5])) == 2
    with pytest.raises(ValueError):
        eps(2, IndexSet(5, [1, 3, 5]))
    assert derive(2, IndexSet(2, [1, 2])) == SignedMonomial(-1, IndexSet(2, [1]))
    assert derive(1, IndexSet(2, [1, 2])) == SignedMonomial(1, IndexSet(2, [2]))
    assert derive(3, IndexSet(3, [1, 2])) is None


def test_complement_and_hodge():
    assert complement(IndexSet(4, [1, 3])) == IndexSet(4, [2, 4])
    assert complement(IndexSet(4, [])) == IndexSet(4, [1, 2, 3, 4])
    assert complement(IndexSet(4, [1, 2, 3, 4])) == IndexSet(4, [])
    assert hodge(IndexSet(6, [1, 2, 3])) == SignedMonomial(1, IndexSet(6, [4, 5, 6]))
    assert hodge(IndexSet(4, [])) == SignedMonomial(1, IndexSet(4, [1, 2, 3, 4]))


def test_hodge_defining_identity_exhaustive_n6():
    top = IndexSet(6, range(1, 7))
    for I in subsets(6):
        h = hodge(I)
        m = mul(I, h.idxset)
        assert m is not None
        assert m.sign * h.sign == 1 and m.idxset == top


def test_alpha_swap_relation_exhaustive():
    # (-1)^alpha(I,J) = (-1)^{alpha(J,I) + |I||J|} for all disjoint pairs, n <= 6
    for n in range(1, 7):
        for I in subsets(n):
            for J in subsets(n):
                if I.mask & J.mask:
                    continue
                lhs = alpha(I, J) & 1
                rhs = (alpha(J, I) + I.degree * J.degree) & 1
                assert lhs == rhs


def test_mul_associative_exhaustive_n6():
    for I in subsets(6):
        for J in subsets(6):
            if I.mask & J.mask:
                continue
            ij = mul(I, J)
            for Km in range(1 << 6):
                if Km & (I.mask | J.mask):
                    continue
                Kk = IndexSet.from_mask(6, Km)
                jk = mul(J, Kk)
                l = mul(ij.idxset, Kk)
                r = mul(I, jk.idxset)
                assert ij.sign * l.sign == jk.sign * r.sign
                assert l.idxset == r.idxset


def test_double_hodge_exhaustive_n6():
    for I in subsets(6):
        h = hodge(I)
        hh = hodge(h.idxset)
        sign = h.sign * hh.sign
        expect = -1 if (I.degree * (6 - I.degree)) & 1 else 1
        assert hh.idxset == I and sign == expect


def test_derive_leibniz_exhaustive_n5():
    # d_i(xi_I xi_J) = d_i(xi_I) xi_J + (-1)^{|I|} xi_I d_i(xi_J)
    for I in subsets(5):
        for J in subsets(5):
            if I.mask & J.mask:
                continue
            prod = mul(I, J)
            for i in range(1, 6):
                lhs = derive(i, prod.idxset)
                lhs_val = {} if lhs is None else {lhs.idxset.mask: prod.sign * lhs.sign}
                acc = {}
                dI = derive(i, I)
                if dI is not None:
                    m = mul(dI.idxset, J)
                    acc[m.idxset.mask] = acc.get(m.idxset.mask, 0) + dI.sign * m.sign
                dJ = derive(i, J)
                if dJ is not None:
                    m = mul(I, dJ.idxset)
                    s = -1 if I.degree & 1 else 1
                    acc[m.idxset.mask] = acc.get(m.idxset.mask, 0) + s * dJ.sign * m.sign
                acc = {k: v for k, v in acc.items() if v}
                assert lhs_val == acc


def test_mask_helpers_exhaustive_n6():
    # members lists the set bits; mul_sign is 0 on overlap, else (-1)^inversions
    for a in range(1 << 6):
        assert members(a) == tuple(i for i in range(1, 7) if a >> (i - 1) & 1)
        for b in range(1 << 6):
            inversions = sum(j < i for i in members(a) for j in members(b))
            assert mul_sign(a, b) == (0 if a & b else (-1) ** inversions)


def _production_sources():
    """(module name, syntax tree) for the package and each of its modules."""
    modules = [confcoalg] + [importlib.import_module(f"confcoalg.{info.name}")
                             for info in pkgutil.iter_modules(confcoalg.__path__)]
    assert len(modules) > 5
    return [(module.__name__, ast.parse(inspect.getsource(module))) for module in modules]


def test_production_modules_use_masks_only():
    """Masks are the one Grassmann representation: no module of the package
    but grassmann itself names the IndexSet layer."""
    layer = {"IndexSet", "SignedMonomial", "mul", "derive", "hodge", "complement",
             "subsets", "alpha", "eps"}
    for name, tree in _production_sources():
        if name == "confcoalg.grassmann":
            continue
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names.update(a.name for a in node.names)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        assert not names & layer, (name, sorted(names & layer))


def _is_zero_test(expr):
    return any((isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "is_zero")
               or (isinstance(node, ast.Attribute) and node.attr == "terms")
               for node in ast.walk(expr))


def _pops_key(stmts):
    return any(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "pop" and len(node.args) == 2
               and isinstance(node.args[1], ast.Constant) and node.args[1].value is None
               for stmt in stmts for node in ast.walk(stmt))


def _module_scope_names(tree):
    """The names a module binds at its top level other than by an import:
    its functions, classes and assignment targets."""
    out = set()

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.add(child.name)
            elif not isinstance(child, (ast.Import, ast.ImportFrom, ast.Lambda, ast.ListComp,
                                        ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
                    out.add(child.id)
                visit(child)

    visit(tree)
    return out


def test_every_module_uses_the_package_names_it_imports():
    """Each name has one home: no module of the package imports a name of
    another that it never uses, so none is reached through a module that
    only passes it on, and every from .X import name names the module X
    that defines name (from . import X names a module).  The test modules
    keep the second rule too: every from confcoalg.X import name in tests/
    names the module X that defines name.  The two hubs, families and
    closed_form, import every constructor and emitter for their callers,
    and coalgebra imports compare and dualize for bench/run.Library and
    bench/tracing.TARGETS; a name imported from the package root, a hub or
    one of those two from coalgebra is exempt from the second rule.
    grassmann's __all__ lists only names it defines, none of masks'."""
    passed_on = {"confcoalg.coalgebra": {"compare", "dualize"}}
    sources = dict(_production_sources())
    hubs = ("confcoalg.families", "confcoalg.closed_form")

    def assert_home(name, home, alias):
        if home not in hubs and alias not in passed_on.get(home, ()):
            assert alias in _module_scope_names(sources[home]), (name, alias, home)

    for name, tree in sources.items():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue
            home = f"confcoalg.{node.module}" if node.module else "confcoalg"
            for alias in node.names:
                if home == "confcoalg":
                    assert f"confcoalg.{alias.name}" in sources, (name, alias.name)
                else:
                    assert_home(name, home, alias.name)
        if name in hubs:
            continue
        imported = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported - used == passed_on.get(name, set()), name
    tests = sorted(pathlib.Path(__file__).parent.glob("*.py"))
    assert len(tests) > 5
    for path in tests:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("confcoalg."):
                for alias in node.names:
                    assert_home(path.name, node.module, alias.name)
    grassmann = importlib.import_module("confcoalg.grassmann")
    assert set(grassmann.__all__) <= _module_scope_names(sources["confcoalg.grassmann"])


def test_only_poly_drops_zero_sums():
    """poly.accumulate is the one copy of the rule "add at a key and drop the
    key when the sum is zero": no other module branches on a zero test into
    a pop(key, None)."""
    for name, tree in _production_sources():
        if name == "confcoalg.poly":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.If) and _is_zero_test(node.test):
                assert not _pops_key(node.body + node.orelse), (name, node.lineno)


def _uses(tree, name):
    """The dotted path of the classes and functions enclosing every Name or
    attribute called name in tree (None at module level)."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Name) and child.id == name) or (
                    isinstance(child, ast.Attribute) and child.attr == name):
                found.append(where)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}" if where else child.name)
            else:
                visit(child, where)

    visit(tree, None)
    return found


def test_one_helper_renames_table_entries():
    """conformal._renamed is the one function that calls poly.substitution:
    every renamed copy of a packed table, in the kernels and the co-kernels,
    renames each distinct entry polynomial once through it, and the kernels
    read the copies it makes.  The other maps are module constants that
    change coordinates, two of tables: the LambdaStructure constructor packs
    a table as its dual Q(x1, x2) = P(x1, -x1-x2) through one, and its rows
    and the flip check map back to the table's variables through the other;
    and four of conformal: the Jacobi and Jordan checks map back through
    two, and the Jordan kernel maps R1 to Q2 and to the printed R2 through
    two.  dualize renames nothing, and no module imports substitution under
    another name.  poly.tagged,
    which tagged one first factor at a time before renaming a whole slot,
    and conformal._renaming, which also renamed the table's variables, are gone."""
    users = set()
    for name, tree in _production_sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert all(a.asname is None for a in node.names if a.name == "substitution"), name
        users.update((name, func) for func in _uses(tree, "substitution"))
    assert users == {("confcoalg.conformal", None), ("confcoalg.conformal", "_renamed"),
                     ("confcoalg.tables", None)}
    sources = dict(_production_sources())
    maps = {(module, node.targets[0].id)
            for module in ("confcoalg.conformal", "confcoalg.tables")
            for node in sources[module].body if isinstance(node, ast.Assign)
            and getattr(getattr(node.value, "func", None), "id", None) == "substitution"}
    assert maps == {("confcoalg.tables", "_TO_SLOTS"), ("confcoalg.tables", "_FLIP_BACK"),
                    ("confcoalg.conformal", "_JACOBI_BACK"), ("confcoalg.conformal", "_JORDAN_BACK"),
                    ("confcoalg.conformal", "_R1_TO_Q2"), ("confcoalg.conformal", "_R1_TO_PRINTED_R2")}
    assert not hasattr(importlib.import_module("confcoalg.poly"), "tagged")
    assert not hasattr(importlib.import_module("confcoalg.conformal"), "_renaming")


def test_each_table_is_packed_once():
    """tables.Table._store, the one path that checks entries and packs
    them, has three callers: the constructors of LambdaStructure and
    Coproduct, which hand it their rows, and Table.from_slots, through which
    the builders hand it their values and slots.  It sets the stored form as
    a plain attribute: every check, dualize and co-kernel reads it, and none
    builds an entry list to pack.  Table.table, the rows made from it, is
    the one row view, and neither subclass defines packed or table.
    _packed_table, which packed the table again on every check call, and
    _packed, which packed the constructors' entry lists, are gone."""
    users = sorted((name, where) for name, tree in _production_sources()
                   for where in _uses(tree, "_store"))
    assert users == [("confcoalg.tables", "Coproduct.__init__"),
                     ("confcoalg.tables", "LambdaStructure.__init__"),
                     ("confcoalg.tables", "Table.from_slots")]
    conformal = importlib.import_module("confcoalg.conformal")
    coalgebra = importlib.import_module("confcoalg.coalgebra")
    tables = importlib.import_module("confcoalg.tables")
    assert isinstance(tables.Table.__dict__["table"], functools.cached_property)
    for cls in (conformal.LambdaStructure, coalgebra.Coproduct):
        assert not {"packed", "table"} & cls.__dict__.keys(), cls
    K = importlib.import_module("confcoalg.families").make_K(2)
    for T in (K, coalgebra.dualize(K)):
        assert "packed" in vars(T) and "table" not in vars(T)
    assert not hasattr(conformal, "_packed_table") and not hasattr(conformal, "_packed")


def test_an_empty_diff_unpacks_no_rows():
    """compare reads the stored forms of both coproducts and writes only the
    pairs that differ: an empty diff of a machine dual and a closed form
    leaves neither with rows."""
    families = importlib.import_module("confcoalg.families")
    coalgebra = importlib.import_module("confcoalg.coalgebra")
    closed_form = importlib.import_module("confcoalg.closed_form")
    dual, formula = coalgebra.dualize(families.make_K(6)), closed_form.coproduct_K(6)
    assert coalgebra.compare(dual, formula).ok
    for C in (dual, formula):
        assert "packed" in vars(C) and "table" not in vars(C)


def test_restriction_stays_packed():
    """restricted.bracket_pairs and restricted._restrict construct no
    ConformalElement and call neither bracket nor shift_spectral: a
    restricted family's brackets stay packed vectors from the bracket rows
    to the coordinates.  restricted.span_reader is the one coordinate reader:
    _restrict is its only caller, and no other code raises NotInSpan."""
    sources = dict(_production_sources())
    for module, name in (("confcoalg.restricted", "bracket_pairs"), ("confcoalg.restricted", "_restrict")):
        func, = [node for node in ast.walk(sources[module])
                 if isinstance(node, ast.FunctionDef) and node.name == name]
        called = {node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
                  for node in ast.walk(func) if isinstance(node, ast.Call)}
        assert not called & {"ConformalElement", "gen", "bracket", "shift_spectral"}, (name, called)

    def users(name):
        return sorted((module, where) for module, tree in _production_sources()
                      for where in _uses(tree, name))

    assert users("span_reader") == [("confcoalg.restricted", "_restrict")]
    assert set(users("NotInSpan")) == {("confcoalg.restricted", "span_reader.outside")}

def test_each_flip_residual_is_computed_once():
    """Table.flip_residual, the skew or commutativity residual of a packed
    table or coproduct, is a cached property, the one caller of _flip_kernel.
    _check_flip writes the skew and commutativity reports from it, the
    co-checks the co-antisymmetry and co-commutativity reports, and
    check_jacobi and check_lie_coalgebra take the reduced kernel when it is
    empty; no other code reads it."""
    users = sorted((name, where) for name, tree in _production_sources()
                   for where in _uses(tree, "flip_residual"))
    assert users == [("confcoalg.coalgebra", "check_jordan_coalgebra"),
                     ("confcoalg.coalgebra", "check_lie_coalgebra"),
                     ("confcoalg.conformal", "_check_flip"),
                     ("confcoalg.conformal", "check_jacobi")]
    assert sorted((name, where) for name, tree in _production_sources()
                  for where in _uses(tree, "_flip_kernel")) == [
        ("confcoalg.tables", "Table.flip_residual")]
    tables = importlib.import_module("confcoalg.tables")
    assert isinstance(tables.Table.__dict__["flip_residual"], functools.cached_property)


def test_every_kernel_places_entries_through_put():
    """Every kernel writes each table entry in one pass over the slots,
    through conformal._put, at a tag computed from the entry's indices: no
    module of the package defines or names _gather or _grouped, which
    placed entries through a place function per call and regrouped the
    result, no function or lambda of conformal takes a place parameter, and
    the callers of _put are the flip, Jacobi and Jordan kernels of conformal
    and _hoisted, the Jordan kernel's intermediates."""
    sources = _production_sources()
    callers = set()
    for name, tree in sources:
        defined = {node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for gone in ("_gather", "_grouped"):
            assert gone not in defined and not _uses(tree, gone), (name, gone)
        callers.update((name, where.split(".")[0]) for where in _uses(tree, "_put"))
    for node in ast.walk(dict(sources)["confcoalg.conformal"]):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            args = node.args
            params = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
            assert "place" not in params, getattr(node, "name", "lambda")
    assert callers == {("confcoalg.conformal", kernel)
                       for kernel in ("_flip_kernel", "_jacobi_rows", "_hoisted", "_jordan_rows")}


def test_co_lie_checks_run_the_lambda_kernels():
    """check_lie_coalgebra runs the flip and Jacobi kernels of conformal in
    slot variables: it calls no add_product, and _jacobi_rows, which writes
    its own orbits, is the one that check_jacobi and check_lie_coalgebra
    share.  The co-Lie check's own flip and contraction
    (_flips, _UNIT) are gone."""
    def users(name):
        return sorted((module, where) for module, tree in _production_sources()
                      for where in _uses(tree, name))

    assert ("confcoalg.coalgebra", "check_lie_coalgebra") not in users("add_product")
    assert users("_jacobi_rows") == [("confcoalg.coalgebra", "check_lie_coalgebra"),
                                     ("confcoalg.conformal", "check_jacobi")]
    assert users("_write_images") == [("confcoalg.conformal", "_jacobi_rows"),
                                      ("confcoalg.conformal", "_jordan_rows")]
    coalgebra = importlib.import_module("confcoalg.coalgebra")
    assert not hasattr(coalgebra, "_flips") and not hasattr(coalgebra, "_UNIT")


def test_function_bodies_import_what_some_commands_skip():
    """The imports inside functions of the package, (module, function, the
    module imported from): the command line's serialiser, tables and
    Fraction, the restriction machinery in the constructors of the
    subalgebra families, and conformal's flip kernel, which tables reads
    for the flip residual, as every command loads tables.  conformal
    imports nothing inside a function: its checks run the row kernels
    defined beside them, which coalgebra imports at its top.  No closed
    form imports inside a function: each emitter takes its generators,
    bases and symbols from bases at its module's top."""
    found = set()

    def visit(module, node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(module, child, f"{where}.{child.name}" if where else child.name)
                continue
            if where and isinstance(child, ast.ImportFrom):
                found.add((module, where, "." * child.level + (child.module or "")))
            assert not (where and isinstance(child, ast.Import)), (module, where)
            visit(module, child, where)

    for name, tree in _production_sources():
        visit(name.rpartition(".")[2], tree, None)
    restricted = {("families_contact", "make_K4prime"), ("families_contact", "make_CK6"),
                  ("families_w", "make_S"), ("families_w", "make_S_b"),
                  ("families_w", "make_S_tilde")}
    assert found == {("cli", "parse_scalar", "fractions"),
                     ("cli", "_emit", "."), ("cli", "_table", ".serialize"),
                     ("cli", "cmd_verify", ".tables"), ("cli", "cmd_verify", ".serialize"),
                     ("cli", "cmd_crosscheck", ".serialize"),
                     ("tables", "Table.flip_residual", ".conformal")} | {
        (module, function, ".restricted") for module, function in restricted}


def test_coproduct_rows_are_merged_once():
    """Coproduct.__init__ merges each row by (i, j) and table[k] is the one form
    of a coproduct: Coproduct.normalized, which merged a row again on every
    read, is gone, and no module of the package names it."""
    coalgebra = importlib.import_module("confcoalg.coalgebra")
    assert not hasattr(coalgebra.Coproduct, "normalized")
    assert [name for name, tree in _production_sources() if _uses(tree, "normalized")] == []


def test_writers_take_each_value_by_its_index():
    """The writers and compare take each distinct value by its index into
    Table._values(), so no module of the package defines _memo, the cache
    by id and value they used, and serialize and cli read no row view."""
    for name, tree in _production_sources():
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        defined |= {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
        assert "_memo" not in defined, name
        if name in ("confcoalg.serialize", "confcoalg.cli"):
            assert not [node.lineno for node in ast.walk(tree)
                        if isinstance(node, ast.Attribute) and node.attr == "table"], name


def test_only_serialize_writes_indented_json():
    """serialize._json_text is the one JSON writer: no module of the package
    passes indent= to json.dumps or json.dump, which would write the same
    layout through the standard library's pure-Python encoder."""
    for name, tree in _production_sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                assert not (called in ("dumps", "dump")
                            and any(kw.arg == "indent" for kw in node.keywords)), (name, node.lineno)


def test_residual_text_is_written_from_the_packed_form(monkeypatch):
    """conformal._record and coalgebra._record write violation text from the
    packed residual with the two halves of poly.vector_text: the one walk
    over the kernels' rows, conformal._residual_parts, splits them with
    poly._parts, and each writer writes the parts with poly._poly_text,
    whose text cache it keeps for the whole check call.  No writer names
    unpack_vector or repr, no other function of conformal or coalgebra
    calls _parts, coalgebra imports neither _parts nor _COMPONENT_SHIFT,
    and the checks write their violations with MultiPoly.__repr__,
    Scalar.__repr__ and unpack_vector made to raise."""
    def names_in(node):
        names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        return names | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}

    functions = [(name, node) for name, tree in _production_sources() for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)
                 and name in ("confcoalg.coalgebra", "confcoalg.conformal")]
    records = [(name, node) for name, node in functions if node.name == "_record"]
    assert sorted(name for name, _ in records) == ["confcoalg.coalgebra", "confcoalg.conformal"]
    for name, node in records:
        names = names_in(node)
        assert {"_residual_parts", "_poly_text"} <= names, name
        assert not names & {"_parts", "unpack_vector", "repr", "__repr__"}, name
    assert [(name, node.name) for name, node in functions if "_parts" in names_in(node)] == [
        ("confcoalg.conformal", "_residual_parts")]
    tree = dict(_production_sources())["confcoalg.coalgebra"]   # the digits stay in the walk
    assert not {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names} & {"_parts", "_COMPONENT_SHIFT"}

    from confcoalg import coalgebra, conformal, families, poly, tables
    from test_kernels import _skew_corruption

    J2, K2 = families.make_Jn(2), families.make_K(2)
    bad = families.corrupt_entry(K2, "xi1", "xi2", "xi12", poly.MultiPoly.const(-1))
    skew_bad = _skew_corruption(K2, "xi1", "xi2", "xi12", poly.LAM)
    duals = [coalgebra.dualize(families.make_Jn(3)), coalgebra.dualize(bad)]

    def refuse(*args):
        raise AssertionError("residual text written through Scalars")

    monkeypatch.setattr(poly.MultiPoly, "__repr__", refuse)
    monkeypatch.setattr(poly.Scalar, "__repr__", refuse)
    for module in (poly, tables, conformal, coalgebra):
        monkeypatch.setattr(module, "unpack_vector", refuse, raising=False)
    reports = [conformal.check_jordan_identity(J2), conformal.check_skew(bad),
               conformal.check_jacobi(bad), conformal.check_jacobi(skew_bad),
               coalgebra.check_jordan_coalgebra(duals[0]),
               coalgebra.check_lie_coalgebra(duals[1])]
    assert all(rep.violations for rep in reports)


def test_verify_packs_the_table_once_and_not_its_dual(monkeypatch, capsys):
    """verify --checks coalg,crosscheck calls Table._store twice: once when
    K_3 is built and once when its closed-form coproduct is.  dualize
    relabels the table's stored form and packs nothing."""
    from confcoalg import coalgebra, tables
    from confcoalg.cli import main

    calls = []
    real = tables.Table._store
    monkeypatch.setattr(tables.Table, "_store",
                        lambda self, values, slots: calls.append(1) or real(self, values, slots))
    assert main(["verify", "--family", "K", "--n", "3", "--checks", "coalg,crosscheck"]) == 0
    assert capsys.readouterr().out.startswith("coalg[K_3^c]: pass")
    assert len(calls) == 2
    calls.clear()
    coalgebra.dualize(importlib.import_module("confcoalg.families").make_K(3))
    assert len(calls) == 1
