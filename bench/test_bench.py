"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest bench -q

The negative controls corrupt one table entry the way the acceptance
suite's criterion 9 does and require the benchmark to count failed
operations; the positive controls require the same operations on the
intact tables to match the recorded fingerprints.
"""

import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import fingerprint as fp  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import OUT_DIR, WORKLOADS, Phases, setup  # noqa: E402

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@pytest.fixture(scope="module")
def lib():
    return run.Library()


@pytest.fixture
def workdir():
    """A temporary directory inside the checkout, where CLI children read tables."""
    OUT_DIR.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=OUT_DIR))
    yield path
    shutil.rmtree(path)


def _fail_ratio(lib, workdir, workload_name, family, corrupt=None):
    """fail_ratio of the workload's operations on one family, optionally corrupted."""
    workload = WORKLOADS[workload_name]
    state = setup(lib, workload, workdir, Phases())
    if corrupt is not None:
        state.tables[family] = corrupt(lib, state.tables[family])
        workload.prepare(lib, state)
    ops = [op for op in workload.ops(lib, state) if op.name.endswith("/" + family)
           or workload_name == "cli-commands" and op.name == "cli/verify-in"]
    assert ops
    res = run.run_pass(ops, range(len(ops)), run.load_expected(workload_name), workload.probe)
    return res.failed / len(ops)


# (workload, family, corruption) -- the criterion-9 seeds, K_n lifted to the
# workload's own rank
CONTROLS = [
    ("lie-jacobi", "K_4",
     lambda lib, S: lib.families.corrupt_entry(S, "xi1", "xi2", "xi12",
                                               lib.poly.MultiPoly.const(-1))),
    ("jordan-identity", "JS_1",
     lambda lib, S: lib.families.corrupt_entry(S, "T", "T", "S", 2 * lib.poly.LAM)),
    ("coalgebra-crosscheck", "Vir",
     lambda lib, S: lib.families.corrupt_entry(S, "L", "L", "L", lib.poly.D + lib.poly.LAM)),
    ("cli-commands", "K_3",
     lambda lib, S: lib.families.corrupt_entry(S, "xi1", "xi2", "xi12",
                                               lib.poly.MultiPoly.const(-1))),
]


@pytest.mark.parametrize("workload,family,corrupt", CONTROLS,
                         ids=[c[0] for c in CONTROLS])
def test_negative_control_sees_changed_verdict(lib, workdir, workload, family, corrupt):
    assert _fail_ratio(lib, workdir, workload, family, corrupt) > 0


@pytest.mark.parametrize("workload,family", [c[:2] for c in CONTROLS],
                         ids=[c[0] for c in CONTROLS])
def test_positive_control_matches_fingerprints(lib, workdir, workload, family):
    assert _fail_ratio(lib, workdir, workload, family) == 0


def test_projection_ignores_added_report_fields():
    doc = {"structure": "K_3", "ok": True, "reports": [
        {"check": "skew", "structure": "K_3", "ok": True, "tuples": 64, "violations": []}]}
    timed = json.loads(json.dumps(doc))
    timed["elapsed_s"] = 1.5
    timed["reports"][0].update({"elapsed_s": 0.2, "nonempty_contractions": 7})
    assert fp.fingerprint(fp.document(doc)) == fp.fingerprint(fp.document(timed))
    timed["reports"][0]["tuples"] = 63
    assert fp.fingerprint(fp.document(doc)) != fp.fingerprint(fp.document(timed))


def test_tracer_reports_absent_names_and_restores(lib):
    targets = tracing.TARGETS + [
        tracing.Target("poly.MultiPoly", "merged_away", "poly.MultiPoly.subst"),
        tracing.Target("conformal", "folded_check", "conformal.folded_check", tracing.SPAN),
        tracing.Target("no_such_module", "f", "x"),
    ]
    original = lib.poly.MultiPoly.__dict__["subst_general"]
    with tracing.Tracer(lib.modules(), targets) as tracer:
        p = lib.poly.LAM + lib.poly.D
        p.subst_general("d", lib.poly.MU)
    assert tracer.absent == ["poly.MultiPoly.merged_away", "conformal.folded_check",
                             "no_such_module.f"]
    assert tracer.calls["poly.MultiPoly.subst"] == 1
    assert tracer.calls["poly.MultiPoly.add"] >= 1
    assert lib.poly.MultiPoly.__dict__["subst_general"] is original


def test_tracer_self_time_excludes_wrapped_children(lib):
    with tracing.Tracer(lib.modules(), tracing.TARGETS) as tracer:
        S = lib.families.make_vir()
        lib.conformal.check_jacobi(S)
    total = tracer.spans[0][2] - tracer.spans[0][1]
    assert tracer.spans[0][0] == "conformal.check_jacobi"
    assert 0 <= tracer.self_s["conformal.check_jacobi"] < total
    assert tracer.calls["conformal.bracket"] == 6   # one triple, six nested brackets


def test_tail_has_ten_samples_beyond_it():
    xs = list(range(1, 41))
    value, pct, beyond = run.tail(xs)
    assert beyond == 10 and value == 30 and pct == 75.0
    assert run.tail([3, 1, 2])[0] == 2


def test_metric_lists_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_micro_classes_follow_coefficients(lib):
    S = lib.families.make_S_b(2, lib.poly.Scalar(0, 1))
    props = run.micro.input_properties({"S_2b-beta": S})["S_2b-beta"]
    assert (props["nonempty_pairs"], props["pairs"]) == (45, 64)
    assert (props["gaussian_terms"], props["coeff_terms"]) == (14, 79)
    out = run.micro.run(lib, {"S_2b-beta": S}, random.Random(0))
    assert out["micro.Scalar.mul.ns.gauss"] > 0 and out["micro.Scalar.mul.ns.frac"] == 0
