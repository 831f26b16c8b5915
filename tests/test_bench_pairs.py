"""The claim rule of tools/bench_pairs.py on hand-made paired samples."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# ten paired base samples: median 14.5, quartiles 11.75 and 17.25 (IQR 5.5)
BASE = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]


def test_base_quartiles():
    assert bench_pairs.quartiles(BASE) == (11.75, 17.25)
    assert bench_pairs.quartiles([3.0]) == (3.0, 3.0)


def test_nine_of_ten_with_a_gap_above_the_iqr_is_met():
    change = [b - 8 for b in BASE[:9]] + [BASE[9] + 1]
    assert bench_pairs.verdict(BASE, change) == (9, 1, "better")


def test_eight_of_ten_is_not_met():
    change = [b - 8 for b in BASE[:8]] + [b + 1 for b in BASE[8:]]
    assert bench_pairs.verdict(BASE, change) == (8, 2, "unresolved")


def test_a_gap_inside_the_iqr_is_not_met():
    change = [b - 5 for b in BASE]          # every pair won, the medians 5 apart
    assert bench_pairs.verdict(BASE, change) == (10, 0, "unresolved")


def test_ties_count_for_neither_side():
    one_tie = [b - 8 for b in BASE[:9]] + [BASE[9]]
    assert bench_pairs.verdict(BASE, one_tie) == (9, 0, "better")
    two_ties = [b - 8 for b in BASE[:8]] + BASE[8:]
    assert bench_pairs.verdict(BASE, two_ties) == (8, 0, "unresolved")
    assert bench_pairs.verdict(BASE, list(BASE)) == (0, 0, "unresolved")


def test_the_rule_reads_the_better_direction():
    worse = [b + 8 for b in BASE]
    assert bench_pairs.verdict(BASE, worse) == (0, 10, "worse")
    assert bench_pairs.verdict(BASE, worse, better="higher") == (10, 0, "better")


@pytest.mark.parametrize("n", [1, 2, 9])
def test_fewer_than_ten_pairs_resolve_nothing(n):
    assert bench_pairs.verdict(BASE[:n], [b - 100 for b in BASE[:n]]) == (n, 0, "unresolved")
