"""L0/L1 micro-timings and the exact input properties of a workload's tables.

Operands are drawn by seed from the workload's own tables and split by
coefficient class, because an integer fast path and a contraction kernel
help the classes unequally:

  int    every coefficient is a rational integer
  frac   some coefficient has a non-integral part, none is Gaussian
  gauss  some coefficient has a nonzero beta part

A class with no operand in the workload reads 0.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List

CLASSES = ("int", "frac", "gauss")
SAMPLES = 128      # operand pairs drawn per class
REPEATS = 5        # timing repeats; the median is reported


def scalar_class(c) -> str:
    if c.im != 0:
        return "gauss"
    if c.re.denominator != 1:
        return "frac"
    return "int"


def poly_class(p) -> str:
    classes = {scalar_class(c) for c in p.terms.values()}
    return next((k for k in ("gauss", "frac") if k in classes), "int")


def input_properties(tables: Dict[str, object]) -> Dict[str, Dict[str, int]]:
    """Per table: ordered pairs, non-empty pairs and coefficient terms by class."""
    out = {}
    for name, S in tables.items():
        row = {"pairs": len(S.table), "nonempty_pairs": 0, "coeff_terms": 0,
               "nonintegral_terms": 0, "gaussian_terms": 0}
        for entries in S.table.values():
            row["nonempty_pairs"] += bool(entries)
            for _, p in entries:
                for c in p.terms.values():
                    row["coeff_terms"] += 1
                    row["gaussian_terms"] += c.im != 0
                    row["nonintegral_terms"] += (c.re.denominator != 1
                                                 or c.im.denominator != 1)
        out[name] = row
    return out


def _per_call_ns(fn, calls: int) -> float:
    if not calls:
        return 0.0
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / calls * 1e9


def _pairs(rng, items: List, n: int):
    return [(rng.choice(items), rng.choice(items)) for _ in range(n)] if items else []


def run(lib, tables: Dict[str, object], rng) -> Dict[str, float]:
    """Median ns per call for Scalar and MultiPoly operations, and grassmann at n = 6."""
    MultiPoly = lib.poly.MultiPoly
    scalars = {k: [] for k in CLASSES}
    polys = {k: [] for k in CLASSES}
    for name in sorted(tables):
        for key in sorted(tables[name].table):
            for _, p in tables[name].table[key]:
                polys[poly_class(p)].append(p)
                for c in p.terms.values():
                    scalars[scalar_class(c)].append(c)

    sub_image = MultiPoly.var("mu") + MultiPoly.var("d")
    out: Dict[str, float] = {}
    for k in CLASSES:
        sp = _pairs(rng, scalars[k], SAMPLES)
        pp = _pairs(rng, polys[k], SAMPLES)
        out[f"micro.Scalar.mul.ns.{k}"] = _per_call_ns(
            lambda: [a * b for a, b in sp], len(sp))
        out[f"micro.Scalar.add.ns.{k}"] = _per_call_ns(
            lambda: [a + b for a, b in sp], len(sp))
        out[f"micro.MultiPoly.mul.ns.{k}"] = _per_call_ns(
            lambda: [a * b for a, b in pp], len(pp))
        out[f"micro.MultiPoly.subst_general.ns.{k}"] = _per_call_ns(
            lambda: [a.subst_general("d", sub_image) for a, _ in pp], len(pp))
        out[f"micro.MultiPoly.permute_vars.ns.{k}"] = _per_call_ns(
            lambda: [a.permute_vars({"lam": "mu"}) for a, _ in pp], len(pp))

    gr = lib.grassmann
    sets = list(gr.subsets(6))
    all_pairs = [(a, b) for a in sets for b in sets]
    disjoint = [(a, b) for a, b in all_pairs if not a.mask & b.mask]
    out["micro.grassmann.mul.ns"] = _per_call_ns(
        lambda: [gr.mul(a, b) for a, b in all_pairs], len(all_pairs))
    out["micro.grassmann.alpha.ns"] = _per_call_ns(
        lambda: [gr.alpha(a, b) for a, b in disjoint], len(disjoint))
    out["micro.grassmann.hodge.ns"] = _per_call_ns(
        lambda: [gr.hodge(a) for a in sets], len(sets))
    return out
