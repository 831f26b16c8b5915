"""Tracing from outside the library: wrap public names, count and time calls.

Each target is a public function or method looked up by name on its module
or class.  A wrapper counts calls and, unless the target is count-only,
keeps self time: the call's duration minus the part covered by wrapped
calls made inside it.  Calls of span targets are also kept as spans
(name, start, end, parent) in memory; ``Tracer.spans`` is written out by
the caller when the run ends.  Hot inner functions are kept as counts and
self time only, which bounds the memory a pass needs.

A target that a later version of the library renames, merges or removes is
reported in ``absent`` instead of failing the run; its metrics read 0.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

COUNT, SELF, SPAN = "count", "self", "span"


@dataclass(frozen=True)
class Target:
    owner: str          # module name, or "module.Class"
    attr: str
    key: str            # name under which calls and self time are reported
    mode: str = SELF


class Tracer:
    def __init__(self, modules: Dict[str, object], targets: List[Target]):
        self._modules = modules
        self._targets = targets
        self._saved: List[Tuple[object, str, object]] = []
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.absent: List[str] = []
        # spans: (name, start, end, parent index or -1)
        self.spans: List[List] = []
        self._frames: List[List[float]] = []   # [child seconds] per open call
        self._open_spans: List[int] = []

    def _owner(self, path: str) -> Optional[object]:
        mod, _, cls = path.partition(".")
        obj = self._modules.get(mod)
        return getattr(obj, cls, None) if cls and obj is not None else obj

    def __enter__(self) -> "Tracer":
        for t in self._targets:
            owner = self._owner(t.owner)
            fn = owner.__dict__.get(t.attr) if isinstance(owner, type) else getattr(owner, t.attr, None)
            if fn is None:
                self.absent.append(f"{t.owner}.{t.attr}")
                continue
            self.calls.setdefault(t.key, 0)
            self.self_s.setdefault(t.key, 0.0)
            self._saved.append((owner, t.attr, fn))
            setattr(owner, t.attr, self._wrap(fn, t))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        return False

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around one of the benchmark's own steps."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open_spans[-1] if self._open_spans else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open_spans.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._open_spans.pop()

    def _wrap(self, fn, t: Target):
        calls, self_s, frames = self.calls, self.self_s, self._frames
        key, clock = t.key, time.perf_counter

        if t.mode == COUNT:
            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return functools.wraps(fn)(counted)

        keep_span = t.mode == SPAN
        name = f"{t.owner}.{t.attr}"

        def timed(*args, **kwargs):
            idx = self._open(name) if keep_span else -1
            frames.append([0.0])
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                child = frames.pop()[0]
                calls[key] += 1
                self_s[key] += dur - child
                if frames:
                    frames[-1][0] += dur
                if keep_span:
                    self._close(idx)
        return functools.wraps(fn)(timed)


# The public names the traced run wraps.  Several poly targets map to one key
# ("subst" is substitute plus subst_general) so a later merge keeps the metric.
TARGETS = [
    Target("conformal", "bracket", "conformal.bracket"),
    Target("conformal", "shift_spectral", "conformal.shift_spectral"),
    Target("conformal", "check_skew", "conformal.check_skew", SPAN),
    Target("conformal", "check_jacobi", "conformal.check_jacobi", SPAN),
    Target("conformal", "check_jordan_comm", "conformal.check_jordan_comm", SPAN),
    Target("conformal", "check_jordan_identity", "conformal.check_jordan_identity", SPAN),
    Target("poly.MultiPoly", "__mul__", "poly.MultiPoly.mul"),
    Target("poly.MultiPoly", "__add__", "poly.MultiPoly.add"),
    Target("poly.MultiPoly", "substitute", "poly.MultiPoly.subst"),
    Target("poly.MultiPoly", "subst_general", "poly.MultiPoly.subst"),
    Target("poly.MultiPoly", "permute_vars", "poly.MultiPoly.permute_vars"),
    Target("poly.Scalar", "__mul__", "poly.Scalar.mul", COUNT),
    Target("poly.Scalar", "__add__", "poly.Scalar.add", COUNT),
    Target("poly.Scalar", "__init__", "poly.Scalar.new", COUNT),
    Target("coalgebra", "apply_delta_slot", "coalgebra.apply_delta_slot"),
    Target("coalgebra", "tau", "coalgebra.tau"),
    Target("coalgebra", "zeta", "coalgebra.zeta"),
    Target("coalgebra", "dualize", "coalgebra.dualize", SPAN),
    Target("coalgebra", "compare", "coalgebra.compare", SPAN),
    Target("coalgebra", "double_dual_roundtrip", "coalgebra.double_dual_roundtrip", SPAN),
    Target("coalgebra", "check_lie_coalgebra", "coalgebra.check_lie_coalgebra", SPAN),
    Target("coalgebra", "check_jordan_coalgebra", "coalgebra.check_jordan_coalgebra", SPAN),
    Target("serialize", "dumps", "serialize.dumps", SPAN),
    Target("serialize", "loads", "serialize.loads", SPAN),
    Target("serialize", "structure_tex", "serialize.tex", SPAN),
    Target("serialize", "coproduct_tex", "serialize.tex", SPAN),
] + [
    Target("closed_form", f"coproduct_{fam}", "closed_form.coproduct", SPAN)
    for fam in ("vir", "cur_sl2", "W", "S", "K", "N", "K4prime", "CK6", "Jn", "JS1", "JCK4")
]
