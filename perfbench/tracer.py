"""In-memory tracing of quatlat's layers, installed from outside the package.

The tracer rebinds the names that callers look up at call time: module
attributes in every loaded ``quatlat`` module (``lattice.traceless_slices``
and ``counting.traceless_slices`` alike), handler tables such as
``cli._DISPATCH``, and methods on ``Lattice4``, ``MaximalOrder`` and
``Quat``.  Nothing inside ``src/`` changes.

Two kinds of wrapper exist:

* function-level calls record a span ``(id, parent, op, name, start, end)``
  in memory; the parent is the innermost open span of the same thread, or,
  for a pool thread with no open span, the innermost span of the main
  thread that is waiting on it;
* per-element calls (slice yields, ``quat_from_frame``, ``frame_coords``,
  ``Quat.__mul__``, ``in_ball``, ...) record only a call count and total
  time, because a span per element would dominate the run.

Counters and spans live in per-thread stores, so the pool threads of
``balanced_search`` and ``count --threads 2`` never race on a shared dict;
``summarize`` merges them once the traced pass is over.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from time import perf_counter

SPAN = "span"
ELEMENT = "element"
GENERATOR = "generator"

# (module, attribute or Class.method, metric name, kind)
TARGETS = (
    ("quatlat.cli", "main", "cli.main", SPAN),
    ("quatlat.cli", "load_config", "cli.load_config", SPAN),
    ("quatlat.cli", "_cmd_count", "cli.count", SPAN),
    ("quatlat.cli", "_cmd_balance", "cli.balance", SPAN),
    ("quatlat.cli", "sample_points", "cli.sample_points", SPAN),
    ("quatlat.lattice", "saturate_to_maximal", "lattice.maximal_order", SPAN),
    ("quatlat.lattice", "default_maximal_order", "lattice.maximal_order", SPAN),
    ("quatlat.lattice", "eichler_order", "lattice.eichler_order", SPAN),
    ("quatlat.lattice", "intersect", "lattice.intersect", SPAN),
    ("quatlat.lattice", "norm_elements", "lattice.norm_elements", SPAN),
    ("quatlat.lattice", "traceless_slices", "lattice.traceless_slices", GENERATOR),
    ("quatlat.lattice", "Lattice4.conjugate_by", "lattice.conjugate_by", SPAN),
    ("quatlat.lattice", "Lattice4.invariant_factors_in", "lattice.invariant_factors_in", SPAN),
    ("quatlat.lattice", "Lattice4.is_balanced", "lattice.is_balanced", SPAN),
    ("quatlat.lattice", "Lattice4.is_order", "lattice.is_order", SPAN),
    ("quatlat.lattice", "Lattice4.shape", "lattice.shape", SPAN),
    ("quatlat.lattice", "Lattice4.level", "lattice.level", SPAN),
    ("quatlat.lattice", "Lattice4.is_sublattice_of", "lattice.is_sublattice_of", ELEMENT),
    ("quatlat.lattice", "Lattice4.contains_coords", "lattice.contains_coords", ELEMENT),
    ("quatlat.lattice", "MaximalOrder.lattice_from_quats", "lattice.lattice_from_quats", SPAN),
    ("quatlat.lattice", "MaximalOrder.quat_from_frame", "lattice.quat_from_frame", ELEMENT),
    ("quatlat.lattice", "MaximalOrder.frame_coords", "lattice.frame_coords", ELEMENT),
    ("quatlat.intmat", "hnf", "intmat.hnf", SPAN),
    ("quatlat.intmat", "snf_with_transforms", "intmat.snf", SPAN),
    ("quatlat.intmat", "inverse_frac", "intmat.inverse_frac", SPAN),
    ("quatlat.intmat", "solve_left_frac", "intmat.solve_left_frac", ELEMENT),
    ("quatlat.counting", "build_injection", "counting.build_injection", SPAN),
    ("quatlat.counting", "sweep_counts", "counting.sweep_counts", SPAN),
    ("quatlat.counting", "enumerate_norm_ball", "counting.enumerate_norm_ball", SPAN),
    ("quatlat.counting", "explicit_bound", "counting.explicit_bound", SPAN),
    ("quatlat.counting", "order_small_norm_check", "counting.order_small_norm_check", SPAN),
    ("quatlat.counting", "verify_congruences", "counting.verify_congruences", ELEMENT),
    ("quatlat.counting", "project_alpha", "counting.project_alpha", ELEMENT),
    ("quatlat.counting", "in_ball", "counting.in_ball", ELEMENT),
    ("quatlat.quat", "u_dist", "quat.u_dist", ELEMENT),
    ("quatlat.quat", "Quat.__mul__", "quat.mul", ELEMENT),
    ("quatlat.quat", "box_constant", "quat.box_constant", SPAN),
    ("quatlat.coprime", "solve", "coprime.solve", SPAN),
    ("quatlat.arith", "factorize", "arith.factorize", ELEMENT),
    ("quatlat.balance", "balanced_search", "balance.balanced_search", SPAN),
    ("quatlat.balance", "_try_conjugator", "balance.try_conjugator", ELEMENT),
)

# slices yielded through this module's binding are the ones sweep_counts walks
SWEEP_SLICES = ("quatlat.counting", "counting.slices_walked")


class _Store:
    """One thread's open spans, finished spans and counters."""

    def __init__(self):
        self.stack: list[int] = []
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.ms: dict[str, float] = {}
        self.attempt = None  # [contained, balance checked] inside _try_conjugator


class Tracer:
    def __init__(self):
        self.op = -1
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._stores: list[_Store] = []
        self._lock = threading.Lock()
        self._main = self._store()
        self._patches: list[tuple] = []

    # -- per-thread state ------------------------------------------------
    def _store(self) -> _Store:
        st = getattr(self._tls, "store", None)
        if st is None:
            st = _Store()
            self._tls.store = st
            with self._lock:
                self._stores.append(st)
        return st

    def _parent(self, st: _Store):
        if st.stack:
            return st.stack[-1]
        main = self._main.stack
        return main[-1] if main else None

    @staticmethod
    def _add(st: _Store, name: str, n: int = 1) -> None:
        st.counts[name] = st.counts.get(name, 0) + n

    # -- wrappers --------------------------------------------------------
    def _span(self, fn, name):
        tracer = self
        balance_check = name == "lattice.is_balanced"
        small_norm = name == "counting.order_small_norm_check"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._store()
            if balance_check and st.attempt is not None:
                st.attempt[1] = True
            sid = next(tracer._ids)
            parent = tracer._parent(st)
            st.stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                st.stack.pop()
                st.spans.append((sid, parent, tracer.op, name, t0, t1))
            if small_norm:
                tracer._add(st, "counting.small_norm_pairs", result.pair_count)
            return result

        return wrapper

    def _element(self, fn, name):
        tracer = self
        calls = name + ".calls"
        ms = name + ".ms"
        ball_test = name == "counting.in_ball"
        containment = name == "lattice.is_sublattice_of"
        attempt_scope = name == "balance.try_conjugator"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._store()
            if attempt_scope:
                outer, st.attempt = st.attempt, [None, False]
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                st.ms[ms] = st.ms.get(ms, 0.0) + (perf_counter() - t0)
                st.counts[calls] = st.counts.get(calls, 0) + 1
                if attempt_scope:
                    attempt, st.attempt = st.attempt, outer
            if ball_test and result:
                tracer._add(st, "counting.ball_hits")
            elif containment:
                if st.attempt is not None and st.attempt[0] is None:
                    st.attempt[0] = result
            elif attempt_scope:
                if result is not None:
                    reason = "balance.found"
                elif attempt[0] is False:
                    reason = "balance.not_contained"
                elif not attempt[1]:
                    reason = "balance.level_mismatch"
                else:
                    reason = "balance.unbalanced"
                tracer._add(st, reason)
            return result

        return wrapper

    def _generator(self, fn, name, extra=None):
        tracer = self
        items = name + ".slices"
        ms = name + ".ms"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._store()
            inner = fn(*args, **kwargs)
            while True:
                t0 = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    st.ms[ms] = st.ms.get(ms, 0.0) + (perf_counter() - t0)
                    return
                st.ms[ms] = st.ms.get(ms, 0.0) + (perf_counter() - t0)
                st.counts[items] = st.counts.get(items, 0) + 1
                if extra:
                    st.counts[extra] = st.counts.get(extra, 0) + 1
                yield item

        return wrapper

    # -- installation ----------------------------------------------------
    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "quatlat" or k.startswith("quatlat."))]
        for mod_name, path, name, kind in TARGETS:
            home = sys.modules[mod_name]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(home, cls_name)
                fn = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(fn, name, kind))
                continue
            fn = getattr(home, path)
            wrapper = self._wrap(fn, name, kind)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        if kind == GENERATOR and mod.__name__ == SWEEP_SLICES[0]:
                            self._set(mod, attr, self._generator(fn, name, SWEEP_SLICES[1]))
                        else:
                            self._set(mod, attr, wrapper)
                    elif isinstance(value, dict):
                        self._patch_table(value, fn, wrapper)

    def _patch_table(self, table: dict, fn, wrapper) -> None:
        for key, entry in list(table.items()):
            if isinstance(entry, tuple) and fn in entry:
                new = tuple(wrapper if v is fn else v for v in entry)
                self._patches.append((table, key, entry))
                table[key] = new

    def _wrap(self, fn, name, kind):
        if kind == SPAN:
            return self._span(fn, name)
        if kind == ELEMENT:
            return self._element(fn, name)
        return self._generator(fn, name)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._patches = []

    # -- results ---------------------------------------------------------
    def spans(self) -> list[tuple]:
        out = [s for st in self._stores for s in st.spans]
        out.sort()
        return out

    def summarize(self) -> dict[str, float]:
        """Merged counters plus calls / ms / self_ms for every span name."""
        counts: dict[str, float] = {}
        for st in self._stores:
            for k, v in st.counts.items():
                counts[k] = counts.get(k, 0) + v
            for k, v in st.ms.items():
                counts[k] = counts.get(k, 0.0) + v * 1000.0
        spans = self.spans()
        by_id = {s[0]: s for s in spans}
        children: dict[int, list[tuple]] = {}
        for s in spans:
            if s[1] is not None:
                children.setdefault(s[1], []).append(s)
        for sid, parent, _op, name, t0, t1 in spans:
            counts[name + ".calls"] = counts.get(name + ".calls", 0) + 1
            dur = t1 - t0
            covered = _covered(t0, t1, children.get(sid, ()))
            counts[name + ".self_ms"] = counts.get(name + ".self_ms", 0.0) + (dur - covered) * 1000.0
            # inclusive time counts only the outermost span of a name
            anc = parent
            nested = False
            while anc is not None:
                a = by_id[anc]
                if a[3] == name:
                    nested = True
                    break
                anc = a[1]
            if not nested:
                counts[name + ".ms"] = counts.get(name + ".ms", 0.0) + dur * 1000.0
        return counts

    def write_spans(self, path: str) -> int:
        spans = self.spans()
        base = spans[0][4] if spans else 0.0
        with open(path, "w") as fh:
            for sid, parent, op, name, t0, t1 in spans:
                fh.write(json.dumps([sid, parent, op, name,
                                     round((t0 - base) * 1e6, 1),
                                     round((t1 - base) * 1e6, 1)]) + "\n")
        return len(spans)


def _covered(t0: float, t1: float, kids) -> float:
    """Length of [t0, t1] covered by the union of the children's intervals."""
    ivs = sorted((max(t0, k[4]), min(t1, k[5])) for k in kids)
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in ivs:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
