"""In-memory span tracer for the benchmark's traced run.

`Tracer.installed()` replaces each traced mfkit function or method with a
wrapper for the duration of a `with` block and restores the originals on
exit. A module-level function is replaced at every binding that holds it
in mfkit's modules, so a name imported with `from .groebner import
normal_form` is traced as well as the defining one. Nothing under `src/`
is edited.

Each wrapped call records one span: name, start, end and the index of the
enclosing span. Spans stay in compact arrays until the run ends. The hot
leaf calls that would dwarf everything else if each were a span (field
arithmetic, monomial order keys) are only counted.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from array import array

import mfkit.cli
import mfkit.fields
import mfkit.groebner
import mfkit.linalg
import mfkit.mfcat
import mfkit.periodic
import mfkit.poly
import mfkit.tower
import mfkit.workbench

# (span name, owner, attribute). Owners that are classes are patched on
# the class; owners that are modules are patched at every mfkit binding.
SPANS = (
    ("linalg.rank", mfkit.linalg, "matrix_rank"),
    ("linalg.solve", mfkit.linalg, "solve_linear"),
    ("groebner.buchberger", mfkit.groebner, "buchberger_with_reps"),
    ("groebner.divide_full", mfkit.groebner, "divide_full"),
    ("groebner.normal_form", mfkit.groebner, "normal_form"),
    ("groebner.oracle_divide", mfkit.groebner.DivisionOracle, "divide"),
    ("tower.build", mfkit.tower, "build_tower"),
    ("tower.matmul", mfkit.tower.RingMatrix, "__matmul__"),
    ("poly.mul", mfkit.poly.Polynomial, "__mul__"),
    ("poly.add", mfkit.poly.Polynomial, "__add__"),
    ("poly.parse", mfkit.poly.PolyRing, "parse"),
    ("mfcat.verify", mfkit.mfcat, "verify_mf"),
    ("mfcat.verify", mfkit.mfcat, "verify_morphism"),
    ("mfcat.verify", mfkit.mfcat, "verify_homotopy"),
    ("periodic.transport", mfkit.periodic, "transport_nullhomotopy"),
    ("periodic.lift", mfkit.periodic, "lift_chain_map"),
    ("periodic.acyclicity_window", mfkit.periodic, "graded_acyclicity_window"),
    ("periodic.nullhomotopy_window", mfkit.periodic, "graded_nullhomotopy_window"),
    ("workbench.load", mfkit.workbench, "load_workbench"),
    ("cli.main", mfkit.cli, "main"),
)

FIELD_OPS = ("add", "sub", "mul", "div", "inv", "neg")
COUNTERS = tuple(
    ("fields.ops", cls, op)
    for cls in (mfkit.fields.Rationals, mfkit.fields.PrimeField)
    for op in FIELD_OPS
) + (("poly.order_key", mfkit.poly.MonomialOrder, "key"),)

# Wraps the benchmark's own bookkeeping inside a traced call, so that it
# counts as tracing overhead and not as the enclosing layer's self time.
STATS_SPAN = "trace.stats"
OP_SPAN = "bench.op"

_INHERITED = object()


def _mfkit_modules():
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "mfkit" or name.startswith("mfkit."))
    ]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = {name: [0] for name, _, _ in COUNTERS}
        # Linear algebra inputs, Buchberger results and reductions.
        self.linalg_cells = 0
        self.linalg_nonzero = 0
        self.rank_inputs = 0
        self.rank_repeats = 0
        self._ranked: set = set()
        self.basis_lens: list[int] = []
        self._buchberger_depth = 0
        self.spair_divides = 0
        self.spair_zero = 0
        # Traced targets that this version of mfkit does not define.
        self.missing: set[str] = set()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.end)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    # -- wrappers ---------------------------------------------------------

    def _wrap_span(self, name: str, fn):
        name_id = self._id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        if name in ("linalg.rank", "linalg.solve"):
            return self._wrap_linalg(name, wrapper)
        if name == "groebner.buchberger":
            return self._wrap_buchberger(wrapper)
        if name == "groebner.divide_full":
            return self._wrap_divide(wrapper)
        return wrapper

    def _wrap_linalg(self, name: str, inner):
        stats_id = self._id(STATS_SPAN)
        is_rank = name == "linalg.rank"

        @functools.wraps(inner)
        def wrapper(rows, *args, **kwargs):
            idx = self._open(stats_id)
            nrows = len(rows)
            ncols = len(rows[0]) if nrows else 0
            self.linalg_cells += nrows * ncols
            self.linalg_nonzero += sum(1 for row in rows for v in row if v)
            if is_rank:
                field = args[0] if args else kwargs.get("field")
                key = (field, tuple(tuple(row) for row in rows))
                self.rank_inputs += 1
                if key in self._ranked:
                    self.rank_repeats += 1
                else:
                    self._ranked.add(key)
            self._close(idx)
            return inner(rows, *args, **kwargs)

        return wrapper

    def _wrap_buchberger(self, inner):
        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            self._buchberger_depth += 1
            try:
                result = inner(*args, **kwargs)
            finally:
                self._buchberger_depth -= 1
            self.basis_lens.append(len(result[0]))
            return result

        return wrapper

    def _wrap_divide(self, inner):
        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            result = inner(*args, **kwargs)
            if self._buchberger_depth:
                self.spair_divides += 1
                if result[0].is_zero():
                    self.spair_zero += 1
            return result

        return wrapper

    @staticmethod
    def _wrap_count(cell: list, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Trace every listed function for the duration of the block."""
        restore = []
        try:
            for name, owner, attr in SPANS + COUNTERS:
                original = getattr(owner, attr, None)
                if original is None:
                    self.missing.add(f"{name}: {getattr(owner, '__name__', owner)}.{attr}")
                    continue
                if name in self.counts:
                    wrapper = self._wrap_count(self.counts[name], original)
                else:
                    wrapper = self._wrap_span(name, original)
                if isinstance(owner, type):
                    restore.append((owner, attr, owner.__dict__.get(attr, _INHERITED)))
                    setattr(owner, attr, wrapper)
                    continue
                for mod in _mfkit_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            restore.append((mod, key, value))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for owner, attr, value in reversed(restore):
                if value is _INHERITED:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, value)

    # -- results ----------------------------------------------------------

    def layer_totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self time per span name.

        Self time is a span's duration minus the durations of its direct
        children; children nest strictly inside their parent because the
        traced run is single-threaded.
        """
        n = len(self.end)
        dur = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[i]
        calls = {name: 0 for name in self.names}
        self_s = {name: 0.0 for name in self.names}
        for i in range(n):
            name = self.names[self.name_of[i]]
            calls[name] += 1
            self_s[name] += dur[i] - covered[i]
        return calls, self_s

    def write(self, path):
        """Spans as JSON lines: a header with the name table, then one
        [name id, start, end, parent] array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "fields": ["name", "start", "end", "parent"]}))
            fh.write("\n")
            for row in zip(self.name_of, self.start, self.end, self.parent):
                fh.write(f"[{row[0]},{row[1]!r},{row[2]!r},{row[3]}]\n")
