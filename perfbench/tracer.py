"""An in-process tracer for `greenseq`, kept entirely in the benchmark.

While active it rebinds each traced public function in every `greenseq`
module namespace that binds it (so `fho.hom_dim` is wrapped as well as
`rep.hom_dim`), records one span per call and restores every original
binding on exit. Spans stay in memory as columns and are written out once,
by `write`.

The hot accessors `Quiver.pos` and `Representation.mat` (tens of millions of
calls per pass) are deliberately not traced, so the overhead stays small.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional


@dataclass(frozen=True)
class Spec:
    """One traced function: `module` is relative to the `greenseq` package."""

    module: str
    name: str
    # distinct-input key; the ratio distinct/calls is a waste measure
    key: Optional[Callable[..., Any]] = None
    # keep the arguments of each distinct key alive, for id()-based keys
    hold: bool = False
    # a call that returns counts as a useful outcome, if the value passes this
    ok: Optional[Callable[[Any], bool]] = None

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.name}"


def _not_none(result: Any) -> bool:
    return result is not None


SPECS = (
    Spec("exchange", "mutate", key=lambda m, k: hash((m.b, m.c, k))),
    Spec("exchange", "enumerate_green_sequences"),
    Spec("exchange", "replay_c_vector_sequence"),
    Spec("rep", "string_catalog"),
    # catalog modules are distinct objects, so identity names a module pair
    Spec("rep", "hom_dim", key=lambda m, n: (id(m), id(n)), hold=True),
    Spec("fho", "is_maximal_fho", ok=bool),
    Spec("fho", "enumerate_maximal_fho"),
    Spec("fho", "is_fho_in_torsion_class"),
    Spec("fho", "verify_theorem1"),
    Spec("bounds", "cuts"),
    Spec("bounds", "construct_max_sequence"),
    Spec("walls", "crossing_sequence"),
    Spec("walls", "random_generic_base"),
    Spec("walls", "rational_feasible"),
    Spec("walls", "realize_sequence", ok=_not_none),
    Spec("walls", "wall_for"),
    Spec("io", "load_problem"),
    Spec("cli", "main"),
)


class Stat:
    """Per-op totals for one traced function."""

    __slots__ = ("calls", "seconds", "self_seconds", "ok", "keys", "distinct")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0
        self.ok = 0
        self.keys: Optional[dict] = {}
        self.distinct = 0


class Tracer:
    """Context manager that traces `SPECS` while active.

    Call `begin_op` before each unit of work; spans and totals are kept per
    op, so one tracer can cover several passes.
    """

    def __init__(self):
        self.t_zero = time.perf_counter()
        # span columns: name index, start, end, parent span (-1: none), op
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.op_labels: list[str] = []
        # per op: qualname -> Stat, and (parent, child) qualnames -> calls
        self.op_stats: list[dict[str, Stat]] = []
        self.op_edges: list[dict[tuple[str, str], int]] = []
        self._stack: list[list] = []  # [span index, child seconds, qualname]
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # ops

    def begin_op(self, label: str) -> int:
        self._close_op()
        self.op_labels.append(label)
        self.op_stats.append({})
        self.op_edges.append({})
        return len(self.op_labels) - 1

    def _close_op(self) -> None:
        if self.op_stats:
            for st in self.op_stats[-1].values():
                if st.keys is not None:
                    st.distinct = len(st.keys)
                    st.keys = None

    # ------------------------------------------------------------------
    # binding

    def __enter__(self) -> "Tracer":
        importlib.import_module("greenseq.cli")  # loads every traced module
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "greenseq" or name.startswith("greenseq.")
        ]
        try:
            for index, spec in enumerate(SPECS):
                home = importlib.import_module("greenseq." + spec.module)
                original = getattr(home, spec.name)
                wrapper = self._wrap(index, spec, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, attr, original))
                            setattr(module, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._close_op()
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, index: int, spec: Spec, fn: Callable) -> Callable:
        qualname, key, hold, ok = spec.qualname, spec.key, spec.hold, spec.ok
        stack = self._stack
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops = self.span_parent, self.span_op
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stats = tracer.op_stats[-1]
            st = stats.get(qualname)
            if st is None:
                st = stats[qualname] = Stat()
            span = len(names)
            names.append(index)
            parents.append(stack[-1][0] if stack else -1)
            ops.append(len(tracer.op_stats) - 1)
            starts.append(0.0)
            ends.append(0.0)
            frame = [span, 0.0, qualname]
            stack.append(frame)
            returned = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                starts[span] = t0 - tracer.t_zero
                ends[span] = t1 - tracer.t_zero
                duration = t1 - t0
                st.calls += 1
                st.seconds += duration
                st.self_seconds += duration - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += duration
                    edges = tracer.op_edges[-1]
                    edge = (parent[2], qualname)
                    edges[edge] = edges.get(edge, 0) + 1
                if key is not None:
                    k = key(*args, **kwargs)
                    if k not in st.keys:
                        st.keys[k] = args if hold else None
                if returned and (ok is None or ok(result)):
                    st.ok += 1

        return traced

    # ------------------------------------------------------------------
    # results

    def totals(self, op_ids, scale=None) -> tuple[dict[str, Stat], dict[tuple[str, str], int]]:
        """Sum per-op totals over `op_ids` (distinct keys are counted per op).

        `scale`, when given, maps an op id to a factor for its times.
        """
        stats: dict[str, Stat] = {}
        edges: dict[tuple[str, str], int] = {}
        for i in op_ids:
            factor = scale[i] if scale else 1.0
            for name, st in self.op_stats[i].items():
                acc = stats.get(name)
                if acc is None:
                    acc = stats[name] = Stat()
                acc.calls += st.calls
                acc.seconds += st.seconds * factor
                acc.self_seconds += st.self_seconds * factor
                acc.ok += st.ok
                acc.distinct += st.distinct if st.keys is None else len(st.keys)
            for edge, n in self.op_edges[i].items():
                edges[edge] = edges.get(edge, 0) + n
        return stats, edges

    def write(self, directory: Path) -> None:
        """Write `ops.csv` and `spans.csv` (times in seconds from tracer start)."""
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / "ops.csv", "w", encoding="utf-8") as fh:
            fh.write("op,label\n")
            fh.writelines(f"{i},{label}\n" for i, label in enumerate(self.op_labels))
        qualnames = [spec.qualname for spec in SPECS]
        with open(directory / "spans.csv", "w", encoding="utf-8") as fh:
            fh.write("span,op,name,start_s,end_s,parent\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i},{self.span_op[i]},{qualnames[self.span_name[i]]},"
                    f"{self.span_start[i]:.9f},{self.span_end[i]:.9f},{self.span_parent[i]}\n"
                )
