"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the program: ``Tracer.patched`` replaces
public module attributes of ``rectpas`` with timing wrappers for the
duration of one call and puts the originals back afterwards. Every span
keeps its name, start, end, parent span and operation id; a layer's self
time is its duration minus the part of that interval its child spans
cover.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    op: Optional[int]
    note: Any = None  # what the wrapped call returned, reduced by its noter

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.duration - covered(children[i], s.start, s.end) for i, s in enumerate(spans)]


# A noter reduces a wrapped call's return value to what the layer metrics
# count; the value itself is not kept, so spans stay small.
def _found(placed) -> bool:
    return placed is not None


def _misr_count(result) -> int:
    meta = getattr(result, "metadata", None) or getattr(result, "params", {})
    return int(meta.get("candidates", 0))


def _kernel_size(report) -> int:
    return report.size


# One entry per wrapped attribute: (module name, attribute, span name, noter).
# ``gknap`` imports ``packing_feasible_exact`` by name, so that binding is
# wrapped as well as the one in ``oracles``.
LAYER_ENTRY_POINTS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("cli", "cli_dispatch", "cli.dispatch", None),
    ("fileio", "load_instance", "fileio.load", None),
    ("fileio", "canonical_json", "fileio.json", None),
    ("generators", "gen_misr", "generators.gen_misr", None),
    ("misr", "build_grid", "misr.build_grid", None),
    ("misr", "structured_solution", "misr.structured_solution", None),
    ("misr", "apply_separator", "planar.apply_separator", None),
    ("misr", "solve_cellset_subproblem", "misr.capped_mis", None),
    ("misr", "pas_misr", "misr.pas_misr", _misr_count),
    ("misr", "kernel_misr", "misr.kernel_misr", _misr_count),
    ("oracles", "mis_rectangles_exact", "oracles.mis_exact", None),
    ("oracles", "knapsack_exact", "oracles.knapsack_exact", None),
    ("oracles", "packing_feasible_exact", "oracles.packing", _found),
    ("gknap", "packing_feasible_exact", "oracles.packing", _found),
    ("gknap", "prune_to_kernel", "gknap.prune_to_kernel", _kernel_size),
    ("gknap", "solve_restricted", "gknap.solve_restricted", None),
    ("gknap", "pas_2dkr", "gknap.pas_2dkr", None),
    ("gknap", "kernel_2dkr", "gknap.kernel_2dkr", None),
)


@dataclass
class Tracer:
    """Collects spans in memory; ``dump`` writes them out at the end."""

    modules: dict[str, Any]
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    op: Optional[int] = None

    def _wrap(self, name: str, fn: Callable, noter: Optional[Callable]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.op)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if noter is not None:
                span.note = noter(out)
            return out

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around benchmark code, such as one operation."""
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def patched(self):
        """Wrap every layer entry point; restore the originals on exit."""
        saved = []
        try:
            for mod_name, attr, name, noter in LAYER_ENTRY_POINTS:
                mod = self.modules[mod_name]
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self._wrap(name, original, noter))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def dump(self, path) -> None:
        rows = [
            [i, s.name, s.start, s.end, s.parent, s.op] for i, s in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "op"], "spans": rows}, fh)


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer totals from a traced pass, as {metric: (value, unit)}.

    Expected span layout: each operation is an ``op`` root span; set-up work
    sits under a ``setup`` root. A MISR PAS operation also has an
    ``aux.kernel`` root with the same op id that re-runs ``kernel_misr`` at
    the same instance and k: set packing has no entry point of its own, so
    it is taken as PAS self time minus that kernel's self time, and the
    kernel's self time stands for the family growth inside the PAS call.
    """
    selfs = self_times(spans)
    roots: list[str] = []
    for s in spans:  # a parent is always recorded before its children
        roots.append(roots[s.parent] if s.parent >= 0 else s.name)
    tot: dict[str, float] = {}
    cnt: dict[str, int] = {}
    setup: dict[str, float] = {}
    pas_self: dict[int, float] = {}
    aux_kernel_self: dict[int, float] = {}
    candidates = found = subsets = kernel_items = 0
    op_total = op_covered = 0.0
    for s, st, root in zip(spans, selfs, roots):
        if root == "setup":
            setup[s.name] = setup.get(s.name, 0.0) + st
            continue
        if root == "aux.kernel":
            if s.name == "misr.kernel_misr":
                aux_kernel_self[s.op] = aux_kernel_self.get(s.op, 0.0) + st
            continue
        tot[s.name] = tot.get(s.name, 0.0) + st
        cnt[s.name] = cnt.get(s.name, 0) + 1
        if s.name == "op":
            op_total += s.duration
            op_covered += s.duration - st
        elif s.name == "misr.pas_misr":
            pas_self[s.op] = pas_self.get(s.op, 0.0) + st
            candidates += s.note or 0
        elif s.name == "misr.kernel_misr":
            candidates += s.note or 0
        elif s.name == "oracles.packing":
            found += bool(s.note)
            subsets += s.parent >= 0 and spans[s.parent].name == "gknap.solve_restricted"
        elif s.name == "gknap.prune_to_kernel":
            kernel_items += s.note or 0
    family = tot.get("misr.kernel_misr", 0.0) + sum(aux_kernel_self.values())
    set_packing = sum((v - aux_kernel_self.get(op, 0.0) for op, v in pas_self.items()), 0.0)
    calls = cnt.get("oracles.packing", 0)
    packing_s = tot.get("oracles.packing", 0.0)
    return {
        "misr.capped_mis_s": (tot.get("misr.capped_mis", 0.0), "s"),
        "misr.capped_mis_calls": (cnt.get("misr.capped_mis", 0), "count"),
        "misr.family_s": (family, "s"),
        "misr.candidates": (candidates, "count"),
        "misr.set_packing_s": (set_packing, "s"),
        "misr.grid_s": (tot.get("misr.build_grid", 0.0), "s"),
        "oracles.packing_s": (packing_s, "s"),
        "oracles.packing_calls": (calls, "count"),
        "oracles.packing_ms_per_call": (1000.0 * packing_s / calls if calls else 0.0, "ms"),
        "oracles.packing_found_frac": (found / calls if calls else 0.0, "frac"),
        "oracles.knapsack_self_s": (tot.get("oracles.knapsack_exact", 0.0), "s"),
        "gknap.prune_s": (tot.get("gknap.prune_to_kernel", 0.0), "s"),
        "gknap.kernel_items": (kernel_items, "count"),
        "gknap.restricted_self_s": (tot.get("gknap.solve_restricted", 0.0), "s"),
        "gknap.subsets_probed": (subsets, "count"),
        "fileio.load_s": (tot.get("fileio.load", 0.0), "s"),
        "fileio.json_s": (tot.get("fileio.json", 0.0), "s"),
        "cli.self_s": (tot.get("cli.dispatch", 0.0), "s"),
        "oracles.mis_exact_s": (setup.get("oracles.mis_exact", 0.0), "s"),
        "planar.separator_s": (setup.get("planar.apply_separator", 0.0), "s"),
        "misr.structured_s": (setup.get("misr.structured_solution", 0.0), "s"),
        "generators.gen_s": (setup.get("generators.gen_misr", 0.0), "s"),
        "trace.coverage_frac": (op_covered / op_total if op_total else 0.0, "frac"),
    }
