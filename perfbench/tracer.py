"""Spans around the public functions of each tropic layer, recorded from outside.

``Tracer.install`` rebinds the functions listed in ``WRAPPED`` with timing
wrappers in every loaded ``tropic`` module namespace that holds them (a
module that did ``from .latticefan import smallest_containing_cone`` gets
the wrapper too), so calls between layers nest.  ``uninstall`` puts the
originals back.  Private helpers are never wrapped.

Each call becomes a span (name, parent span, op, duration, time spent in
child spans), kept in memory until the run ends.  The hottest leaf,
``cone_contains``, is aggregated instead (a count and a total, whose time is
charged to the enclosing span as child time), because one op makes up to a
few hundred thousand such calls.  Observers read counts off return values
(new subdivision vertices, matrix shape and rank, departures, certificate
size).
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

# Public functions per layer.  Arithmetic helpers (dot, primitive,
# edge_data, ...) are left out: a wrapper costs about as much as one call.
WRAPPED = {
    "cli": ("run",),
    "jsonio": (
        "loads",
        "dumps",
        "curve_from_dict",
        "fan_from_dict",
        "certificate_from_dict",
        "curve_to_dict",
        "fan_to_dict",
        "certificate_to_dict",
    ),
    "curves": ("validate", "is_balanced", "outgoing", "genus"),
    "latticefan": ("fan_validate", "smallest_containing_cone", "cone_contains", "rank"),
    "refine": ("subdivide_along_fan", "rescale_integral", "check_recession_support"),
    "defspace": ("is_superabundant", "combinatorial_type", "deformation_cone"),
    "wellspaced": ("well_spaced", "cycle"),
    "degeneration": ("certify", "verify_certificate", "dual_curve"),
}
LEAVES = {"latticefan.cone_contains"}


def _observe_subdivide(counts, args, result):
    curve = args[0]
    counts["refine.pieces_in"] += len(curve.edges) + len(curve.rays)
    counts["refine.new_vertices"] += len(result.new_vertices)


def _observe_deformation_cone(counts, args, result):
    counts["defspace.cones"] += 1
    counts["defspace.matrix_rows"] += len(result.equations)
    counts["defspace.matrix_cols"] += len(result.coordinates)
    counts["defspace.rank"] += len(result.coordinates) - result.dimension


def _observe_well_spaced(counts, args, result):
    counts["wellspaced.verdicts"] += 1
    counts["wellspaced.departures"] += len(result.departures)


def _observe_certify(counts, args, result):
    counts["degeneration.certificates"] += 1
    counts["degeneration.cert_vertices"] += len(result.rescaled_curve.vertices)


OBSERVERS = {
    "refine.subdivide_along_fan": _observe_subdivide,
    "defspace.deformation_cone": _observe_deformation_cone,
    "wellspaced.well_spaced": _observe_well_spaced,
    "degeneration.certify": _observe_certify,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_dur = array("d")
        self.span_child = array("d")
        self.leaf_calls: Counter = Counter()
        self.leaf_time: Counter = Counter()
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._child: list[float] = []
        self._originals: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _span_wrapper(self, name, fn):
        nid = self._name_id(name)
        observe = OBSERVERS.get(name)
        stack, child = self._stack, self._child

        def wrapper(*args, **kwargs):
            idx = len(self.span_dur)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_op.append(self.op)
            self.span_dur.append(0.0)
            self.span_child.append(0.0)
            stack.append(idx)
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                self.span_dur[idx] = dur
                self.span_child[idx] = child.pop()
                if child:
                    child[-1] += dur
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return wrapper

    def _leaf_wrapper(self, name, fn):
        child, calls, total = self._child, self.leaf_calls, self.leaf_time

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                calls[name] += 1
                total[name] += dur
                if child:
                    child[-1] += dur

        return wrapper

    def install(self) -> None:
        """Wrap every function in WRAPPED wherever a loaded tropic module binds it."""
        modules = [m for k, m in sys.modules.items() if k == "tropic" or k.startswith("tropic.")]
        for layer, functions in WRAPPED.items():
            home = sys.modules[f"tropic.{layer}"]
            for fname in functions:
                original = getattr(home, fname)
                name = f"{layer}.{fname}"
                make = self._leaf_wrapper if name in LEAVES else self._span_wrapper
                wrapper = make(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._originals.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    # -- results -----------------------------------------------------------

    def dump(self) -> dict:
        """Plain-data copy of everything recorded, for a child process to hand back."""
        return {
            "names": self.names,
            "spans": [
                list(self.span_name),
                list(self.span_parent),
                list(self.span_op),
                list(self.span_dur),
                list(self.span_child),
            ],
            "leaf_calls": dict(self.leaf_calls),
            "leaf_time": dict(self.leaf_time),
            "counts": dict(self.counts),
        }

    def merge(self, data: dict, op: int) -> None:
        """Append a child process's spans, re-labelled as belonging to ``op``."""
        offset = len(self.span_dur)
        ids = [self._name_id(n) for n in data["names"]]
        names, parents, _, durs, childs = data["spans"]
        for nid, parent, dur, child in zip(names, parents, durs, childs):
            self.span_name.append(ids[nid])
            self.span_parent.append(parent + offset if parent >= 0 else -1)
            self.span_op.append(op)
            self.span_dur.append(dur)
            self.span_child.append(child)
        self.leaf_calls.update(data["leaf_calls"])
        self.leaf_time.update(data["leaf_time"])
        self.counts.update(data["counts"])

    def totals(self, ops_only: bool = True) -> tuple[Counter, Counter, Counter]:
        """Per span name: calls, inclusive time of the outermost spans, and self time."""
        calls: Counter = Counter()
        inclusive: Counter = Counter()
        self_time: Counter = Counter()
        for idx in range(len(self.span_dur)):
            if ops_only and self.span_op[idx] < 0:
                continue
            name = self.names[self.span_name[idx]]
            calls[name] += 1
            self_time[name] += self.span_dur[idx] - self.span_child[idx]
            if not self._has_ancestor(idx, self.span_name[idx]):
                inclusive[name] += self.span_dur[idx]
        return calls, inclusive, self_time

    def _has_ancestor(self, idx: int, name_id: int) -> bool:
        parent = self.span_parent[idx]
        while parent >= 0:
            if self.span_name[parent] == name_id:
                return True
            parent = self.span_parent[parent]
        return False

    def covered(self, parts: tuple[str, ...], root: str | None = None) -> float:
        """Op time spent in spans named in ``parts``, counting nested ones once;
        with ``root``, only the part of it inside ``root`` spans."""
        part_ids = {self.name_ids[p] for p in parts if p in self.name_ids}
        root_id = self.name_ids.get(root, -2) if root else None
        total = 0.0
        for idx in range(len(self.span_dur)):
            if self.span_name[idx] not in part_ids or self.span_op[idx] < 0:
                continue
            parent, inside, nested = self.span_parent[idx], root_id is None, False
            while parent >= 0:
                pid = self.span_name[parent]
                nested = nested or pid in part_ids
                inside = inside or pid == root_id
                parent = self.span_parent[parent]
            if inside and not nested:
                total += self.span_dur[idx]
        return total
