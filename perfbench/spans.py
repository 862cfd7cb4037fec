"""Span tracing around commvar's layer boundaries, from outside the program.

``Tracer.install`` replaces every public function of each layer module, and
``Matrix.__mul__``, with a wrapper that records a span (name, parent, start,
end, a size weight and the refusal code it raised).  Names that other
commvar modules re-bind with ``from .x import y`` are replaced too, so calls
across modules are seen.  ``fields`` gets no spans: its calls are per matrix
entry, so their time shows up as the calling layer's self time.

Spans are kept in flat arrays in memory and aggregated once, at the end of
the traced pass.  A span's self time is its duration minus the durations
of its direct children (spans nest, since the run is single-threaded).
"""
from __future__ import annotations

import inspect
import sys
import time
from array import array

LAYERS = ["polynomials", "matrices", "modules", "cycles", "homs", "quot", "census", "documents", "cli"]

# refusal codes recorded on a span that raised them
REFUSALS = {"GENERICITY_EXHAUSTED": 1, "NOT_SPLIT": 2}

# metric name -> (unit, better); the per-layer metrics a traced run prints.
# Times are reported as shares of the traced wall time (unit frac): a share
# bounds what optimising that span alone can save, and it moves less than
# seconds do when the machine's speed drifts.
PER_LAYER = {}


def _metric(name, unit, better="lower"):
    PER_LAYER[name] = (unit, better)


for _k in ("rref_q", "rref_fp"):
    _metric(f"matrices.{_k}.calls", "count")
    _metric(f"matrices.{_k}.self_share", "frac")
    _metric(f"matrices.{_k}.cells", "count")
for _k in ("det", "char_poly", "matmul"):
    _metric(f"matrices.{_k}.calls", "count")
    _metric(f"matrices.{_k}.self_share", "frac")
for _k in ("kernel_basis", "solve", "inverse"):
    _metric(f"matrices.{_k}.calls", "count")
for _m in ("calls", "assembly_share", "solve_share"):
    _metric(f"homs.hom_basis.{_m}", "count" if _m == "calls" else "frac")
for _m in ("calls", "self_share", "det_calls", "hom_basis_calls"):
    _metric(f"homs.is_isomorphic.{_m}", "frac" if _m == "self_share" else "count")
for _m in ("calls", "assembly_share", "solve_share", "rref_calls"):
    _metric(f"quot.quot_equal.{_m}", "frac" if _m.endswith("_share") else "count")
_metric("quot.is_generating.self_share", "frac")
for _k in ("cycle", "localize"):
    _metric(f"cycles.{_k}.calls", "count")
    _metric(f"cycles.{_k}.self_share", "frac")
_metric("cycles.refused", "count")
_metric("cycles.not_split", "count")
_metric("polynomials.roots.calls", "count")
_metric("polynomials.roots.self_share", "frac")
_metric("census.enumerate.self_share", "frac")
_metric("census.orbit.self_share", "frac")
_metric("census.cycle_calls", "count")
_metric("census.centralizer_solve_share", "frac")
_metric("census.refused_tuples", "count")
_metric("census.tuples", "count", "higher")
for _k in ("validate", "conjugate"):
    _metric(f"modules.{_k}.calls", "count")
    _metric(f"modules.{_k}.self_share", "frac")
_metric("modules.tangent.assembly_share", "frac")
_metric("modules.tangent.solve_share", "frac")
_metric("documents.parse.self_share", "frac")
_metric("cli.run_command.self_share", "frac")
for _layer in LAYERS:
    _metric(f"layer.{_layer}.share", "frac")
_metric("trace.overhead_frac", "frac")


# span names of the functions the metrics above read
SPAN = {
    "rref_q": "matrices.rref_q", "rref_fp": "matrices.rref_fp", "det": "matrices.det",
    "char_poly": "matrices.char_poly", "matmul": "matrices.matmul",
    "kernel_basis": "matrices.kernel_basis", "solve": "matrices.solve", "rank": "matrices.rank",
    "inverse": "matrices.inverse", "commutator": "matrices.commutator",
    "hom_basis": "homs.hom_basis", "is_isomorphic": "homs.is_isomorphic",
    "quot_equal": "quot.quot_equal", "is_generating": "quot.is_generating",
    "cycle": "cycles.cycle", "localize": "cycles.localize",
    "roots": "polynomials.roots_with_multiplicity",
    "enumerate": "census.enumerate_census", "orbit": "census.orbit_census",
    "validate": "modules.validate", "conjugate": "modules.conjugate",
    "tangent": "modules.tangent_space_dim",
    "parse": "documents.parse_document", "run_command": "cli.run_command",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.weight = array("q")
        self.refusal = array("b")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        if name == "matrices.rref":
            # split by field, and weigh each call by the cells it eliminates
            ids = (self._id("matrices.rref_q"), self._id("matrices.rref_fp"))

            def label(args):
                m = args[0]
                return ids[1 if m.field.characteristic else 0], m.rows * m.cols
        else:
            def label(args):
                return nid, 0
        tracer = self
        clock = time.perf_counter_ns
        stack = self._stack

        def traced(*args, **kwargs):
            sid, w = label(args)
            idx = len(tracer.name)
            tracer.name.append(sid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.weight.append(w)
            tracer.refusal.append(0)
            tracer.end.append(0)
            stack.append(idx)
            tracer.start.append(clock())
            try:
                return fn(*args, **kwargs)
            except Exception as e:
                tracer.refusal[idx] = REFUSALS.get(getattr(e, "code", None), 0)
                raise
            finally:
                tracer.end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap the layer functions of the imported commvar package."""
        modules = {n: sys.modules[f"commvar.{n}"] for n in LAYERS}
        originals = {}
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    originals[fn] = self._wrap(fn, f"{layer}.{attr}")
        matrix = modules["matrices"].Matrix
        self._patch(matrix, "__mul__", self._wrap(matrix.__mul__, "matrices.matmul"))
        for name, mod in list(sys.modules.items()):
            if name == "commvar" or name.startswith("commvar."):
                for attr, value in list(vars(mod).items()):
                    if inspect.isfunction(value) and value in originals:
                        self._patch(mod, attr, originals[value])

    def _patch(self, obj, attr, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self._patches):
            setattr(obj, attr, value)
        self._patches.clear()

    # -----------------------------------------------------------------------
    # aggregation

    def aggregate(self, traced_s: float, overhead_frac: float) -> dict[str, float]:
        """Per-layer figures from every span recorded: counts, and times in
        seconds under names ending in ``_s``."""
        names = self.names
        ids = {key: self._ids.get(span, -1) for key, span in SPAN.items()}
        count = len(self.name)
        name, parent, weight, refusal = self.name, self.parent, self.weight, self.refusal
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * count
        for i in range(count):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        calls = [0] * len(names)
        self_ns = [0] * len(names)
        cells = [0] * len(names)
        for i in range(count):
            k = name[i]
            calls[k] += 1
            self_ns[k] += dur[i] - child[i]
            cells[k] += weight[i]

        def has_ancestor(i, target):
            j = parent[i]
            while j >= 0:
                if name[j] == target:
                    return True
                j = parent[j]
            return False

        def parent_is(i, targets):
            return parent[i] >= 0 and name[parent[i]] in targets

        def child_time(of, kids):
            kids = {ids[k] for k in kids}
            return sum(dur[i] for i in range(count) if name[i] in kids and parent_is(i, {ids[of]}))

        def n_of(key):
            return calls[ids[key]] if ids[key] >= 0 else 0

        def self_of(key):
            return self_ns[ids[key]] if ids[key] >= 0 else 0

        def where(key, pred):
            k = ids[key]
            return sum(1 for i in range(count) if name[i] == k and pred(i))

        s = 1e-9
        out: dict[str, float] = {}
        for key in ("rref_q", "rref_fp"):
            out[f"matrices.{key}.calls"] = n_of(key)
            out[f"matrices.{key}.self_s"] = self_of(key) * s
            out[f"matrices.{key}.cells"] = cells[ids[key]] if ids[key] >= 0 else 0
        for key in ("det", "char_poly", "matmul"):
            out[f"matrices.{key}.calls"] = n_of(key)
            out[f"matrices.{key}.self_s"] = self_of(key) * s
        for key in ("kernel_basis", "solve", "inverse"):
            out[f"matrices.{key}.calls"] = n_of(key)

        # system assembly is the span's own work plus the products that build
        # the system; the solve is its elimination children
        def assembly(key, builders):
            return (self_of(key) + child_time(key, builders)) * s

        out["homs.hom_basis.calls"] = n_of("hom_basis")
        out["homs.hom_basis.assembly_s"] = assembly("hom_basis", ["matmul"])
        out["homs.hom_basis.solve_s"] = child_time("hom_basis", ["kernel_basis"]) * s
        iso = ids["is_isomorphic"]
        out["homs.is_isomorphic.calls"] = n_of("is_isomorphic")
        out["homs.is_isomorphic.self_s"] = self_of("is_isomorphic") * s
        out["homs.is_isomorphic.det_calls"] = where("det", lambda i: parent_is(i, {iso}))
        out["homs.is_isomorphic.hom_basis_calls"] = where("hom_basis", lambda i: has_ancestor(i, iso))
        qe = ids["quot_equal"]
        out["quot.quot_equal.calls"] = n_of("quot_equal")
        out["quot.quot_equal.assembly_s"] = assembly("quot_equal", ["matmul"])
        out["quot.quot_equal.solve_s"] = child_time("quot_equal", ["solve", "rank"]) * s
        out["quot.quot_equal.rref_calls"] = (
            where("rref_q", lambda i: has_ancestor(i, qe)) + where("rref_fp", lambda i: has_ancestor(i, qe))
        )
        out["quot.is_generating.self_s"] = self_of("is_generating") * s
        for key in ("cycle", "localize"):
            out[f"cycles.{key}.calls"] = n_of(key)
            out[f"cycles.{key}.self_s"] = self_of(key) * s
        cyc = {ids["cycle"], ids["localize"]}
        out["cycles.refused"] = sum(1 for i in range(count) if name[i] in cyc and refusal[i] == 1)
        out["cycles.not_split"] = sum(1 for i in range(count) if name[i] in cyc and refusal[i] == 2)
        out["polynomials.roots.calls"] = n_of("roots")
        out["polynomials.roots.self_s"] = self_of("roots") * s
        census = {ids["enumerate"], ids["orbit"]}
        out["census.enumerate.self_s"] = self_of("enumerate") * s
        out["census.orbit.self_s"] = self_of("orbit") * s
        out["census.cycle_calls"] = where("cycle", lambda i: parent_is(i, census))
        out["census.centralizer_solve_s"] = s * sum(
            dur[i] for i in range(count) if name[i] == ids["kernel_basis"] and parent_is(i, census)
        )
        out["census.refused_tuples"] = where("cycle", lambda i: parent_is(i, census) and refusal[i] == 1)
        for key in ("validate", "conjugate"):
            out[f"modules.{key}.calls"] = n_of(key)
            out[f"modules.{key}.self_s"] = self_of(key) * s
        out["modules.tangent.assembly_s"] = assembly("tangent", ["commutator", "matmul"])
        out["modules.tangent.solve_s"] = child_time("tangent", ["kernel_basis"]) * s
        out["documents.parse.self_s"] = self_of("parse") * s
        out["cli.run_command.self_s"] = self_of("run_command") * s
        layer_self = {layer: 0 for layer in LAYERS}
        for k, nm in enumerate(names):
            layer_self[nm.split(".")[0]] += self_ns[k]
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = layer_self[layer] * s
        out["trace.wall_s"] = traced_s
        out["trace.overhead_frac"] = overhead_frac
        return out


def shares(figures: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics: each time ``x_s`` as ``x_share`` of the traced
    wall time (``layer.<name>.share`` for a layer's summed self time)."""
    wall = figures["trace.wall_s"]
    out = {}
    for key, value in figures.items():
        if key.startswith("layer."):
            out[key[: -len("self_s")] + "share"] = value / wall
        elif key.endswith("_s") and key != "trace.wall_s":
            out[key[:-2] + "_share"] = value / wall
        elif key != "trace.wall_s":
            out[key] = value
    return out
