"""Spans and work counters around detlab's public calls.

`Tracer.install()` rebinds, for the duration of one traced sample:

* every public function defined in a layer module, and every copy of it
  that another detlab module took with `from .x import y` (callers use
  those copies, so wrapping only the defining module would miss them);
* the instance methods listed in `METHODS`;
* `config.Budget.tick`, to count work by its `what` label.

Spans are aggregated in memory as they close: calls, inclusive seconds and
self seconds per span name.  A span's self time is its duration minus the
time covered by the spans it caused; the time of unwrapped helpers goes to
the nearest enclosing span.  `uninstall()` restores every binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("casebook", "groebner", "syzygy", "structmat", "linalg", "polyring",
          "polar", "hankelplucker", "subhankel", "modp")

# methods that callers reach through instances, not through module names
METHODS = {
    "groebner": {"Ideal": ("groebner_basis", "normal_form")},
    "linalg": {"SparseEliminator": ("add_row", "kernel_basis")},
    "polyring": {"Polynomial": ("__mul__",)},
}

# Budget.tick labels in the program -> per-layer work counts
TICKS = {
    "Buchberger": "groebner.spairs",
    "polynomial reduction": "groebner.reduction_steps",
    "Hilbert series": "groebner.hilbert_steps",
    "Bareiss elimination": "structmat.bareiss_steps",
    "determinant expansion": "structmat.expansion_steps",
    "linear algebra": "linalg.row_reduce_steps",
    "module Buchberger": "syzygy.module_buchberger_steps",
    "module reduction": "syzygy.module_reduction_steps",
    "Fitting minors": "syzygy.fitting_minor_steps",
    "bigraded kernel assembly": "syzygy.kernel_assembly_steps",
}

# metric -> span names; the metric sums the outermost of these calls only,
# so a call nested inside another of its own group is not counted twice
TIMES = {
    "groebner.buchberger_s": ("groebner.groebner_entries",),
    "groebner.colon_s": ("groebner.colon", "groebner.colon_poly"),
    "groebner.intersect_s": ("groebner.intersect",),
    "groebner.eliminate_s": ("groebner.eliminate",),
    "groebner.hilbert_s": ("groebner.hilbert_data",),
    "groebner.normal_form_s": ("groebner.Ideal.normal_form",),
    "structmat.det_s": ("structmat.determinant",),
    "structmat.minors_s": ("structmat.minor", "structmat.minors_ideal_gens"),
    "linalg.elimination_s": ("linalg.SparseEliminator.add_row",
                             "linalg.SparseEliminator.kernel_basis",
                             "linalg.kernel_basis", "linalg.matrix_rank_sparse",
                             "linalg.dense_rank", "linalg.dense_det",
                             "linalg.nonzero_minor_witness"),
    "syzygy.linear_syzygies_s": ("syzygy.linear_syzygies",
                                 "syzygy.syzygy_basis_in_degree"),
    "syzygy.module_syzygies_s": ("syzygy.module_syzygies",
                                 "syzygy.first_syzygy_module",
                                 "syzygy.module_groebner"),
    "syzygy.fitting_s": ("syzygy.fitting_condition_F1",),
    "syzygy.rees_kernel_s": ("syzygy.rees_bigraded_kernel",
                             "syzygy.rees_minimal_bidegree12"),
    "polyring.exact_divide_s": ("polyring.exact_divide",),
    "polyring.parse_s": ("polyring.parse_polynomial",),
    "polyring.format_s": ("polyring.format_polynomial",),
    "polar.verdict_s": ("polar.homaloidal_verdict",),
    "polar.factor_multiplicity_s": ("polar.factor_multiplicity",),
    "polar.linear_type_s": ("polar.linear_type_check",),
    "polar.hessian_status_s": ("polar.hessian_det_status",),
    "casebook.build_s": ("casebook.build",),
}

# metric -> span whose call count it is
CALLS = {
    "groebner.gb_requests": "groebner.Ideal.groebner_basis",
    "groebner.gb_computed": "groebner.groebner_entries",
    "structmat.det_calls": "structmat.determinant",
    "linalg.rows_added": "linalg.SparseEliminator.add_row",
    "polyring.mul_calls": "polyring.Polynomial.__mul__",
    "polyring.exact_divide_calls": "polyring.exact_divide",
    "polyring.parse_calls": "polyring.parse_polynomial",
    "polyring.format_calls": "polyring.format_polynomial",
}

_GB_REQUEST = "groebner.Ideal.groebner_basis"
_GB_COMPUTE = "groebner.groebner_entries"
_ADD_ROW = "linalg.SparseEliminator.add_row"


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.spans: dict[str, list] = {}      # name -> [calls, incl_s, self_s]
        self.edges: dict[tuple, int] = {}     # (parent span, span) -> calls
        self.ticks: dict[str, int] = {}       # Budget.tick label -> steps
        self.group_s = dict.fromkeys(TIMES, 0.0)
        self.cached_serve_s = 0.0             # GB requests that ran no Buchberger
        self.basis_size_max = 0
        self.rows_useful = 0
        self._stack: list = []                # [name, child seconds] per open span
        self._depth = dict.fromkeys(TIMES, 0)
        self._restore: list = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        mods = {layer: importlib.import_module(f"detlab.{layer}") for layer in LAYERS}
        config = importlib.import_module("detlab.config")
        everything = [importlib.import_module("detlab"), config, *mods.values()]
        for sc in mods["casebook"].registry().values():
            self._set(sc, "build", self.wrap("casebook.build", sc.build))
        wrapped = {}
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")
                        and not inspect.isgeneratorfunction(obj)):
                    wrapped[id(obj)] = self.wrap(f"{layer}.{name}", obj)
        for mod in everything:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._set(mod, name, wrapped[id(obj)])
        for layer, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(mods[layer], cls_name)
                for meth in methods:
                    self._set(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}",
                                                   vars(cls)[meth]))
        self._set(config.Budget, "tick", self._counting_tick(vars(config.Budget)["tick"]))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, old = self._restore.pop()
            setattr(owner, name, old)

    def _set(self, owner, name, new) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def _counting_tick(self, tick):
        ticks = self.ticks

        def counted(budget, n=1, what="computation"):
            ticks[what] = ticks.get(what, 0) + n
            return tick(budget, n, what)
        return counted

    # -- spans ---------------------------------------------------------------

    def wrap(self, name: str, fn):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        groups = tuple(g for g, names in TIMES.items() if name in names)
        stack, depth, edges, group_s = self._stack, self._depth, self.edges, self.group_s
        computed = self.spans.setdefault(_GB_COMPUTE, [0, 0.0, 0.0])
        clock = time.perf_counter
        tracer = self
        is_request, is_compute, is_add_row = (
            name == _GB_REQUEST, name == _GB_COMPUTE, name == _ADD_ROW)

        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            key = (parent, name)
            edges[key] = edges.get(key, 0) + 1
            for g in groups:
                depth[g] += 1
            computed_before = computed[0]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                for g in groups:
                    depth[g] -= 1
                    if not depth[g]:
                        group_s[g] += dt
            if is_request and computed[0] == computed_before:
                tracer.cached_serve_s += dt
            elif is_compute:
                tracer.basis_size_max = max(tracer.basis_size_max, len(result))
            elif is_add_row and result:
                tracer.rows_useful += 1
            return result

        return functools.update_wrapper(span, fn)

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far (no cache metrics)."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(s[2] for n, s in self.spans.items()
                                         if n.split(".", 1)[0] == layer)
        for label, metric in TICKS.items():
            out[metric] = self.ticks.get(label, 0)
        out.update(self.group_s)
        for metric, name in CALLS.items():
            out[metric] = self.spans.get(name, [0])[0]
        requests = out["groebner.gb_requests"]
        out["groebner.gb_hit_ratio"] = (
            (requests - out["groebner.gb_computed"]) / requests if requests else 0.0)
        out["groebner.cached_serve_s"] = self.cached_serve_s
        out["groebner.basis_size_max"] = self.basis_size_max
        rows = out["linalg.rows_added"]
        out["linalg.rank_useful_ratio"] = self.rows_useful / rows if rows else 0.0
        return out

    def report(self) -> dict:
        """Full trace: span table, caller edges and every tick label."""
        return {
            "spans": {n: {"calls": c, "incl_s": i, "self_s": s}
                      for n, (c, i, s) in sorted(self.spans.items()) if c},
            "edges": [{"parent": p, "span": n, "calls": c}
                      for (p, n), c in sorted(self.edges.items(), key=str)],
            "ticks": dict(sorted(self.ticks.items())),
        }
