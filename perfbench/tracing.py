"""Spans around the public functions of each defring module, from outside.

A traced pass rebinds each function listed in LAYERS, in every defring
module that holds it by name, to a wrapper that records a span: name, start,
end, parent span and operation id, plus counts computed from the arguments
and the result after the span has ended.  Modules outside `defring.kernels`
that imported a name (`from .cohomology import h1_dim`) are rebound too, so
`certify.verify_certificate` reaching `h1_dim` is caught.  The kernel
backends (`defring.kernels._fallback`, `_speedups`) are left alone: callers
reach them through the `defring.kernels` namespace, and `rank_modp` calling
`rref_modp` inside a backend counts as `rank_modp` time only.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np


def _matmul_counts(args, kwargs, result):
    a, b = np.shape(args[0]), np.shape(args[1])
    return {"kernels.table_matmul_lookups": a[0] * a[1] * a[2] * b[2]}


def _entries(args, kwargs, result):
    shape = np.shape(args[0])
    return {"kernels.rank_modp_entries": shape[0] * shape[1]}


def _lift_counts(args, kwargs, result):
    rho_bar, A = args[0], args[1]
    gens = kwargs.get("gens") or (args[2] if len(args) > 2 else None)
    if gens is None:
        gens = result[0].generators if result else rho_bar.group.small_generating_set()
    d = rho_bar.degree
    return {
        "oracle.search_space": (A.size // A.p) ** (d * d * len(gens)),
        "oracle.lifts": len(result),
    }


def _ring_size(args, kwargs, result):
    return {"localalg.ring_R_size": result.size}


def _pairs(args, kwargs, result):
    return {"certify.build_rho_R_pairs": args[0].gamma.order ** 2}


def _gamma_order(args, kwargs, result):
    return {"groups.gamma_order": result.order}


def _d2_entries(args, kwargs, result):
    return {"cohomology.d2_entries": result.shape[0] * result.shape[1]}


# (module, attribute, span name, counts).  `<span name>_s` is the layer's self
# time per pass; `counts` maps a call to {count metric: value}, summed per pass.
LAYERS = [
    ("defring.kernels", "table_matmul", "kernels.table_matmul", _matmul_counts),
    ("defring.kernels", "rank_modp", "kernels.rank_modp", _entries),
    ("defring.kernels", "rref_modp", "kernels.rref_modp", None),
    ("defring.oracle", "enumerate_lifts", "oracle.enumerate_lifts", _lift_counts),
    ("defring.oracle", "_assert_full_table", "oracle.full_table_check", None),
    ("defring.oracle", "deformation_classes", "oracle.deformation_classes", None),
    ("defring.localalg", "make_ring_R", "localalg.make_ring_R", _ring_size),
    ("defring.certify", "assemble", "certify.assemble", None),
    ("defring.certify", "find_alpha", "certify.find_alpha", None),
    ("defring.certify", "build_rho_R", "certify.build_rho_R", _pairs),
    ("defring.certify", "verify_certificate", "certify.verify_certificate", None),
    ("defring.groups", "semidirect_product", "groups.semidirect_product", _gamma_order),
    ("defring.modrep", "end_rep", "modrep.end_rep", None),
    ("defring.modrep", "hom_space", "modrep.hom_space", None),
    ("defring.exactalg", "solve_module", "exactalg.solve_module", None),
    ("defring.cohomology", "h1_dim", "cohomology.h1_dim", None),
    ("defring.cohomology", "h2_dim", "cohomology.h2_dim", None),
    ("defring.cohomology", "BarComplex.d2_matrix", "cohomology.d2_assembly", _d2_entries),
]

# Spans that must fire at least once on a workload: the layers the workload
# was designed to load.  A rebinding that misses its callers fails here
# instead of reporting a zero.
EXPECTED = {
    "battery": [
        "certify.assemble", "certify.find_alpha", "certify.build_rho_R",
        "certify.verify_certificate", "groups.semidirect_product", "modrep.end_rep",
        "modrep.hom_space", "exactalg.solve_module", "cohomology.h1_dim",
        "kernels.rank_modp", "kernels.rref_modp", "localalg.make_ring_R",
    ],
    "oracle": [
        "kernels.table_matmul", "oracle.enumerate_lifts", "oracle.full_table_check",
        "oracle.deformation_classes",
    ],
    "precision": [
        "localalg.make_ring_R", "certify.assemble", "certify.build_rho_R",
        "certify.verify_certificate", "exactalg.solve_module",
    ],
    "cohomology": ["cohomology.h2_dim", "cohomology.d2_assembly", "kernels.rank_modp"],
}

SPAN_METRICS = [name for _, _, name, _ in LAYERS]
CALL_METRICS = [
    "kernels.table_matmul", "kernels.rank_modp", "kernels.rref_modp",
    "modrep.end_rep", "exactalg.solve_module",
]
COUNT_METRICS = [
    "kernels.table_matmul_lookups", "kernels.rank_modp_entries", "oracle.search_space",
    "oracle.lifts", "localalg.ring_R_size", "certify.build_rho_R_pairs",
    "groups.gamma_order", "cohomology.d2_entries",
]


class Tracer:
    """In-memory span recorder.  A span is the list
    [id, name, start, end, parent id, operation id, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: str | None = None
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def wrap(self, name: str, fn, counts=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            if counts is not None:
                rec[6] = counts(args, kwargs, result)
            return result

        return traced

    def span(self, name: str, op_id: str, fn, *args):
        """Run fn(*args) as the top-level span of one operation."""
        self.op = op_id
        try:
            return self.wrap(name, fn)(*args)
        finally:
            self.op = None

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Rebind every LAYERS function wherever a defring module holds it."""
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None
            and (name == "defring" or name.startswith("defring."))
            and not name.startswith("defring.kernels.")
        ]
        for modname, attr, span_name, counts in LAYERS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._installed.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(span_name, orig, counts))
                continue
            orig = getattr(owner, attr)
            wrapped = self.wrap(span_name, orig, counts)
            for m in modules:
                if m.__dict__.get(attr) is orig:
                    self._installed.append((m, attr, orig))
                    setattr(m, attr, wrapped)

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._installed):
            setattr(target, attr, orig)
        self._installed.clear()


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    own = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        if s[4] is not None:
            own[s[4]] -= s[3] - s[2]
    return own


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer self times, call counts and work counts of one pass."""
    own = self_times(spans)
    out: dict[str, float] = {f"{name}_s": 0.0 for name in SPAN_METRICS}
    calls = {name: 0 for name in SPAN_METRICS}
    out.update({metric: 0 for metric in COUNT_METRICS})
    for s in spans:
        name = s[1]
        if name not in calls:  # the benchmark's own operation spans
            continue
        out[f"{name}_s"] += own[s[0]]
        calls[name] += 1
        for metric, value in (s[6] or {}).items():
            out[metric] += value
    for name in CALL_METRICS:
        out[f"{name}_calls"] = calls[name]
    space = out["oracle.search_space"]
    out["oracle.survivor_ratio"] = out["oracle.lifts"] / space if space else 0.0
    return out
