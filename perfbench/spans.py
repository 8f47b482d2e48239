"""Span tracing of quadpres from outside the package.

The tracer wraps the public functions of every layer (module) of quadpres,
records one span per call in memory -- name, start, end, parent span, op id --
and turns the spans into per-layer metrics.  Nothing inside the package is
edited: module-level functions are replaced in every quadpres module namespace
that holds them (``from .x import name`` copies the binding, so
``cli.check_hyperfield`` and ``presentable.check_hyperfield`` are patched as
well as ``hyperfields.check_hyperfield``), and methods are replaced on their
class, so calls a method makes through ``self`` are caught too.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from math import comb
from time import perf_counter

LAYERS = (
    "finitefield",
    "hyperfields",
    "presentable",
    "posets",
    "quadratic",
    "oracle",
    "documents",
    "cli",
)

# (module, attribute path) of every wrapped public function.  A dotted path
# names a method; FiniteField is timed through its __init__.
WRAPPED = (
    ("finitefield", "FiniteField"),
    ("finitefield", "square_classes"),
    ("hyperfields", "from_field"),
    ("hyperfields", "quotient_by_subgroup"),
    ("hyperfields", "prime_hyperfield"),
    ("hyperfields", "quadratic_hyperfield"),
    ("hyperfields", "check_hyperfield"),
    ("hyperfields", "hyperfield_isomorphic"),
    ("presentable", "quotient_mod_multiplicative_set"),
    ("presentable", "squares_pipeline"),
    ("presentable", "powerset_of_hyperfield"),
    ("presentable", "check_presentable"),
    ("posets", "check_presentable"),
    ("quadratic", "witt_ring"),
    ("quadratic", "check_quadratic"),
    ("quadratic", "ring_isomorphic"),
    ("quadratic", "IsometryContext.isometric"),
    ("quadratic", "IsometryContext.split_hyperbolic"),
    ("quadratic", "IsometryContext.anisotropic_entries"),
    ("quadratic", "IsometryContext.witt_equivalent"),
    ("oracle", "classical_witt_ring"),
    ("oracle", "congruence_classes"),
    ("oracle", "classical_isometric"),
    ("documents", "parse_document"),
    ("documents", "emit_hyperfield"),
    ("documents", "emit_presentable"),
    ("documents", "emit_witt_ring"),
    ("cli", "main"),
)

SPAN_NAMES = tuple(f"{mod}.{path}" for mod, path in WRAPPED)

# Work counts computed from call arguments and results: (metric, unit).
WORK_COUNTS = (
    ("finitefield.cells", "count"),
    ("hyperfields.check_hyperfield.triples", "count"),
    ("presentable.check_presentable.carrier", "count"),
    ("quadratic.split_hyperbolic.candidate_bound", "count"),
    ("quadratic.split_hyperbolic.split_ratio", "ratio"),
    ("documents.bytes", "bytes"),
    ("cli.report_bytes", "bytes"),
)

OVERHEAD_METRIC = ("tracing.throughput_ratio", "ratio")


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
    units.update(WORK_COUNTS)
    units[OVERHEAD_METRIC[0]] = OVERHEAD_METRIC[1]
    return units


def _form_dim(entries):
    return len(getattr(entries, "entries", entries))


def _out_path(argv):
    argv = list(argv or ())
    return argv[argv.index("--out") + 1] if "--out" in argv[:-1] else None


def _split_bound(args, kwargs, result):
    ctx, entries = args[0], args[1] if len(args) > 1 else kwargs["entries"]
    n, m = _form_dim(entries), len(ctx.nonzero)
    bound = comb(n - 2 + m - 1, m - 1) if n >= 2 else 0
    return {
        "quadratic.split_hyperbolic.candidate_bound": bound,
        "quadratic.split_hyperbolic.splits": int(result is not None),
    }


def _report_bytes(args, kwargs, result):
    """Bytes of the --out report without its wall-clock "timestamp" block,
    the part the CLI promises is identical across runs."""
    path = _out_path(args[0] if args else kwargs.get("argv"))
    if not path or not os.path.exists(path):
        return {}
    with open(path) as fh:
        report = json.load(fh)
    report.pop("timestamp", None)
    return {"cli.report_bytes": len(json.dumps(report, indent=2, sort_keys=True)) + 1}


# span name -> function (args, kwargs, result) -> {work count: amount}
_COUNTERS = {
    "finitefield.FiniteField": lambda a, k, r: {"finitefield.cells": a[0].q ** 2},
    "hyperfields.check_hyperfield": lambda a, k, r: {
        "hyperfields.check_hyperfield.triples": a[0].size ** 3
    },
    "presentable.check_presentable": lambda a, k, r: {
        "presentable.check_presentable.carrier": a[0].n
    },
    "quadratic.IsometryContext.split_hyperbolic": _split_bound,
    "documents.parse_document": lambda a, k, r: {"documents.bytes": len(a[0])},
    "documents.emit_hyperfield": lambda a, k, r: {"documents.bytes": len(r)},
    "documents.emit_presentable": lambda a, k, r: {"documents.bytes": len(r)},
    "documents.emit_witt_ring": lambda a, k, r: {"documents.bytes": len(r)},
    "cli.main": _report_bytes,
}


class Tracer:
    """Records spans while installed and ``active``; restores on exit.

    Use as a context manager around the traced pass.  Set ``op_id`` before
    each op; set ``active`` False around work that must not be traced, such
    as computing reference verdicts.
    """

    def __init__(self, qp):
        self.qp = qp  # namespace: package, and one module per layer
        self.spans = []  # (name, start, end, parent index or -1, op id)
        self.work = {}
        self.op_id = -1
        self.active = False
        self._stack = []
        self._undo = []

    # -- installation ------------------------------------------------------

    def __enter__(self):
        for mod_name, path in WRAPPED:
            mod = getattr(self.qp, mod_name)
            name = f"{mod_name}.{path}"
            if "." in path:
                cls_name, meth = path.split(".")
                self._patch(getattr(mod, cls_name), meth, name)
            elif isinstance(getattr(mod, path), type):
                self._patch(getattr(mod, path), "__init__", name)
            else:
                orig = getattr(mod, path)
                wrapper = self._wrap(name, orig)
                for other in self._package_modules():
                    for attr, value in list(vars(other).items()):
                        if value is orig:
                            self._undo.append((other, attr, orig))
                            setattr(other, attr, wrapper)
        self.active = True
        return self

    def __exit__(self, *exc):
        self.active = False
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()
        return False

    def _package_modules(self):
        pkg = self.qp.package.__name__
        return [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == pkg or n.startswith(pkg + "."))
        ]

    def _patch(self, owner, attr, name):
        orig = owner.__dict__[attr]
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, self._wrap(name, orig))

    def _wrap(self, name, fn):
        spans, stack, counter = self.spans, self._stack, _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    self.work[key] = self.work.get(key, 0) + amount
            return result

        return wrapper

    # -- results -----------------------------------------------------------

    def metrics(self, wall_s):
        """Per-layer metrics from the recorded spans; ``wall_s`` is the traced
        ops' summed wall time, the base of every share."""
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        calls = dict.fromkeys(SPAN_NAMES, 0)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.calls"] = calls[name]
        for layer in LAYERS:
            total = sum(v for n, v in self_s.items() if n.split(".", 1)[0] == layer)
            out[f"{layer}.self_s"] = total
            out[f"{layer}.share"] = total / wall_s if wall_s > 0 else 0.0
        split_calls = calls["quadratic.IsometryContext.split_hyperbolic"]
        for key, _ in WORK_COUNTS:
            out[key] = self.work.get(key, 0)
        out["quadratic.split_hyperbolic.split_ratio"] = (
            self.work.get("quadratic.split_hyperbolic.splits", 0) / split_calls
            if split_calls else 0.0
        )
        return out

    def write(self, path):
        """Write the spans as tab-separated lines: op, name, start, end, parent."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("op\tspan\tname\tstart_s\tend_s\tparent\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{op}\t{i}\t{name}\t{start - t0:.9f}\t{end - t0:.9f}\t{parent}\n")
