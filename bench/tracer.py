"""Spans and counts at the layer boundaries of the program.

The tracer wraps the public functions of each module from the outside;
the program itself is not changed.  A wrapper is installed in every
module namespace that holds the original object, since callers look
names up in their own namespace (``dynamics`` imports ``legendre_map``
by name, ``cli`` imports ``build_system`` by name).

Spans are kept in memory as ``[name, start, end, parent]`` records for
one pass at a time; at the end of a pass they are reduced to per-layer
self times (a span's duration minus the time its child spans cover) and
cleared.  Recursive functions (``simplify``, ``diff``) get one span per
outermost call.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from time import perf_counter

import numpy as np

def _count_evaluate(counts, record, args, kwargs, result):
    bindings = args[1] if len(args) > 1 else kwargs["bindings"]
    arrays = [v.size for v in bindings.values() if type(v) is np.ndarray]
    if isinstance(result, np.ndarray) or arrays:
        record[0] = "expressions.evaluate_array_s"
        counts["expressions.evaluate_array_calls"] += 1
        counts["expressions.evaluate_array_points"] += max(arrays + [np.size(result)])
    else:
        record[0] = "expressions.evaluate_scalar_s"
        counts["expressions.evaluate_scalar_calls"] += 1


def _count_steps(counts, record, args, kwargs, result):
    counts["dynamics.steps_accepted"] += result.meta["steps"]
    counts["dynamics.steps_rejected"] += result.meta["rejected"]


def _count_fd(counts, record, args, kwargs, result):
    counts["dynamics.fd_derivative_calls"] += 1
    counts["dynamics.fd_points"] += np.size(args[0] if args else kwargs["grid"])


def _count_quad(counts, record, args, kwargs, result):
    """Simpson nodes asked for: (2 * panels + 1) on each smooth segment."""
    counts["variational.discrete_action_calls"] += 1
    path = args[1] if len(args) > 1 else kwargs["path"]
    panels = args[3] if len(args) > 3 else kwargs.get("quad_points", 512)
    lo, hi = path.interval
    cuts = [p for p in getattr(path, "breakpoints", ()) if lo < p < hi]
    counts["variational.quad_nodes"] += (len(cuts) + 1) * (2 * panels + 1)


# (module, attribute, span name, counter); attributes with a dot are
# methods.  A span name of None records a call count only.  The counter
# is a metric name, counted once per outermost call, or a hook that
# reads the call's arguments and result.
TARGETS = [
    ("expressions", "parse", "expressions.parse_s", None),
    ("expressions", "simplify", "expressions.simplify_s",
     "expressions.simplify_calls"),
    ("expressions", "diff", "expressions.diff_s", None),
    ("expressions", "total_derivative", "expressions.total_derivative_s", None),
    ("expressions", "to_text", "expressions.to_text_s", None),
    ("expressions", "Expression.evaluate", "expressions.evaluate",
     _count_evaluate),
    ("systems", "build_system", "systems.build_system_s", None),
    ("systems", "jet_bindings", None, "systems.bindings_calls"),
    ("systems", "unified_bindings", None, "systems.bindings_calls"),
    ("legendre", "derive", "legendre.derive_s", None),
    ("legendre", "hessian_det_expr", "legendre.hessian_det_expr_s", None),
    ("legendre", "regularity_report", "legendre.regularity_report_s", None),
    ("legendre", "DerivedSystem.acceleration", "legendre.acceleration_s",
     "legendre.acceleration_calls"),
    ("legendre", "legendre_map", None, "legendre.legendre_map_calls"),
    ("dynamics", "integrate", "dynamics.integrate_s", _count_steps),
    ("dynamics", "integrate_unified", "dynamics.integrate_s", _count_steps),
    ("dynamics", "fd_derivative", "dynamics.fd_derivative_s", _count_fd),
    ("dynamics", "verify_trajectory", "dynamics.verify_trajectory_s", None),
    ("dynamics", "energy_series", "dynamics.energy_series_s", None),
    ("dynamics", "load_trajectory_csv", "dynamics.load_trajectory_csv_s", None),
    ("unified", "solve_unified_vf", "unified.solve_unified_vf_s",
     "unified.solve_unified_vf_calls"),
    ("unified", "explicit_semispray", "unified.explicit_semispray_s", None),
    ("unified", "kernel_check", "unified.kernel_check_s", None),
    ("unified", "constraint_residuals", "unified.constraint_residuals_s", None),
    ("variational", "discrete_action", "variational.discrete_action_s",
     _count_quad),
    ("variational", "action_derivative", "variational.action_derivative_s",
     None),
    ("variational", "stationarity_check", "variational.stationarity_check_s",
     None),
    ("cli", "main", "cli.main_s", None),
]

# every per-layer metric, with its unit; counts are per pass and repeat
# exactly, times are self times per pass
METRICS = {
    "expressions.parse_s": "s",
    "expressions.simplify_s": "s",
    "expressions.simplify_calls": "count",
    "expressions.diff_s": "s",
    "expressions.total_derivative_s": "s",
    "expressions.to_text_s": "s",
    "expressions.evaluate_scalar_calls": "count",
    "expressions.evaluate_scalar_s": "s",
    "expressions.evaluate_array_calls": "count",
    "expressions.evaluate_array_points": "count",
    "expressions.evaluate_array_s": "s",
    "systems.build_system_s": "s",
    "systems.bindings_calls": "count",
    "legendre.derive_s": "s",
    "legendre.hessian_det_expr_s": "s",
    "legendre.regularity_report_s": "s",
    "legendre.acceleration_calls": "count",
    "legendre.acceleration_s": "s",
    "legendre.legendre_map_calls": "count",
    "dynamics.integrate_s": "s",
    "dynamics.steps_accepted": "count",
    "dynamics.steps_rejected": "count",
    "dynamics.fd_derivative_calls": "count",
    "dynamics.fd_points": "count",
    "dynamics.fd_derivative_s": "s",
    "dynamics.verify_trajectory_s": "s",
    "dynamics.energy_series_s": "s",
    "dynamics.load_trajectory_csv_s": "s",
    "unified.solve_unified_vf_calls": "count",
    "unified.solve_unified_vf_s": "s",
    "unified.explicit_semispray_s": "s",
    "unified.kernel_check_s": "s",
    "unified.constraint_residuals_s": "s",
    "variational.discrete_action_calls": "count",
    "variational.quad_nodes": "count",
    "variational.discrete_action_s": "s",
    "variational.action_derivative_s": "s",
    "variational.stationarity_check_s": "s",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "cli.output_bytes": "bytes",
}


class Tracer:
    """Spans and counts of the passes run while the wrappers are installed."""

    def __init__(self):
        self.spans = []
        self.current = -1
        self.active = Counter()
        self.counts = Counter()
        self._restore = []

    def _wrap(self, fn, span, counter):
        tracer = self

        if span is None:
            def count_only(*args, **kwargs):
                tracer.counts[counter] += 1
                return fn(*args, **kwargs)
            return count_only

        def wrapper(*args, **kwargs):
            if tracer.active[span]:
                return fn(*args, **kwargs)
            spans = tracer.spans
            parent = tracer.current
            record = [span, perf_counter(), 0.0, parent]
            tracer.current = len(spans)
            spans.append(record)
            tracer.active[span] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                tracer.current = parent
                tracer.active[span] -= 1
            if callable(counter):
                counter(tracer.counts, record, args, kwargs, result)
            elif counter is not None:
                tracer.counts[counter] += 1
            return result
        return wrapper

    def install(self):
        """Install every wrapper; returns self."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "ostromech" or name.startswith("ostromech.")]
        for module_name, attr, span, counter in TARGETS:
            module = importlib.import_module(f"ostromech.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self._wrap(original, span, counter))
                self._restore.append((cls, method, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, span, counter)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._restore.append((mod, name, original))
        return self

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- reduction ----------------------------------------------------------

    def end_pass(self):
        """Self times and counts of the pass just run; clears the spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        totals = Counter()
        for (name, start, end, _), covered in zip(spans, child):
            totals[name] += (end - start) - covered
        totals.update(self.counts)
        spans.clear()
        self.counts = Counter()
        return totals
