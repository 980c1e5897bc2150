"""Outside-in tracer for the traced benchmark run.

It wraps a declared list of boundary functions per genmeans layer and rebinds
every ``genmeans.*`` module attribute that refers to one of them, so calls
made from inside the package are seen as well; nothing under ``src/`` is
edited.  Leaf helpers (``binom``, ``row_abs_sum``, ``check_params``, ...) stay
unwrapped: they are called so often that wrapping them would distort the
times.  A declared function that the package no longer has is recorded in
``absent`` instead of failing.

Spans are kept in memory as (job, id, parent, layer, name, start, end,
child time); a span's self time is its duration minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

BOUNDARIES = {
    "triangle": ("compose", "apply", "window_apply", "invert_triangle",
                 "toeplitz_inverse_coeffs"),
    "operators": ("preset", "transform", "inverse_transform", "space_norm",
                  "weighted_mean_matrix", "weighted_mean_inverse", "difference_matrix",
                  "difference_inverse", "mean_difference_matrix", "mean_difference_inverse"),
    "duality": ("associate_row", "tail_sum_matrix", "basis_vector", "reconstruct",
                "alpha_dual_matrix", "gamma_dual_matrix", "dual_membership"),
    "limits": ("extended_rows", "analyze_tail", "sup_of_rows", "limit_of_rows",
               "limsup_of_rows", "column_limits", "subset_column_sup"),
    "conditions": ("classify_map", "eval_condition", "transformed_rows", "tail_sum_family"),
    "compactness": ("associate_matrix", "operator_norm", "chi_norm", "compactness_verdict"),
    "serialize": ("scalar_from_json", "canonical_number_from_json", "sequence_from_json",
                  "matrix_from_json", "params_from_json", "make_report", "sequence_to_csv"),
    "cli": ("main",),
}
LAYERS = tuple(BOUNDARIES)

# the public cached constructors whose cache misses count as matrix builds
CACHED_CONSTRUCTORS = ("weighted_mean_matrix", "weighted_mean_inverse", "difference_matrix",
                       "difference_inverse", "mean_difference_matrix",
                       "mean_difference_inverse")
ESTIMATORS = ("sup_of_rows", "limit_of_rows", "limsup_of_rows", "column_limits",
              "subset_column_sup")


def _toeplitz_count(args, kwargs, result):
    return kwargs["count"] if "count" in kwargs else args[1]


def _row_count(args, kwargs, result):
    return len(result)


def _decisive(args, kwargs, result):
    return int(getattr(result, "status", None) in ("exact", "trend-converged"))


# per-function measures added to the job's counters as "<name>:<measure>"
MEASURES = {
    "toeplitz_inverse_coeffs": ("coeffs", _toeplitz_count),
    "extended_rows": ("rows", _row_count),
    **{name: ("decisive", _decisive) for name in ESTIMATORS},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = -1
        self.active = False
        self.counts = Counter()      # per job: "<name>" calls and "<name>:<measure>"
        self.absent = []
        self.originals = {}          # function name -> unwrapped function
        self._wrappers = None
        self._patches = []
        self._next_id = 0

    def install(self):
        """Rebind every genmeans reference to a boundary function to its wrapper."""
        if self._wrappers is None:
            self._wrappers = {}
            for layer, names in BOUNDARIES.items():
                module = importlib.import_module(f"genmeans.{layer}")
                for name in names:
                    fn = getattr(module, name, None)
                    if not callable(fn):
                        self.absent.append(f"{layer}.{name}")
                        continue
                    self.originals[name] = fn
                    self._wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
        for modname, module in list(sys.modules.items()):
            if modname != "genmeans" and not modname.startswith("genmeans."):
                continue
            for attr, value in list(vars(module).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def remove(self):
        self.active = False
        for module, attr, value in self._patches:
            setattr(module, attr, value)
        self._patches = []

    def cache_stats(self):
        """(hits, misses) summed over the cached public constructors."""
        hits = misses = 0
        for name in CACHED_CONSTRUCTORS:
            info = getattr(self.originals.get(name), "cache_info", None)
            if info is not None:
                ci = info()
                hits, misses = hits + ci.hits, misses + ci.misses
        return hits, misses

    def _wrap(self, layer, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._next_id += 1
            rec = [self.job, self._next_id, stack[-1][1] if stack else 0, layer, name,
                   clock(), 0.0, 0.0]
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[6] = end = clock()
                stack.pop()
                if stack:
                    stack[-1][7] += end - rec[5]
                spans.append(tuple(rec))
            counts[name] += 1
            if measure is not None:
                counts[f"{name}:{measure[0]}"] += measure[1](args, kwargs, result)
            return result

        return traced

    def layer_totals(self):
        """{layer: [self seconds, calls]} plus the root spans' total duration."""
        totals = {layer: [0.0, 0] for layer in LAYERS}
        root = 0.0
        for _job, _sid, parent, layer, _name, start, end, child in self.spans:
            totals[layer][0] += end - start - child
            totals[layer][1] += 1
            if parent == 0:
                root += end - start
        return totals, root
