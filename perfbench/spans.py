"""Spans around the calls that cross a module boundary, recorded from outside.

:class:`Tracer` replaces selected module attributes (and two class methods)
with wrappers that record a span per call: name, start, end, the index of
the enclosing span, and the operation it belongs to.  Spans stay in memory
until :meth:`Tracer.write`.  The library itself is not edited: a module
that looks a name up in its own globals at call time (``physical`` calling
``sparse_nullspace``, ``propagator`` importing ``oscillators.gram`` inside
a function) finds the wrapper while it is installed.

:meth:`Tracer.layer_metrics` turns the spans of one operation into the
per-layer metrics listed in README.md.  A span's self time is its duration minus the
durations of its child spans; calls are sequential, so children never
overlap.  Time spent computing counters is taken out of every enclosing
span.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

from stringfock import basis, fields, oscillators, physical, propagator, stringcone, virasoro


def _nbytes(*arrays):
    return sum(a.nbytes for a in arrays)


def _matrix_stats(matrix):
    """Nonzeros and connected components of a dense symmetric matrix's graph."""
    n = len(matrix)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    nnz = 0
    for i, row in enumerate(matrix):
        for j, x in enumerate(row):
            if x:
                nnz += 1
                if j > i:
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[ri] = rj
    sizes = defaultdict(int)
    for i in range(n):
        sizes[find(i)] += 1
    return nnz, len(sizes), max(sizes.values(), default=0)


# (owner, attribute, span name, counters(args, result) -> dict or None)
BOUNDARIES = [
    # the benchmark's own calls into each module
    (basis, "enumerate_basis", "basis.enumerate", lambda a, r: {"states": r.dim}),
    (oscillators, "ccr_residual_entries", "oscillators.ccr", None),
    (virasoro, "virasoro_bracket_residual", "virasoro.bracket", None),
    (virasoro, "fit_central_coefficient", "virasoro.central_fit", None),
    (physical, "noghost_report", "physical.solve", None),
    (physical, "ghost_probe", "physical.solve", None),
    (propagator, "locality_scan", "propagator.locality_scan", None),
    (fields, "field_ccr_report", "fields.ccr_report", None),
    (stringcone, "solve", "stringcone.solve",
     lambda a, r: {"steps": len(r[0].times), "grid_points": r[0].final_field.size}),
    # names physical looks up from basis, virasoro, _exact and oscillators
    (physical, "enumerate_basis", "basis.enumerate", lambda a, r: {"states": r.dim}),
    (physical, "apply_constraint_operator", "virasoro.constraint_apply", None),
    (physical, "sparse_nullspace", "exact.nullspace",
     lambda a, r: {"rows": len(a[0]), "cols": a[1]}),
    (physical, "restrict_quadratic_form", "exact.restrict", lambda a, r: {"dim": len(a[1])}),
    (physical, "signature_symmetric", "exact.signature",
     lambda a, r: dict(zip(("dim", "radical", "nnz", "blocks", "block_max"),
                           (len(a[0]), r[1], *_matrix_stats(a[0]))))),
    (physical, "gram", "oscillators.gram", None),
    # names fields looks up from itself, propagator and oscillators
    (fields, "pi_plus", "fields.pi_plus", None),
    (fields.MultiStringSpace, "__init__", "fields.multistring",
     lambda a, r: {"dim": a[0].dim}),
    (fields.MultiStringSpace, "commutator_scalar", "fields.multistring", None),
    (fields.MultiStringSpace, "hermiticity_defect", "fields.multistring", None),
    (fields, "smeared_commutator", "propagator.smeared_commutator", None),
    (fields, "gram", "oscillators.gram", None),
    # propagator imports oscillators.gram inside its functions
    (oscillators, "gram", "oscillators.gram", None),
    # the stencil and the per-step diagnostics stringcone.solve calls
    (stringcone.ConeStencil, "apply", "stringcone.apply",
     lambda a, r: {"bytes": _nbytes(a[1], r)}),
    (stringcone, "cone_leakage", "stringcone.diagnostics",
     lambda a, r: {"bytes": _nbytes(a[0], a[1])}),
    (stringcone, "weighted_energy", "stringcone.diagnostics",
     lambda a, r: {"bytes": _nbytes(a[1], a[2], a[3])}),
]


LAYER_METRICS = [
    ("basis.enumerate_s", "s"), ("basis.states", "count"),
    ("oscillators.ccr_s", "s"), ("oscillators.ccr_calls", "count"),
    ("oscillators.gram_s", "s"), ("oscillators.gram_calls", "count"),
    ("virasoro.bracket_s", "s"), ("virasoro.bracket_pairs", "count"),
    ("virasoro.central_fit_s", "s"),
    ("virasoro.constraint_apply_s", "s"), ("virasoro.constraint_apply_calls", "count"),
    ("physical.solve_s", "s"), ("physical.slice_dim", "count"),
    ("physical.hprime_dim", "count"), ("physical.radical_dim", "count"),
    ("exact.signature_s", "s"), ("exact.signature_dim", "count"),
    ("exact.signature_nnz", "count"), ("exact.signature_blocks", "count"),
    ("exact.signature_block_max", "count"),
    ("exact.nullspace_s", "s"), ("exact.nullspace_rows", "count"), ("exact.restrict_s", "s"),
    ("propagator.locality_scan_s", "s"), ("propagator.smeared_commutator_s", "s"),
    ("fields.pi_plus_s", "s"), ("fields.pi_plus_calls", "count"),
    ("fields.multistring_s", "s"), ("fields.multistring_dim", "count"),
    ("stringcone.solve_s", "s"), ("stringcone.apply_s", "s"),
    ("stringcone.apply_calls", "count"), ("stringcone.diagnostics_s", "s"),
    ("stringcone.steps", "count"), ("stringcone.grid_points", "count"),
    ("stringcone.bytes_moved", "B"),
]


class Tracer:
    """In-memory span recorder; ``op`` labels the spans of the current operation.

    Counters are computed as soon as a call returns; the time they take is
    recorded as ``excluded`` on every enclosing span, so no span is charged
    for the tracer's own bookkeeping.
    """

    def __init__(self):
        # [name, start, end, parent index or -1, op, counters, excluded seconds]
        self.spans = []
        self.op = "setup"
        self._stack = []
        self._saved = []
        self._t0 = time.perf_counter()

    def _wrap(self, fn, name, counters):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counters is not None:
                t = time.perf_counter()
                span[5] = counters(args, result)
                spent = time.perf_counter() - t
                for i in stack:
                    spans[i][6] += spent
            return result
        return traced

    def install(self):
        if self._saved:
            return
        for owner, attr, name, counters in BOUNDARIES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counters))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self):
        own = [end - start - excluded for _, start, end, _, _, _, excluded in self.spans]
        out = list(own)
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                out[span[3]] -= own[i]
        return out

    def layer_metrics(self, ops):
        """Per-layer metrics of each operation in ``ops``, set-up spans included.

        Set-up spans are added to every operation, since the basis is built in
        set-up on some workloads and inside the operation on others.  Returns
        one dict per operation, keyed by the names in LAYER_METRICS.
        """
        self_s = self.self_times()
        per_op = []
        for op in ops:
            time_s = defaultdict(float)
            calls = defaultdict(int)
            sums = defaultdict(int)
            maxima = defaultdict(int)
            largest = dict.fromkeys(("dim", "radical", "nnz", "blocks", "block_max"), 0)
            for i, (name, _, _, _, span_op, counters, _) in enumerate(self.spans):
                if span_op != op and span_op != "setup":
                    continue
                time_s[name] += self_s[i]
                calls[name] += 1
                for key, val in (counters or {}).items():
                    sums[name, key] += val
                    maxima[name, key] = max(maxima[name, key], val)
                if name == "exact.signature" and counters["dim"] > largest["dim"]:
                    largest = counters
            per_op.append({
                "basis.enumerate_s": time_s["basis.enumerate"],
                "basis.states": sums["basis.enumerate", "states"],
                "oscillators.ccr_s": time_s["oscillators.ccr"],
                "oscillators.ccr_calls": calls["oscillators.ccr"],
                "oscillators.gram_s": time_s["oscillators.gram"],
                "oscillators.gram_calls": calls["oscillators.gram"],
                "virasoro.bracket_s": time_s["virasoro.bracket"],
                "virasoro.bracket_pairs": calls["virasoro.bracket"],
                "virasoro.central_fit_s": time_s["virasoro.central_fit"],
                "virasoro.constraint_apply_s": time_s["virasoro.constraint_apply"],
                "virasoro.constraint_apply_calls": calls["virasoro.constraint_apply"],
                "physical.solve_s": time_s["physical.solve"],
                "physical.slice_dim": maxima["exact.nullspace", "cols"],
                "physical.hprime_dim": maxima["exact.restrict", "dim"],
                "physical.radical_dim": largest["radical"],
                "exact.signature_s": time_s["exact.signature"],
                "exact.signature_dim": largest["dim"],
                "exact.signature_nnz": largest["nnz"],
                "exact.signature_blocks": largest["blocks"],
                "exact.signature_block_max": largest["block_max"],
                "exact.nullspace_s": time_s["exact.nullspace"],
                "exact.nullspace_rows": sums["exact.nullspace", "rows"],
                "exact.restrict_s": time_s["exact.restrict"],
                "propagator.locality_scan_s": time_s["propagator.locality_scan"],
                "propagator.smeared_commutator_s": time_s["propagator.smeared_commutator"],
                "fields.pi_plus_s": time_s["fields.pi_plus"],
                "fields.pi_plus_calls": calls["fields.pi_plus"],
                "fields.multistring_s": time_s["fields.multistring"],
                "fields.multistring_dim": maxima["fields.multistring", "dim"],
                "stringcone.solve_s": time_s["stringcone.solve"],
                "stringcone.apply_s": time_s["stringcone.apply"],
                "stringcone.apply_calls": calls["stringcone.apply"],
                "stringcone.diagnostics_s": time_s["stringcone.diagnostics"],
                "stringcone.steps": sums["stringcone.solve", "steps"],
                "stringcone.grid_points": maxima["stringcone.solve", "grid_points"],
                "stringcone.bytes_moved": (sums["stringcone.apply", "bytes"]
                                           + sums["stringcone.diagnostics", "bytes"]),
            })
        return per_op

    def write(self, path, meta):
        rows = [[name, round(start - self._t0, 9), round(end - self._t0, 9), parent, op]
                for name, start, end, parent, op, _, _ in self.spans]
        with open(path, "w") as fh:
            json.dump({**meta, "fields": ["name", "start_s", "end_s", "parent", "op"],
                       "spans": rows}, fh, separators=(",", ":"))
