"""Spans around calls into the library's layers, recorded from outside it.

While a Tracer is installed, each wrapped function records a span
[name, start, end, parent, job, counts] in memory; ``parent`` is the index of
the enclosing span (or -1) and ``counts`` holds work counts read from the
call's arguments and result. Functions imported by name into another module
are wrapped where they are bound, so that the caller's lookup finds the
wrapper.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from math import factorial
from time import perf_counter


def _check_counts(result, args):
    m = args[0].size
    return {"nodes": result.nodes, "pairs": m * (m - 1) // 2}


def _walk_counts(result, args):
    return {"walked": factorial(args[0].n)}


def _size_counts(result, args):
    return {"members": result.size}


def targets(sp):
    """(module, attribute, span name, count function) for every wrapped call."""
    cli, containment, solver, chains = sp.cli, sp.containment, sp.solver, sp.chains
    lattice, constructions = sp.lattice, sp.constructions
    out = [
        (cli, "main", "cli", None),
        (containment, "contains_subposet", "containment.check", _check_counts),
        (containment, "max_antichain", "containment.antichain", None),
        (chains, "max_antichain", "containment.antichain", None),
        (solver, "la_exact", "solver.solve",
         lambda r, a: {"attempts": r.nodes_explored}),
        (solver, "find_embedding", "solver.embed",
         lambda r, a: {"found": int(r.found)}),
        (chains, "s_minus", "chains.marker", None),
        (chains, "s_plus", "chains.marker", None),
        (lattice, "parse_family", "lattice.parse", _size_counts),
        (lattice, "consecutive_levels", "constructions.build", _size_counts),
    ]
    for fn in ("min_max_partition", "min_r_partition", "minr_maxt_partition",
               "count_pairs_enumerated"):
        out.append((chains, fn, "chains.partition", _walk_counts))
    for fn in ("construct_rt", "construct_rst", "construct_rst_induced"):
        out.append((constructions, fn, "constructions.build", _size_counts))
    return out


class Tracer:
    def __init__(self, sp):
        self.sp = sp
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job: str | None = None

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.job, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span[5] = count(result, args)
                return result
            finally:
                span[2] = perf_counter()
                self.stack.pop()

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, name, count in targets(self.sp):
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn, count))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def summarize(spans):
    """Per span name: calls, total and self seconds, and summed counts;
    per job: the summed counts of each span name."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    layers = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    per_job = defaultdict(lambda: defaultdict(int))
    for i, (name, start, end, _, job, counts) in enumerate(spans):
        agg = layers[name]
        agg["calls"] += 1
        agg["s"] += end - start
        agg["self_s"] += end - start - child[i]
        per_job[job][name + ".calls"] += 1
        for key, value in (counts or {}).items():
            agg[key] = agg.get(key, 0) + value
            per_job[job][f"{name}.{key}"] += value
    return layers, per_job
