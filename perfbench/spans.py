"""In-memory span tracing around dtlab's public functions.

The tracer replaces each named function by a wrapper in every loaded dtlab
module that binds it (``dyson`` imports ``pair_proximity_mass`` by name, the
package root re-exports most functions), so the program's own source is
untouched.  A span has a name, start, end, parent and, for some functions, a
count taken from the call's arguments or result.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


def _eig_count(args, kwargs, result):
    return {"eigs": args[0].shape[0]}


def _pair_count(args, kwargs, result):
    n = len(args[0])
    return {"pairs": n * n}


def _grid_cells(args, kwargs, result):
    grid = args[1]
    return {"cells": grid.nx * grid.ny}


def _mc_draws(args, kwargs, result):
    return {"trials": result.trials, "draws": result.trials + result.resampled}


def _scan_rows(args, kwargs, result):
    return {"rows": len(result), "eps": len(args[4])}


def _products(args, kwargs, result):
    return {"products": result.products_checked}


def _subcommand(args, kwargs, result):
    return {"subcommand": args[0][0]}


#: (module, function, counter) for every traced public function.
TRACED = (
    ("linalg", "eigenvalues", _eig_count),
    ("linalg", "schur", None),
    ("linalg", "lu_logabsdet_stack", None),
    ("linalg", "spectral_radius_bound", None),
    ("measures", "pair_proximity_mass", _pair_count),
    ("measures", "overlap_bound", None),
    ("brown", "perturbed_microstate", None),
    ("brown", "radial_cdf_distance", None),
    ("brown", "brown_logdet_grid", _grid_cells),
    ("ensembles", "sample_dt", None),
    ("ensembles", "sample_ginibre", None),
    ("ensembles", "star_moment_table", None),
    ("ensembles", "freeness_check", _products),
    ("dyson", "log_separation_integral_mc", _mc_draws),
    ("dyson", "separation_integral_lower_bound", None),
    ("dimension", "dimension_scan", _scan_rows),
    ("dimension", "write_scan_csv", None),
    ("cli", "main", _subcommand),
)

LAYERS = ("linalg", "measures", "brown", "ensembles", "dyson", "dimension", "cli")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Install with :meth:`install`, run the traced work, then :meth:`remove`.

    ``on_eigenvalues`` is called with (input, output) of every traced
    ``linalg.eigenvalues`` call, outside any span.
    """

    def __init__(self, on_eigenvalues=None):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self._on_eigenvalues = on_eigenvalues

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, name: str, fn, counter):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(len(tracer.spans), name, stack[-1] if stack else None, 0.0)
            tracer.spans.append(span)
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            if name == "linalg.eigenvalues" and tracer._on_eigenvalues:
                tracer._on_eigenvalues(args[0], result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "dtlab" or n.startswith("dtlab."))]
        for modname, fname, counter in TRACED:
            original = getattr(sys.modules[f"dtlab.{modname}"], fname)
            wrapper = self._wrap(f"{modname}.{fname}", original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_times(self) -> dict[str, float]:
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.duration - child[s.id]
        return out

    def counts(self, name: str, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def top_level_time(self) -> float:
        return sum(s.duration for s in self.spans if s.parent is None)

    def as_records(self, origin: float) -> list[dict]:
        return [
            {
                "id": s.id,
                "name": s.name,
                "parent": s.parent,
                "start_s": s.start - origin,
                "end_s": s.end - origin,
                **s.counts,
            }
            for s in self.spans
        ]
