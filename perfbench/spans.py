"""Span recording around the package's public functions.

Spans are recorded from outside the program: `install` replaces a
function attribute in the module that looks it up (for example
`lensdirac.search.fingerprint`, which is what `run_census` calls) with a
wrapper that opens a span, calls the original and closes the span.
Nothing in the package changes.  The tracer assumes one thread, which is
the package default (LENSDIRAC_THREADS unset).

A span's self time is its duration minus the durations of its direct
child spans; summing self times over all spans gives exactly the time
covered by root spans.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Optional

# Layer metric name -> the module attributes that resolve to the function
# at its call sites.  A function imported into several modules is wrapped
# in each of them under the same name.
WRAP_SITES: dict[str, tuple[str, ...]] = {
    "cli.main": ("lensdirac.cli.main",),
    "search.run_census": ("lensdirac.cli.run_census",),
    "search.save_results": ("lensdirac.cli.save_results",),
    "search.export_csv": ("lensdirac.cli.export_csv",),
    "search.verify_family": ("lensdirac.cli.verify_family",),
    "search.enumerate_classes": ("lensdirac.search.enumerate_classes",),
    "lens.self_transport_pairs": ("lensdirac.search.self_transport_pairs",),
    "lens.find_isometry": ("lensdirac.search.find_isometry",),
    "lens.canonical_key": ("lensdirac.cli.canonical_key",),
    "spectrum.fingerprint": ("lensdirac.search.fingerprint",
                             "lensdirac.spectrum.fingerprint"),
    "spectrum.spectrum_table": ("lensdirac.cli.spectrum_table",),
    "spectrum.multiplicity": ("lensdirac.oracle.multiplicity",),
    "spectrum.dirac_isospectral": ("lensdirac.cli.dirac_isospectral",
                                   "lensdirac.search.dirac_isospectral"),
    "spectrum.inverse_isospectral": ("lensdirac.cli.inverse_isospectral",
                                     "lensdirac.search.inverse_isospectral"),
    "lattice.reduced_counts": ("lensdirac.spectrum.reduced_counts",
                               "lensdirac.lattice.reduced_counts"),
    "lattice.count": ("lensdirac.spectrum.count",),
    "oracle.oracle_compare": ("lensdirac.cli.oracle_compare",),
    "oracle.generating_coeffs": ("lensdirac.oracle.generating_coeffs",),
}


def _shape(name: str, args: tuple) -> tuple[Optional[int], Optional[int]]:
    """(q, m) of the call, taken from its first argument."""
    if not args:
        return None, None
    first = args[0]
    if name == "search.enumerate_classes":
        n, q = args[0], args[1] if len(args) > 1 else None
        return q, (n + 1) // 2
    if name == "search.run_census":
        return None, (first + 1) // 2
    q = getattr(first, "q", None)
    m = getattr(first, "m", None)
    return (q, m) if isinstance(q, int) and isinstance(m, int) else (None, None)


class Tracer:
    """In-memory span recorder.  Each span is the list
    [id, parent id, name, start, end, q, m, child time]."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[list] = []
        self.distinct: dict[str, set] = defaultdict(set)
        self.classes = 0

    def open(self, name: str, q: Optional[int] = None,
             m: Optional[int] = None) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        span = [len(self.spans), parent, name, self.clock(), None, q, m, 0.0]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(f"span {span[2]} closed out of order")
        self._stack.pop()
        span[4] = self.clock()
        if self._stack:
            self._stack[-1][7] += span[4] - span[3]

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            q, m = _shape(name, args)
            span = self.open(name, q, m)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if name == "lattice.reduced_counts":
                self.distinct[name].add(args[0])
            elif name == "search.enumerate_classes":
                self.classes += len(out)
            return out
        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; plus the time
        covered by root spans and reduced_counts self time by shape."""
        by_name: dict[str, dict] = {}
        by_shape: dict[str, float] = defaultdict(float)
        root_s = 0.0
        for sid, parent, name, start, end, q, m, child in self.spans:
            dur = end - start
            rec = by_name.setdefault(name, {"calls": 0, "total_s": 0.0,
                                            "self_s": 0.0})
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += dur - child
            if name == "lattice.reduced_counts":
                by_shape[f"q={q},m={m}"] += dur - child
            if parent == -1:
                root_s += dur
        return {"by_name": by_name, "root_s": root_s,
                "reduced_counts_self_s_by_shape": dict(by_shape),
                "distinct": {k: len(v) for k, v in self.distinct.items()},
                "classes": self.classes}


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every site in WRAP_SITES; returns a function that restores
    the originals."""
    import importlib

    undo = []
    for name, sites in WRAP_SITES.items():
        for site in sites:
            mod_name, attr = site.rsplit(".", 1)
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            setattr(mod, attr, tracer.wrap(name, original))
            undo.append((mod, attr, original))

    def restore() -> None:
        for mod, attr, original in reversed(undo):
            setattr(mod, attr, original)

    return restore
