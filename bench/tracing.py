"""Traced in-process run: spans around every public function of the package.

:func:`install` rebinds each function named in the ``__all__`` of every
``menzerath.*`` module, in every module namespace that holds it, to a
timing wrapper, and wraps ``JointFrequencyTable.arrays``.  Each call
records a span ``(name, start, end, parent)`` in memory; the caller
writes the spans out when the run ends.  A layer is the module a
function is defined in, with ``_normals`` counted as part of ``copula``.
Time in functions that are not wrapped (private helpers, methods other
than ``arrays``) counts as self time of the layer that called them.

Which end-to-end metric each per-layer metric should move, and where:

- ``import.*_ms``: ``setup_s`` and ``wall_s`` on every workload, most
  on fit-corpus-300k and sample-1m where they are the larger share.
- ``ingest.*``: ``wall_s`` on fit-corpus-300k, a little on fit-table-120k.
- ``table.*``: ``wall_s`` and ``peak_rss_mb`` on fit-table-120k.
- ``classical.ms``, ``gaussian.ms``, ``copula.*`` except
  ``copula.sample_ms``, ``boundaries.*``, ``report.*``, ``svgfig.*``:
  ``wall_s`` (and for the byte counts ``peak_rss_mb``) on fit-table-120k.
- ``copula.sample_ms``, ``cli.self_ms``, ``cli.bytes_written``: ``wall_s``
  and ``peak_rss_mb`` on sample-1m.
- ``trace.overhead_s``: none; it is the cost of the tracing itself, the
  measured cost of one wrapped call times the number of spans.
"""

import functools
import inspect
import sys
import time

import numpy as np

LAYERS = ("ingest", "table", "classical", "gaussian", "copula", "boundaries",
          "report", "svgfig", "cli")


def _layer(module: str) -> str:
    name = module.rsplit(".", 1)[-1]
    return "copula" if name == "_normals" else name


class Tracer:
    """Spans and boundary counts of one traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.stack = []
        self.counts = {
            "ingest.lines": 0, "table.cells": 0, "copula.phi2_evals": 0,
            "copula.grid_cells": 0, "copula.feasible_cells": 0,
            "boundaries.grid_cells": 0, "report.bytes": 0, "svgfig.bytes": 0,
        }

    def wrap(self, fn, name: str):
        spans, stack, observe = self.spans, self.stack, self._observe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            observe(name, args, result)
            return result

        return traced

    def _observe(self, name: str, args, result) -> None:
        c = self.counts
        if name in ("ingest.parse_frequency_table", "ingest.parse_segmented_corpus"):
            text = args[0]
            if isinstance(text, str):
                c["ingest.lines"] += text.count("\n") + (not text.endswith("\n"))
            c["table.cells"] += len(result.cells)
        elif name == "copula.phi2":
            c["copula.phi2_evals"] += np.broadcast(*args[:3]).size
        elif name == "copula.cell_probabilities":
            model = args[0]
            sx, sz = model.marginal_x.support, model.marginal_z.support
            c["copula.grid_cells"] += len(sx) * len(sz)
            if model.domain.value == "segments":
                c["copula.feasible_cells"] += int(
                    (len(sz) - np.searchsorted(sz, sx, side="left")).sum()
                )
            else:
                c["copula.feasible_cells"] += len(sx) * len(sz)
        elif name == "boundaries.cells_from_boundaries":
            c["boundaries.grid_cells"] += len(args[0].cells)
        elif name in ("report.write_report", "report.curves_csv", "report.cells_csv",
                      "svgfig.render_svg"):
            size = len(result) if result.isascii() else len(result.encode("utf-8"))
            c["svgfig.bytes" if name.startswith("svgfig") else "report.bytes"] += size


def span_cost_s() -> float:
    """Seconds one timing wrapper adds to a call, from a wrapped no-op."""

    def noop():
        return None

    calls = 20_000
    wrapped = Tracer().wrap(noop, "noop")
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return max(0.0, time.perf_counter() - start - bare) / calls


def _modules():
    return [m for n, m in sorted(sys.modules.items())
            if (n == "menzerath" or n.startswith("menzerath.")) and m is not None]


def install(tracer: Tracer):
    """Wrap every public function; returns an undo list for :func:`uninstall`."""
    from menzerath.table import JointFrequencyTable

    modules = _modules()
    wrappers = {}
    for mod in modules:
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__.startswith("menzerath") \
                    and id(fn) not in wrappers:
                name = f"{_layer(fn.__module__)}.{fn.__name__}"
                wrappers[id(fn)] = (fn, tracer.wrap(fn, name))
    undo = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers and wrappers[id(value)][0] is value:
                undo.append((mod, attr, value))
                setattr(mod, attr, wrappers[id(value)][1])
    arrays = JointFrequencyTable.arrays
    undo.append((JointFrequencyTable, "arrays", arrays))
    JointFrequencyTable.arrays = tracer.wrap(arrays, "table.arrays")
    return undo


def uninstall(undo) -> None:
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)


def aggregate(tracer: Tracer) -> dict:
    """Per-layer self time, selected inclusive times and the counts."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    self_ms = dict.fromkeys(LAYERS, 0.0)
    inclusive_ms = {}
    calls = {}
    for (name, start, end, parent), children in zip(spans, child_time):
        layer = name.split(".", 1)[0]
        self_ms[layer] += (end - start - children) * 1e3
        inclusive_ms[name] = inclusive_ms.get(name, 0.0) + (end - start) * 1e3
        calls[name] = calls.get(name, 0) + 1
    roots = [s for s in spans if s[3] is None]
    c = tracer.counts
    ingest_ms = inclusive_ms.get("ingest.parse_frequency_table", 0.0) + \
        inclusive_ms.get("ingest.parse_segmented_corpus", 0.0)
    metrics = {f"{layer}.ms": self_ms[layer] for layer in LAYERS if layer != "cli"}
    metrics.update({
        "cli.self_ms": self_ms["cli"],
        "cli.main_ms": sum((s[2] - s[1]) * 1e3 for s in roots),
        "ingest.lines": c["ingest.lines"],
        "ingest.lines_per_s": c["ingest.lines"] / (ingest_ms / 1e3) if ingest_ms else 0.0,
        "table.cells": c["table.cells"],
        "table.moments_calls": calls.get("table.weighted_moments", 0)
        + calls.get("table.weighted_correlation", 0),
        "table.arrays_calls": calls.get("table.arrays", 0),
        "copula.fit_calls": calls.get("copula.fit_copula", 0),
        "copula.cells_ms": inclusive_ms.get("copula.cell_probabilities", 0.0),
        "copula.phi2_ms": inclusive_ms.get("copula.phi2", 0.0),
        "copula.phi2_evals": c["copula.phi2_evals"],
        "copula.grid_cells": c["copula.grid_cells"],
        "copula.feasible_share": c["copula.feasible_cells"] / c["copula.grid_cells"]
        if c["copula.grid_cells"] else 0.0,
        "copula.curve_ms": inclusive_ms.get("copula.predicted_mal_from_cells", 0.0),
        "copula.sample_ms": inclusive_ms.get("copula.sample_copula", 0.0),
        "boundaries.grid_cells": c["boundaries.grid_cells"],
        "report.bytes": c["report.bytes"],
        "svgfig.bytes": c["svgfig.bytes"],
    })
    return metrics


UNITS = {f"{layer}.ms": "ms" for layer in LAYERS if layer != "cli"}
UNITS.update({
    "cli.self_ms": "ms", "cli.main_ms": "ms", "cli.bytes_written": "B",
    "ingest.lines": "count",
    "ingest.lines_per_s": "1/s", "table.cells": "count", "table.moments_calls": "count",
    "table.arrays_calls": "count", "copula.fit_calls": "count", "copula.cells_ms": "ms",
    "copula.phi2_ms": "ms", "copula.phi2_evals": "count", "copula.grid_cells": "count",
    "copula.feasible_share": "ratio", "copula.curve_ms": "ms", "copula.sample_ms": "ms",
    "boundaries.grid_cells": "count", "report.bytes": "B", "svgfig.bytes": "B",
    "trace.overhead_s": "s",
})

# Counts that must repeat exactly from one traced run to the next.
DETERMINISTIC = (
    "ingest.lines", "table.cells", "table.moments_calls", "table.arrays_calls",
    "copula.fit_calls", "copula.phi2_evals", "copula.grid_cells",
    "copula.feasible_share", "boundaries.grid_cells", "report.bytes", "svgfig.bytes",
    "cli.bytes_written",
)


def spans_json(tracer: Tracer) -> list:
    return [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in tracer.spans]
