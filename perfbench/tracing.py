"""Span tracing of the package's public functions, for the traced run.

``Tracer.install`` wraps each function named in ``WRAPPED`` with a span
recorder: name, start, end, parent span and one size figure (LP shape,
iterations, vertices or bytes).  The package binds names at import time
(``from .optim import solve_lp``), so the wrapper replaces every attribute
of every ``fairtree`` module that holds the same function object.  The
oracle closure returned by ``polytope_minimizer`` is wrapped as well.

Spans stay in memory; ``layer_metrics`` turns the spans of one pass into
the per-layer metrics and ``write`` saves them when the run ends.  Self
time is a span's duration minus the time covered by its child spans.

A ``solve_lp`` call counts as a whole-tree LP when its program has more
than ``NODE_LP_MAX_VARIABLES`` variables.  The largest node-local program
of the package (a one-step arbitrage search at a node with 4 children in
a market of 5 assets plus an arbitrage twin's extra asset) has 11; every
whole-tree program of a market with at least 12 nodes has more.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

NODE_LP_MAX_VARIABLES = 11

WRAPPED = (
    "optim.solve_lp",
    "optim.minimize_convex",
    "optim.enumerate_vertices",
    "deflators.polytope_minimizer",
    "deflators.local_vertices",
    "deflators.check_fair",
    "deflators.fairness_report",
    "deflators.build_polytope",
    "deflators.check_complete",
    "hedging.check_supermartingale",
    "hedging.superhedge_price",
    "hedging.superhedge_process",
    "hedging.classify_attainability",
    "hedging.optional_decomposition",
    "utility.solve_dual",
    "utility.solve_primal",
    "utility.davis_price",
    "utility.augment_market",
    "market.build_market",
    "market.check_deflator_values",
    "marketio.parse_market_text",
    "marketio.emit_json",
    "cli.run_command",
)

ORACLE = "deflators.polytope_minimizer.oracle"

# (metric name, unit, better); the order is the order of the report
METRICS = (
    ("optim.solve_lp.tree_calls", "count", "lower"),
    ("optim.solve_lp.tree_s", "s", "lower"),
    ("optim.solve_lp.tree_cells", "count", "lower"),
    ("optim.solve_lp.node_calls", "count", "lower"),
    ("optim.solve_lp.node_s", "s", "lower"),
    ("optim.minimize_convex.iterations", "count", "lower"),
    ("optim.minimize_convex.self_s", "s", "lower"),
    ("deflators.polytope_minimizer.calls", "count", "lower"),
    ("deflators.polytope_minimizer.self_s", "s", "lower"),
    ("deflators.polytope_minimizer.oracle_calls", "count", "lower"),
    ("deflators.polytope_minimizer.oracle_s", "s", "lower"),
    ("optim.enumerate_vertices.calls", "count", "lower"),
    ("optim.enumerate_vertices.self_s", "s", "lower"),
    ("optim.enumerate_vertices.vertices", "count", "lower"),
    ("deflators.local_vertices.calls", "count", "lower"),
    ("deflators.local_vertices.self_s", "s", "lower"),
    ("deflators.local_vertices.hit_ratio", "ratio", "higher"),
    ("hedging.check_supermartingale.self_s", "s", "lower"),
    ("deflators.check_fair.calls", "count", "lower"),
    ("deflators.check_fair.self_s", "s", "lower"),
    ("deflators.fairness_report.hit_ratio", "ratio", "higher"),
    ("deflators.build_polytope.calls", "count", "lower"),
    ("deflators.build_polytope.self_s", "s", "lower"),
    ("deflators.check_complete.self_s", "s", "lower"),
    ("hedging.superhedge_price.calls", "count", "lower"),
    ("hedging.superhedge_price.self_s", "s", "lower"),
    ("hedging.superhedge_process.calls", "count", "lower"),
    ("hedging.superhedge_process.self_s", "s", "lower"),
    ("hedging.classify_attainability.calls", "count", "lower"),
    ("hedging.classify_attainability.self_s", "s", "lower"),
    ("hedging.optional_decomposition.calls", "count", "lower"),
    ("hedging.optional_decomposition.self_s", "s", "lower"),
    ("utility.solve_dual.calls", "count", "lower"),
    ("utility.solve_dual.hit_ratio", "ratio", "higher"),
    ("utility.solve_dual.self_s", "s", "lower"),
    ("utility.solve_primal.self_s", "s", "lower"),
    ("utility.davis_price.self_s", "s", "lower"),
    ("utility.augment_market.self_s", "s", "lower"),
    ("market.build_market.calls", "count", "lower"),
    ("market.build_market.self_s", "s", "lower"),
    ("market.check_deflator_values.calls", "count", "lower"),
    ("market.check_deflator_values.self_s", "s", "lower"),
    ("marketio.parse_market_text.calls", "count", "lower"),
    ("marketio.parse_market_text.self_s", "s", "lower"),
    ("marketio.parse_market_text.bytes", "bytes", "lower"),
    ("marketio.emit_json.self_s", "s", "lower"),
    ("marketio.emit_json.bytes", "bytes", "lower"),
    ("cli.run_command.calls", "count", "lower"),
    ("cli.run_command.self_s", "s", "lower"),
)

# a call of the key is a cache hit when no span of the value runs under it
HIT_RATIOS = {
    "deflators.local_vertices": "optim.enumerate_vertices",
    "deflators.fairness_report": "deflators.check_fair",
    "utility.solve_dual": "optim.minimize_convex",
}


def _size(name: str, args, result):
    """The size figure a span records, or None."""
    if name == "optim.solve_lp":
        rows, cols = args[0].eq_matrix.shape
        return [int(rows), int(cols)]
    if name == "optim.minimize_convex":
        return int(result.iterations)
    if name == "optim.enumerate_vertices":
        return len(result)
    if name == "marketio.parse_market_text":
        return len(args[0].encode("utf-8"))
    if name == "marketio.emit_json":
        return len(result.encode("utf-8"))
    return None


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, size]
        self.spans: list = []
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = perf_counter()
            span[4] = _size(name, args, result)
            if name == "deflators.polytope_minimizer":
                result = self._wrap(ORACLE, result)
            return result

        return traced

    def install(self) -> None:
        for name in WRAPPED:
            importlib.import_module("fairtree." + name.split(".")[0])
        package = [
            m for key, m in sys.modules.items()
            if m is not None and (key == "fairtree" or key.startswith("fairtree."))
        ]
        for name in WRAPPED:
            module, function = name.split(".")
            original = getattr(sys.modules["fairtree." + module], function)
            traced = self._wrap(name, original)
            for module in package:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        """Save every span as JSON: name, start and end (seconds from the
        first span), parent index (-1 at the top) and size figure."""
        origin = self.spans[0][1] if self.spans else 0.0
        records = [
            {"name": s[0], "start": s[1] - origin, "end": s[2] - origin,
             "parent": s[3], "size": s[4]}
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": records}, handle)


def layer_metrics(spans, first: int, passes: int) -> dict:
    """Per-layer metrics of the spans from index ``first`` on, per pass:
    counts, bytes and times are divided by ``passes``."""
    selected = spans[first:]
    child_time = [0.0] * len(selected)
    child_names: list[set] = [set() for _ in selected]
    for span in selected:
        parent = span[3] - first
        if parent >= 0:
            child_time[parent] += span[2] - span[1]
            child_names[parent].add(span[0])

    calls: dict = {}
    self_s: dict = {}
    total_s: dict = {}
    hits: dict = {}
    sizes: dict = {}
    lp = {"tree_calls": 0, "tree_s": 0.0, "tree_cells": 0, "node_calls": 0, "node_s": 0.0}
    for i, (name, start, end, _, size) in enumerate(selected):
        duration = end - start
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + duration - child_time[i]
        total_s[name] = total_s.get(name, 0.0) + duration
        if name in HIT_RATIOS and HIT_RATIOS[name] not in child_names[i]:
            hits[name] = hits.get(name, 0) + 1
        if name == "optim.solve_lp":
            kind = "tree" if size[1] > NODE_LP_MAX_VARIABLES else "node"
            lp[kind + "_calls"] += 1
            lp[kind + "_s"] += duration
            if kind == "tree":
                lp["tree_cells"] += size[0] * size[1]
        elif isinstance(size, int):
            sizes[name] = sizes.get(name, 0) + size

    out = {}
    for metric, _, _ in METRICS:
        module, function, quantity = metric.rsplit(".", 2)
        name = f"{module}.{function}"
        if name == "optim.solve_lp":
            value = lp[quantity]
        elif quantity == "calls":
            value = calls.get(name, 0)
        elif quantity == "self_s":
            value = self_s.get(name, 0.0)
        elif quantity == "hit_ratio":
            value = hits.get(name, 0) / calls[name] if calls.get(name) else 0.0
        elif quantity == "oracle_calls":
            value = calls.get(ORACLE, 0)
        elif quantity == "oracle_s":
            value = total_s.get(ORACLE, 0.0)
        else:  # iterations, vertices, bytes
            value = sizes.get(name, 0)
        out[metric] = value if quantity == "hit_ratio" else value / passes
    return out
