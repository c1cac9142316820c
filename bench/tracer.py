"""Spans and counts at smoothmask's layer boundaries, installed from outside the package.

A layer is a package module. Every public function a layer defines is wrapped,
and so are the kernel and operator methods that carry the numerical work.
Modules bind each other's functions by name (``from .glm import fit``), so each
wrapper replaces the original in every smoothmask namespace that holds it.
Spans are kept in memory as (id, name, start, end, parent id) and written out
when the job ends. The tracer assumes one thread: the benchmark leaves
SMOOTHMASK_THREADS unset.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import statistics
import sys
import time
import weakref
from collections import defaultdict

LAYERS = ("dataset", "kernels", "masking", "glm", "risk", "sim", "cli")
METHODS = {"kernels": ("distance_matrix", "weight_matrix"), "masking": ("apply",)}


def _path_arg(args, kwargs, position: int) -> str:
    return kwargs["path"] if "path" in kwargs else args[position]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._live_ops = 0
        self._live_mb = 0.0
        self._after = {
            "kernels.distance_matrix": self._after_distance_matrix,
            "masking.build_operator": self._after_build_operator,
            "glm.fit": self._after_fit,
            "risk.ap_components": self._after_ap_components,
            "dataset.load_csv": self._after_load_csv,
            "dataset.write_csv": self._after_write_csv,
        }

    # -- counters recorded after a call returns ------------------------------

    def _after_distance_matrix(self, result, args, kwargs) -> None:
        self.counts["kernels.distance_matrix.bytes_computed"] += result.size * 8

    def _after_build_operator(self, result, args, kwargs) -> None:
        mb = result.a.nbytes / 2 ** 20
        self._live_ops += 1
        self._live_mb += mb
        self.counts["masking.live_operators_peak"] = max(
            self.counts["masking.live_operators_peak"], self._live_ops)
        self.counts["masking.live_operator_mb_peak"] = max(
            self.counts["masking.live_operator_mb_peak"], self._live_mb)
        weakref.finalize(result, self._operator_freed, mb)

    def _operator_freed(self, mb: float) -> None:
        self._live_ops -= 1
        self._live_mb -= mb

    def _after_fit(self, result, args, kwargs) -> None:
        self.counts["glm.fit.iterations"] += result.iterations
        self.counts["glm.fit.nonconverged"] += not result.converged

    def _after_ap_components(self, result, args, kwargs) -> None:
        self.counts["risk.ap_components.degenerate"] += bool(result[1])

    def _after_load_csv(self, result, args, kwargs) -> None:
        self.counts["dataset.load_csv.bytes"] += os.path.getsize(_path_arg(args, kwargs, 0))

    def _after_write_csv(self, result, args, kwargs) -> None:
        self.counts["dataset.write_csv.bytes"] += os.path.getsize(_path_arg(args, kwargs, 1))

    # -- installation ----------------------------------------------------------

    def _wrap(self, name: str, func):
        after = self._after.get(name)
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent))
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer's public functions and rebind them package-wide."""
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"smoothmask.{layer}")
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
                if inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for meth in METHODS.get(layer, ()):
                        func = obj.__dict__.get(meth)
                        if inspect.isfunction(func) and not getattr(func, "__isabstractmethod__", False):
                            setattr(obj, meth, self._wrap(f"{layer}.{meth}", func))
        for name, module in list(sys.modules.items()):
            if name == "smoothmask" or name.startswith("smoothmask."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        setattr(module, attr, wrapped[obj])

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-name calls, total seconds, self seconds and call durations, plus counts."""
        child_s: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            child_s[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        for sid, name, start, end, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child_s[sid]
            durations[name].append(end - start)
        out: dict[str, float] = dict(self.counts)
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = self_s[name]
        fit_ms = sorted(1e3 * d for d in durations["glm.fit"])
        if len(fit_ms) >= 2:
            cuts = statistics.quantiles(fit_ms, n=100, method="inclusive")
            out["glm.fit.p50_ms"], out["glm.fit.p99_ms"] = cuts[49], cuts[98]
        elif fit_ms:
            out["glm.fit.p50_ms"] = out["glm.fit.p99_ms"] = fit_ms[0]
        if out.get("glm.fit.iterations"):
            out["glm.fit.s_per_iter"] = total["glm.fit"] / out["glm.fit.iterations"]
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent"],
                       "spans": sorted(self.spans)}, fh)
