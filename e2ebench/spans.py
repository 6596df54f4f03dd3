"""Span tracer and traced ``repro`` launcher for the end-to-end benchmark.

Usage::

    PYTHONPATH=src python3 e2ebench/spans.py SPANS.json ARGS...

runs ``repro ARGS...`` exactly as ``python3 -m repro.cli ARGS...`` would,
with the public functions at each layer boundary wrapped from outside: an
import hook patches each ``repro`` module the moment it finishes
executing, before any other module can bind its names, so nothing under
``src/`` changes.  Spans (name, start, end, parent span, outcome) are kept
in memory and written to ``SPANS.json`` when the command exits -- also for
``store-serve``, which exits on SIGINT.

The wrapped boundaries are :data:`BOUNDARIES` plus every hardware model's
own ``training_times``/``inference_seconds`` (the pricing layer).
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable

#: Module -> [(attribute path, span name, outcome kind)].  Outcome kinds:
#: ``None`` (plain span), ``"calibration"`` (only memo misses become spans:
#: calibrations actually run), ``"hit"`` (result present = hit), ``"won"``
#: (truthy result = lease won).
BOUNDARIES: dict[str, list[tuple[str, str, str | None]]] = {
    "repro.datasets.synthetic": [("generate", "datasets.generate", None)],
    "repro.gbdt.trainer": [("train", "gbdt.train", None)],
    "repro.gbdt.histogram": [
        ("HistogramBuilder.build", "gbdt.histogram", None),
        ("HistogramBuilder.build_grouped", "gbdt.histogram", None),
        ("HistogramBuilder.build_grouped_arrays", "gbdt.histogram", None),
    ],
    "repro.gbdt.split": [
        ("SplitSearcher.best_split", "gbdt.split", None),
        ("SplitSearcher.best_split_many", "gbdt.split", None),
    ],
    "repro.gbdt.predict": [("EnsemblePredictor.inference_work", "gbdt.inference_work", None)],
    "repro.memory.profile": [
        ("bandwidth_profile", "memory.bandwidth_profile", "calibration")
    ],
    "repro.serving.arrivals": [("build_arrivals", "serving.build_arrivals", None)],
    "repro.serving.simulator": [("simulate", "serving.simulate", None)],
    "repro.serving.result": [("summarize", "serving.summarize", None)],
    "repro.experiments.cache": [("ProfileCache.get", "experiments.store_profile.get", None)],
    "repro.experiments.runner": [
        ("run_scenario", "experiments.run_scenario", None),
        ("_stored_result", "experiments.store_result", "hit"),
    ],
    "repro.experiments.steal": [("Coordinator.claim", "experiments.steal.claim", "won")],
    "repro.experiments.backend": [
        (f"{cls}.{method}", f"experiments.backend.{op}", None)
        for cls in ("LocalBackend", "HTTPBackend")
        for method, op in (
            ("get_entry", "get"),
            ("contains", "contains"),
            ("put", "put"),
            ("create", "create"),
            ("delete", "delete"),
            ("delete_if", "delete_if"),
            ("list", "list"),
        )
    ],
}

#: Hardware-model methods traced on every subclass that defines them.
PRICING_METHODS = (
    ("training_times", "pricing.training_times"),
    ("inference_seconds", "pricing.inference_seconds"),
)
PRICING_PACKAGES = ("repro.baselines.", "repro.core.")

#: Spans the launcher records itself.
LAUNCHER_SPANS = ("cli.import", "cli.main")


def span_names() -> list[str]:
    """Every span name this tracer can record (for metric-name checks)."""
    names = {name for entries in BOUNDARIES.values() for _, name, _ in entries}
    names.update(name for _, name in PRICING_METHODS)
    names.update(LAUNCHER_SPANS)
    return sorted(names)


class Tracer:
    """In-memory span recorder; one per process, thread-aware parents."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float) -> None:
        """A root span the caller timed itself."""
        self.spans.append(
            {"id": next(self._ids), "parent": None, "name": name, "start": start, "end": end}
        )

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        kind: str | None = None,
        memo: dict | None = None,
    ) -> Callable[..., Any]:
        """``fn`` recording one span per call, child of the caller's span."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            memo_size = len(memo) if memo is not None else 0
            outcome: str | None = "error"
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if kind == "calibration":
                    outcome = "calibrated" if len(memo) > memo_size else None
                elif kind == "hit":
                    outcome = "hit" if result is not None else "miss"
                elif kind == "won":
                    outcome = "won" if result else "lost"
                else:
                    outcome = None
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if kind != "calibration" or outcome is not None:
                    self.spans.append(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "outcome": outcome,
                        }
                    )

        return traced

    def patch_module(self, module: Any) -> None:
        """Wrap ``module``'s boundaries in place (called right after it runs)."""
        for path, name, kind in BOUNDARIES.get(module.__name__, ()):
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            memo = module._CACHE if kind == "calibration" else None
            wrapped = self.wrap(getattr(owner, attr), name, kind, memo)
            setattr(owner, attr, wrapped)
        base = sys.modules.get("repro.baselines.base")
        if not module.__name__.startswith(PRICING_PACKAGES) or base is None:
            return
        for value in list(vars(module).values()):
            if (
                isinstance(value, type)
                and issubclass(value, base.HardwareModel)
                and value.__module__ == module.__name__
            ):
                for method, name in PRICING_METHODS:
                    if method in vars(value):
                        setattr(value, method, self.wrap(vars(value)[method], name))

    def dump(self, path: str, role: str) -> None:
        doc = {"pid": os.getpid(), "role": role, "spans": self.spans}
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)


class _PatchingFinder(importlib.abc.MetaPathFinder):
    """Finds ``repro`` modules normally, then patches each after it executes."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def find_spec(self, fullname: str, path: Any, target: Any = None) -> Any:
        if fullname != "repro" and not fullname.startswith("repro."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        tracer = self.tracer

        def exec_and_patch(module: Any) -> None:
            exec_module(module)
            tracer.patch_module(module)

        spec.loader.exec_module = exec_and_patch  # type: ignore[method-assign]
        return spec


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: spans.py SPANS.json [repro args...]", file=sys.stderr)
        return 2
    out, args = argv[0], argv[1:]
    tracer = Tracer()
    sys.meta_path.insert(0, _PatchingFinder(tracer))
    role = args[0] if args else "repro"
    try:
        start = time.perf_counter()
        import repro.cli

        tracer.record("cli.import", start, time.perf_counter())
        return int(tracer.wrap(repro.cli.main, "cli.main")(args) or 0)
    finally:
        tracer.dump(out, role)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
