"""Recorded performance benchmark: the ``repro bench`` trajectory.

Every PR that touches a hot path runs ``repro bench`` and commits the
emitted ``BENCH_<n>.json``, so the repository accumulates a *trajectory* of
measured speedups alongside the code.  One bench document records, for a
fixed scenario grid:

* **gbdt_fit** cells -- full ``train`` fits, vectorized vs the
  scalar reference path, timed through the existing ``train_seconds_wall``
  plumbing.  These are the honest end-to-end numbers: the reference path's
  inner loops (binning, gain math) are already NumPy-vectorized and shared,
  so full-fit ratios hover near 1x.
* **gbdt_level_core** cells -- the trainer's per-level hot core in
  isolation: the widest level state of a reference fit is captured
  (preferring a level that still bins children, so the cell exercises
  partition AND grouped binning), and :meth:`~repro.gbdt.trainer.
  GBDTTrainer._partition_level_reference` races :meth:`~repro.gbdt.trainer.
  GBDTTrainer._partition_level_vectorized` on identical inputs.  This
  is where the per-vertex ``nonzero`` scans and per-vertex ``build`` calls
  were replaced, and where the order-of-magnitude speedup lives.
* **dram_trace** cells -- :meth:`~repro.memory.dram.ChannelSim.run` vs
  :meth:`~repro.memory.dram.ChannelSim.run_reference` through
  :class:`~repro.memory.dram.DRAMSimulator` on sequential and gather
  address traces.

Documents are schema-versioned (:data:`BENCH_SCHEMA_VERSION`) and
validated by :func:`validate_bench` before they are written; CI emits a
``--quick`` document per run and validates it the same way (no
absolute-time assertions -- wall times are host-specific, only the
document *shape* is checked).  See ``docs/performance.md``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from typing import Callable

import numpy as np

from ..datasets import dataset_spec, generate
from ..gbdt import GBDTTrainer, TrainParams, train
from ..gbdt.trainer import _LevelHistograms
from ..memory.dram import DRAMSimulator
from ..serving.stats import percentile, percentile_label
from .cache import sim_fingerprint

__all__ = ["BENCH_SCHEMA_VERSION", "run_bench", "validate_bench", "write_bench"]

#: Bump when the document layout changes incompatibly; readers of the
#: committed trajectory key off this.
BENCH_SCHEMA_VERSION = 1

_CELL_KINDS = ("gbdt_fit", "gbdt_level_core", "dram_trace")

#: (dataset, n_records, trees, depth) grid of the full bench.  The last
#: entry is the deep-trees x large-record-scale corner the acceptance
#: speedup is read from.
_FULL_GRID = (
    ("higgs", 24_000, 2, 6),
    ("allstate", 24_000, 2, 8),
    ("higgs", 96_000, 2, 10),
)
_QUICK_GRID = (("higgs", 4_000, 2, 5),)

#: Block counts of the DRAM trace cells.
_FULL_DRAM_N = 120_000
_QUICK_DRAM_N = 8_000


def _timing(durations: list[float]) -> dict:
    """Percentile summary of one timing side, honestly labeled.

    Shares the serving layer's linearly-interpolated percentile helper.
    With the bench's usual handful of repeats an interior p99 estimate is
    unsupportable (that needs ~100 samples), so ``p99_s`` is effectively
    the sample max; ``p99_label`` says so (``p99~max(n=3)``) instead of
    letting readers of committed trajectories over-trust the tail.
    """
    return {
        "durations_s": durations,
        "p50_s": percentile(durations, 50),
        "p99_s": percentile(durations, 99),
        "p99_label": percentile_label(99, len(durations)),
    }


def _cell(cell_id: str, kind: str, params: dict, vec: list[float], ref: list[float]) -> dict:
    cell = {
        "id": cell_id,
        "kind": kind,
        "params": params,
        "repeats": len(vec),
        "vectorized": _timing(vec),
        "reference": _timing(ref),
    }
    vec_p50 = cell["vectorized"]["p50_s"]
    cell["speedup_p50"] = cell["reference"]["p50_s"] / vec_p50 if vec_p50 > 0 else 0.0
    return cell


def _host_fingerprint() -> dict:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }


def _git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except Exception:
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


# -- GBDT cells -------------------------------------------------------------------


def _gbdt_fit_cell(
    dataset: str, n_records: int, trees: int, depth: int, repeats: int, seed: int
) -> dict:
    spec = dataset_spec(dataset, n_records=n_records, seed=seed)
    data = generate(spec)
    params = TrainParams(n_trees=trees, max_depth=depth)
    vec_durations, ref_durations = [], []
    vec_result = ref_result = None
    for _ in range(repeats):
        vec_result = train(data, params, vectorized=True)
        vec_durations.append(float(vec_result.profile.train_seconds_wall))
        ref_result = train(data, params, vectorized=False)
        ref_durations.append(float(ref_result.profile.train_seconds_wall))
    assert vec_result is not None and ref_result is not None
    cell = _cell(
        f"gbdt_fit/{dataset}/n{n_records}/t{trees}/d{depth}",
        "gbdt_fit",
        {"dataset": dataset, "n_records": n_records, "trees": trees, "depth": depth},
        vec_durations,
        ref_durations,
    )
    cell["identical_losses"] = bool(np.array_equal(vec_result.losses, ref_result.losses))
    return cell


def _capture_widest_level(trainer: GBDTTrainer) -> dict:
    """Run one reference fit, capturing the inputs of its widest level.

    The widest level (most splitting vertices) is where the reference
    path spends the most time -- each splitting vertex costs it one
    ``np.nonzero`` scan over ALL records, so the deepest split level
    dominates; that is exactly the per-vertex schedule the vectorized
    partition replaces.  Ties prefer a level that still bins children
    (``depth + 1 < max_depth``), so grouped binning is exercised when the
    widest level is not the last.  The reference partition never mutates
    its inputs, so keeping references plus defensive copies of the
    arrays is enough for replayable timing.
    """
    captured: dict = {}
    orig = trainer._partition_level_reference

    def hook(
        live: dict,
        splits: dict,
        vertex_of_record: np.ndarray,
        g: np.ndarray,
        h: np.ndarray,
        depth: int,
    ) -> tuple:
        key = (len(splits), depth + 1 < trainer.params.max_depth)
        if key > (captured.get("k", -1), captured.get("bins_children", False)):
            captured.update(
                bins_children=key[1],
                k=len(splits),
                live=dict(live),
                splits=dict(splits),
                vertex_of_record=vertex_of_record.copy(),
                g=g.copy(),
                h=h.copy(),
                depth=depth,
            )
        return orig(live, splits, vertex_of_record, g, h, depth)

    trainer._partition_level_reference = hook  # type: ignore[method-assign]
    try:
        trainer.fit()
    finally:
        trainer._partition_level_reference = orig  # type: ignore[method-assign]
    if not captured:
        raise RuntimeError("reference fit never partitioned a level; deepen the scenario")
    return captured


def _gbdt_level_core_cell(
    dataset: str, n_records: int, depth: int, repeats: int, seed: int
) -> dict:
    """Time the captured widest level: reference vs vectorized hot core."""
    spec = dataset_spec(dataset, n_records=n_records, seed=seed)
    data = generate(spec)
    trainer = GBDTTrainer(data, TrainParams(n_trees=1, max_depth=depth), vectorized=False)
    cap = _capture_widest_level(trainer)

    live, splits = cap["live"], cap["splits"]
    vor, g, h, lvl_depth = cap["vertex_of_record"], cap["g"], cap["h"], cap["depth"]
    n_live = len(live)
    split_vids = sorted(splits)
    decisions = [splits[v] for v in split_vids]
    mats = np.zeros((3, n_live, trainer.builder.n_bins))
    has_hist = np.zeros(n_live, dtype=bool)
    for vid, node in live.items():
        if node.hist is not None:
            mats[:, vid] = node.hist.count, node.hist.grad, node.hist.hess
            has_hist[vid] = True

    ref_durations, vec_durations = [], []
    ref_out = vec_out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        ref_out = trainer._partition_level_reference(live, splits, vor, g, h, lvl_depth)
        ref_durations.append(time.perf_counter() - t0)
        # The vectorized partition overwrites its input rows: replay a copy.
        level = mats.copy()
        hists = _LevelHistograms.stacked(level[0], level[1], level[2], has_hist)
        t0 = time.perf_counter()
        vec_out = trainer._partition_level_vectorized(
            n_live, split_vids, decisions, vor, hists, g, h, lvl_depth
        )
        vec_durations.append(time.perf_counter() - t0)
    assert ref_out is not None and vec_out is not None
    cell = _cell(
        f"gbdt_level_core/{dataset}/n{n_records}/d{depth}",
        "gbdt_level_core",
        {
            "dataset": dataset,
            "n_records": n_records,
            "depth": depth,
            "level_depth": int(lvl_depth),
            "n_splitting": int(cap["k"]),
            "bins_children": bool(cap["bins_children"]),
        },
        vec_durations,
        ref_durations,
    )
    # ref returns (next_live, parent_of, new_assignment, fracs); vec returns
    # new_assignment first.  One identity check rides along for honesty.
    cell["identical_partition"] = bool(np.array_equal(ref_out[2], vec_out[0]))
    return cell


# -- DRAM cells -------------------------------------------------------------------


def _dram_trace(pattern: str, n_blocks: int, seed: int) -> np.ndarray:
    if pattern == "sequential":
        return np.arange(n_blocks, dtype=np.int64)
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << 24, size=n_blocks, dtype=np.int64)


def _dram_cell(pattern: str, n_blocks: int, repeats: int, seed: int) -> dict:
    addrs = _dram_trace(pattern, n_blocks, seed)
    vec_durations, ref_durations = [], []
    vec_stats = ref_stats = None
    for _ in range(repeats):
        sim = DRAMSimulator(vectorized=True)
        t0 = time.perf_counter()
        vec_stats = sim.run(addrs)
        vec_durations.append(time.perf_counter() - t0)
        sim = DRAMSimulator(vectorized=False)
        t0 = time.perf_counter()
        ref_stats = sim.run(addrs)
        ref_durations.append(time.perf_counter() - t0)
    assert vec_stats is not None and ref_stats is not None
    cell = _cell(
        f"dram_trace/{pattern}/n{n_blocks}",
        "dram_trace",
        {"pattern": pattern, "n_blocks": n_blocks},
        vec_durations,
        ref_durations,
    )
    cell["identical_schedule"] = bool(
        vec_stats.total_cycles == ref_stats.total_cycles
        and vec_stats.row_hits == ref_stats.row_hits
        and vec_stats.latency_sum == ref_stats.latency_sum
    )
    return cell


# -- document ---------------------------------------------------------------------


def run_bench(
    *,
    quick: bool = False,
    repeats: int | None = None,
    seed: int = 7,
    progress: Callable[[str], None] | None = None,
) -> dict:
    """Run the fixed scenario grid and return the bench document.

    ``quick`` shrinks the grid and repeats to CI-smoke size; ``repeats``
    overrides the per-cell fit repeats (level-core cells run 10x as many
    repeats since one call is milliseconds).
    """
    if repeats is None:
        repeats = 2 if quick else 3
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    core_repeats = repeats * 10
    grid = _QUICK_GRID if quick else _FULL_GRID
    dram_n = _QUICK_DRAM_N if quick else _FULL_DRAM_N
    say = progress or (lambda _msg: None)

    cells: list[dict] = []
    for dataset, n_records, trees, depth in grid:
        cell = _gbdt_fit_cell(dataset, n_records, trees, depth, repeats, seed)
        cells.append(cell)
        say(f"{cell['id']}: {cell['speedup_p50']:.2f}x")
        cell = _gbdt_level_core_cell(dataset, n_records, depth, core_repeats, seed)
        cells.append(cell)
        say(f"{cell['id']}: {cell['speedup_p50']:.2f}x")
    for pattern in ("sequential", "gather"):
        cell = _dram_cell(pattern, dram_n, repeats, seed)
        cells.append(cell)
        say(f"{cell['id']}: {cell['speedup_p50']:.2f}x")

    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "created_unix": time.time(),
        "host": _host_fingerprint(),
        "git_rev": _git_rev(),
        "sim_code": sim_fingerprint(),
        "quick": quick,
        "seed": seed,
        "cells": cells,
    }


def _fail(message: str) -> None:
    raise ValueError(f"invalid bench document: {message}")


def _check_timing(cell_id: str, side: str, timing: object, repeats: int) -> None:
    if not isinstance(timing, dict):
        _fail(f"cell {cell_id}: {side} must be an object")
    durations = timing.get("durations_s")
    if not isinstance(durations, list) or len(durations) != repeats:
        _fail(f"cell {cell_id}: {side}.durations_s must list {repeats} samples")
    if not all(isinstance(d, float) and d >= 0 for d in durations):
        _fail(f"cell {cell_id}: {side}.durations_s must be non-negative floats")
    for key in ("p50_s", "p99_s"):
        value = timing.get(key)
        if not isinstance(value, float) or value < 0:
            _fail(f"cell {cell_id}: {side}.{key} must be a non-negative float")
    # Optional (absent from documents committed before the label existed).
    label = timing.get("p99_label")
    if label is not None and not isinstance(label, str):
        _fail(f"cell {cell_id}: {side}.p99_label must be a string when present")


def validate_bench(doc: object) -> None:
    """Raise :class:`ValueError` unless ``doc`` is a well-formed bench document.

    Checks shape only -- never absolute times -- so the validation is
    host-independent (CI runs it on every ``--quick`` document).
    """
    if not isinstance(doc, dict):
        _fail("not an object")
    if doc.get("schema_version") != BENCH_SCHEMA_VERSION:
        _fail(f"schema_version must be {BENCH_SCHEMA_VERSION}, got {doc.get('schema_version')!r}")
    host = doc.get("host")
    if not isinstance(host, dict):
        _fail("host must be an object")
    for key in ("platform", "python", "numpy"):
        if not isinstance(host.get(key), str):
            _fail(f"host.{key} must be a string")
    if not isinstance(doc.get("git_rev"), str):
        _fail("git_rev must be a string")
    if not isinstance(doc.get("sim_code"), str):
        _fail("sim_code must be a string")
    if not isinstance(doc.get("created_unix"), (int, float)):
        _fail("created_unix must be a number")
    if not isinstance(doc.get("quick"), bool):
        _fail("quick must be a boolean")
    cells = doc.get("cells")
    if not isinstance(cells, list) or not cells:
        _fail("cells must be a non-empty list")
    seen: set[str] = set()
    for cell in cells:
        if not isinstance(cell, dict):
            _fail("every cell must be an object")
        cell_id = cell.get("id")
        if not isinstance(cell_id, str) or not cell_id:
            _fail("every cell needs a string id")
        if cell_id in seen:
            _fail(f"duplicate cell id {cell_id!r}")
        seen.add(cell_id)
        if cell.get("kind") not in _CELL_KINDS:
            _fail(f"cell {cell_id}: kind must be one of {_CELL_KINDS}")
        if not isinstance(cell.get("params"), dict):
            _fail(f"cell {cell_id}: params must be an object")
        repeats = cell.get("repeats")
        if not isinstance(repeats, int) or repeats < 1:
            _fail(f"cell {cell_id}: repeats must be a positive integer")
        _check_timing(cell_id, "vectorized", cell.get("vectorized"), repeats)
        _check_timing(cell_id, "reference", cell.get("reference"), repeats)
        speedup = cell.get("speedup_p50")
        if not isinstance(speedup, float) or speedup < 0:
            _fail(f"cell {cell_id}: speedup_p50 must be a non-negative float")


def write_bench(doc: dict, path: str) -> None:
    """Validate ``doc`` and write it as indented JSON (trailing newline)."""
    validate_bench(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
