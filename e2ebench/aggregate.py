"""Pure aggregation for the end-to-end benchmark (stdlib only).

Everything here is a function of its arguments, so ``tests/`` can pin it
without running a single ``repro`` command:

* :func:`percentile` / :func:`sample_summary` -- linear-interpolated
  percentiles that always travel with their sample count, plus the highest
  percentile that still has ten samples beyond it;
* :func:`self_times` / :func:`layer_metrics` -- per-layer ``calls``,
  ``busy_s`` (union of a layer's span intervals, so nested and repeated
  spans count once) and ``self_s`` (span time not covered by child spans);
* :func:`payload_digest` -- the canonical-JSON digest of one manifest row
  with its run-dependent fields left out;
* :func:`count_mismatches` -- exact comparison of predicted call counts.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import defaultdict
from typing import Iterable, Mapping

#: Manifest-row fields that differ between runs of the same scenario: wall
#: time, the executing process, and provenance (trained / hit / stored),
#: which the workloads check separately.  (Lease holders live in lease
#: entries, never in manifest rows.)
VOLATILE_ROW_FIELDS = ("duration_s", "worker_pid", "cache_hit", "stored")

#: Percentile ladder searched by :func:`sample_summary` for the highest
#: percentile with at least ``TAIL_SAMPLES`` samples beyond it.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
TAIL_SAMPLES = 10

#: Span-name prefixes whose spans are store operations: these also get
#: latency percentiles (``p50_ms``/``p99_ms``) and a ``failed`` count.
STORE_OP_PREFIXES = ("experiments.backend.", "store_server.backend.")


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linearly interpolated between ranks."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be within [0, 100], got {q}")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def sample_summary(values: Iterable[float]) -> dict:
    """Median, p99 and sample count of a timing, plus its supported tail.

    ``tail_q`` is the highest percentile of :data:`TAIL_LADDER` with at
    least :data:`TAIL_SAMPLES` samples beyond it (``None`` when even the
    median lacks them); a p99 over fewer than 1000 samples is reported but
    is effectively the sample maximum, and ``tail_q`` says so.
    """
    data = list(values)
    n = len(data)
    if n == 0:
        return {"n": 0, "p50": None, "p99": None, "tail_q": None, "tail": None}
    tail_q = next(
        (q for q in TAIL_LADDER if n * (100.0 - q) / 100.0 >= TAIL_SAMPLES - 1e-9), None
    )
    return {
        "n": n,
        "p50": percentile(data, 50.0),
        "p99": percentile(data, 99.0),
        "tail_q": tail_q,
        "tail": None if tail_q is None else percentile(data, tail_q),
    }


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by ``(start, end)`` intervals (overlaps once)."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Mapping]) -> dict[int, float]:
    """Per span id: its duration minus the part its child spans cover.

    Children are clipped to the parent's interval, so a child that
    outlives its parent (a span handed to another thread) never drives
    self time negative.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        parent = by_id.get(s.get("parent"))
        if parent is not None:
            start = max(s["start"], parent["start"])
            end = min(s["end"], parent["end"])
            if end > start:
                children[parent["id"]].append((start, end))
    return {
        s["id"]: (s["end"] - s["start"]) - union_length(children[s["id"]]) for s in spans
    }


def _nested_in_same_name(span: Mapping, by_id: Mapping[int, Mapping]) -> bool:
    parent = by_id.get(span.get("parent"))
    while parent is not None:
        if parent["name"] == span["name"]:
            return True
        parent = by_id.get(parent.get("parent"))
    return False


def layer_metrics(spans: list[Mapping]) -> dict[str, float]:
    """Flat ``<span name>.<stat>`` metrics over one batch of spans.

    Spans must share a clock and unique ids (one process's spans, or
    several processes' with ids made unique by the caller).  Stats:

    * ``calls`` -- outermost spans: a call the layer makes into itself
      (an override delegating to its base, a histogram build calling
      its own batched form) is part of the outer call, not another one;
    * ``busy_s`` -- length of the union of the spans' intervals;
    * ``self_s`` -- summed self time (:func:`self_times`);
    * store operations (:data:`STORE_OP_PREFIXES`) add ``p50_ms``,
      ``p99_ms`` and ``failed`` (spans whose call raised);
    * spans with win/loss outcomes add ``won_ratio`` (lease claims) or
      ``hit_ratio`` (result-store lookups): outcomes over calls.
    """
    selfs = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    groups: dict[str, list[Mapping]] = defaultdict(list)
    for s in spans:
        groups[s["name"]].append(s)
    out: dict[str, float] = {}
    for name, group in groups.items():
        out[f"{name}.calls"] = sum(not _nested_in_same_name(s, by_id) for s in group)
        out[f"{name}.busy_s"] = union_length((s["start"], s["end"]) for s in group)
        out[f"{name}.self_s"] = sum(selfs[s["id"]] for s in group)
        outcomes = [s.get("outcome") for s in group]
        if name.startswith(STORE_OP_PREFIXES):
            summary = sample_summary((s["end"] - s["start"]) * 1e3 for s in group)
            out[f"{name}.p50_ms"] = summary["p50"]
            out[f"{name}.p99_ms"] = summary["p99"]
            out[f"{name}.failed"] = outcomes.count("error")
        if "won" in outcomes or "lost" in outcomes:
            out[f"{name}.won_ratio"] = outcomes.count("won") / len(group)
        if "hit" in outcomes or "miss" in outcomes:
            out[f"{name}.hit_ratio"] = outcomes.count("hit") / len(group)
    return out


def canonical_json(value: object) -> str:
    """Key-sorted, whitespace-free JSON; floats keep their exact repr."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)


def payload_digest(row: Mapping) -> str:
    """sha256 of a manifest row's canonical JSON minus its volatile fields.

    Two rows digest equal iff they describe the same scenario, measurement
    kind, simulation code and bit-identical simulated payload -- however
    (trained, cache hit, replayed) and wherever they were produced.
    """
    stable = {k: v for k, v in row.items() if k not in VOLATILE_ROW_FIELDS}
    return hashlib.sha256(canonical_json(stable).encode()).hexdigest()


def geomean(values: Iterable[float]) -> float:
    data = list(values)
    if not data or any(v <= 0 for v in data):
        raise ValueError("geomean needs positive samples")
    return math.exp(sum(math.log(v) for v in data) / len(data))


def count_mismatches(
    predicted: Mapping[str, float], observed: Mapping[str, float]
) -> list[str]:
    """Human-readable lines for every predicted count the trace contradicts.

    A metric absent from ``observed`` counts as 0 (no span was recorded);
    comparison is exact -- predicted counts are whole numbers and ratios
    derived from them.
    """
    return [
        f"{name}: predicted {want}, traced {observed.get(name, 0)}"
        for name, want in sorted(predicted.items())
        if observed.get(name, 0) != want
    ]
