"""Tests for the benchmark runner's own aggregation and bookkeeping.

Run from the repository root::

    python3 -m pytest e2ebench/tests -q

Nothing here runs a ``repro`` command: percentiles, span self time, the
payload digest, span batching and the per-workload count predictions are
all pure functions of their inputs.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import aggregate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

CONFIG = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def span(id, name, start, end, parent=None, outcome=None):
    return {"id": id, "parent": parent, "name": name, "start": start, "end": end,
            "outcome": outcome}  # fmt: skip


# -- percentiles ------------------------------------------------------------------


def test_percentile_interpolates_between_ranks():
    assert aggregate.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert aggregate.percentile([1.0, 2.0, 3.0], 0) == 1.0
    assert aggregate.percentile([1.0, 2.0, 3.0], 100) == 3.0
    assert aggregate.percentile([7.0], 99) == 7.0
    assert aggregate.percentile(range(101), 99) == 99.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        aggregate.percentile([], 50)
    with pytest.raises(ValueError):
        aggregate.percentile([1.0], 101)


@pytest.mark.parametrize(
    "n, tail_q", [(0, None), (5, None), (20, 50.0), (99, 50.0), (100, 90.0),
                  (1000, 99.0), (10000, 99.9)]  # fmt: skip
)
def test_sample_summary_reports_count_and_supported_tail(n, tail_q):
    summary = aggregate.sample_summary(float(i) for i in range(n))
    assert summary["n"] == n
    assert summary["tail_q"] == tail_q
    if n:
        assert summary["p50"] == (n - 1) / 2
    if tail_q is not None:
        assert summary["tail"] == aggregate.percentile(range(n), tail_q)


# -- spans ------------------------------------------------------------------------


def test_union_length_counts_overlap_once():
    assert aggregate.union_length([]) == 0.0
    assert aggregate.union_length([(0, 1), (2, 3)]) == 2.0
    assert aggregate.union_length([(0, 2), (1, 3)]) == 3.0
    assert aggregate.union_length([(0, 4), (1, 2), (3, 4)]) == 4.0


def test_self_time_subtracts_children_once():
    batch = [
        span(1, "cli.main", 0.0, 10.0),
        span(2, "gbdt.train", 1.0, 5.0, parent=1),
        span(3, "gbdt.split", 2.0, 3.0, parent=2),
        span(4, "datasets.generate", 4.0, 6.0, parent=1),
        span(5, "gbdt.histogram", 5.5, 12.0, parent=4),  # outlives its parent
    ]
    selfs = aggregate.self_times(batch)
    assert selfs[1] == 10.0 - 5.0  # children cover [1, 6]
    assert selfs[2] == 4.0 - 1.0
    assert selfs[3] == 1.0
    assert selfs[4] == 2.0 - 0.5  # child clipped to [5.5, 6]
    assert selfs[5] == 6.5


def test_layer_metrics_counts_outermost_calls_and_busy_union():
    batch = [
        span(1, "gbdt.histogram", 0.0, 4.0),
        span(2, "gbdt.histogram", 1.0, 3.0, parent=1),  # build_grouped -> arrays
        span(3, "gbdt.histogram", 5.0, 6.0),
    ]
    m = aggregate.layer_metrics(batch)
    assert m["gbdt.histogram.calls"] == 2
    assert m["gbdt.histogram.busy_s"] == 5.0
    assert m["gbdt.histogram.self_s"] == 2.0 + 2.0 + 1.0


def test_layer_metrics_store_ops_and_ratios():
    batch = [
        span(1, "experiments.backend.get", 0.0, 0.001),
        span(2, "experiments.backend.get", 1.0, 1.003, outcome="error"),
        span(3, "experiments.steal.claim", 2.0, 2.1, outcome="won"),
        span(4, "experiments.steal.claim", 3.0, 3.1, outcome="lost"),
        span(5, "experiments.store_result", 4.0, 4.1, outcome="hit"),
    ]
    m = aggregate.layer_metrics(batch)
    assert m["experiments.backend.get.calls"] == 2
    assert m["experiments.backend.get.failed"] == 1
    assert m["experiments.backend.get.p50_ms"] == pytest.approx(2.0)
    assert m["experiments.backend.get.p99_ms"] == pytest.approx(2.98)
    assert m["experiments.steal.claim.won_ratio"] == 0.5
    assert m["experiments.store_result.hit_ratio"] == 1.0
    assert "experiments.steal.claim.p50_ms" not in m


def test_span_batches_get_unique_ids_server_names_and_windows(tmp_path):
    client = tmp_path / "client.json"
    server = tmp_path / "server.json"
    client.write_text(json.dumps({"role": "sweep", "spans": [
        span(1, "cli.main", 0.0, 5.0), span(2, "experiments.backend.get", 1.0, 2.0, parent=1),
    ]}))  # fmt: skip
    server.write_text(json.dumps({"role": "store-serve", "spans": [
        span(1, "experiments.backend.get", 1.2, 1.3), span(2, "experiments.backend.put", 9.0, 9.1),
    ]}))  # fmt: skip
    batch = run.load_span_batch([client, server], window=(0.0, 6.0))
    assert [s["name"] for s in batch] == [
        "cli.main", "experiments.backend.get", "store_server.backend.get",
    ]  # fmt: skip
    assert len({s["id"] for s in batch}) == 3
    assert batch[1]["parent"] == batch[0]["id"]
    m = aggregate.layer_metrics(batch)
    assert m["cli.main.self_s"] == 4.0
    assert m["store_server.backend.get.calls"] == 1


def test_tracer_records_parents_outcomes_and_only_calibrations():
    tracer = spans.Tracer()
    memo = {}

    def calibrate(key):
        memo.setdefault(key, object())
        return memo[key]

    traced_calibrate = tracer.wrap(calibrate, "memory.bandwidth_profile", "calibration", memo)
    claim = tracer.wrap(lambda won: won, "experiments.steal.claim", "won")

    def outer():
        traced_calibrate("a")
        traced_calibrate("a")  # memo hit: not a calibration, no span
        claim(False)

    tracer.wrap(outer, "cli.main")()
    names = [s["name"] for s in tracer.spans]
    assert names == ["memory.bandwidth_profile", "experiments.steal.claim", "cli.main"]
    main_id = tracer.spans[-1]["id"]
    assert all(s["parent"] == main_id for s in tracer.spans[:2])
    assert tracer.spans[0]["outcome"] == "calibrated"
    assert tracer.spans[1]["outcome"] == "lost"


def test_tracer_marks_raising_calls_failed():
    tracer = spans.Tracer()

    def broken():
        raise OSError("store unreachable")

    with pytest.raises(OSError):
        tracer.wrap(broken, "experiments.backend.put")()
    m = aggregate.layer_metrics(tracer.spans)
    assert m["experiments.backend.put.failed"] == 1


# -- payload digest and model line ------------------------------------------------


def row(**over):
    base = {
        "cache_key": "s1", "sim_code": "abc", "kind": "compare", "scenario": {"seed": 1},
        "comparison": {"systems": {"ideal-32-core": {"total": 8.0}, "booster": {"total": 2.0}}},
        "inference": None, "serving": None, "error": None,
        "cache_hit": False, "stored": False, "worker_pid": 11, "duration_s": 1.5,
    }  # fmt: skip
    base.update(over)
    return base


def test_payload_digest_ignores_provenance_and_timing_only():
    ref = aggregate.payload_digest(row())
    assert aggregate.payload_digest(row(worker_pid=99, duration_s=0.1, stored=True)) == ref
    assert aggregate.payload_digest(dict(reversed(list(row().items())))) == ref
    changed = row(comparison={"systems": {"ideal-32-core": {"total": 8.0},
                                          "booster": {"total": 2.0000000000000004}}})  # fmt: skip
    assert aggregate.payload_digest(changed) != ref
    assert aggregate.payload_digest(row(sim_code="abd")) != ref


def test_booster_geomean_over_rows():
    rows = [row(), row(comparison={"systems": {"ideal-32-core": {"total": 36.0},
                                               "booster": {"total": 1.0}}})]  # fmt: skip
    assert run.booster_geomean(rows) == pytest.approx(12.0)


def test_provenance_labels():
    assert run.provenance(row()) == "trained"
    assert run.provenance(row(cache_hit=True)) == "hit"
    assert run.provenance(row(cache_hit=True, stored=True)) == "stored"
    assert run.provenance(row(error="boom")) == "error"


# -- count predictions ------------------------------------------------------------


def test_count_mismatches_is_exact_and_defaults_to_zero():
    predicted = {"gbdt.train.calls": 5, "gbdt.histogram.calls": 0, "x.hit_ratio": 1.0}
    observed = {"gbdt.train.calls": 5, "x.hit_ratio": 1.0}
    assert aggregate.count_mismatches(predicted, observed) == []
    assert aggregate.count_mismatches({"gbdt.train.calls": 5}, {"gbdt.train.calls": 6}) == [
        "gbdt.train.calls: predicted 5, traced 6"
    ]


def test_predictions_follow_the_workload_definitions():
    bench = run.Bench(seed=1, work=Path("unused"))
    cold = run.ColdSweep(bench).predicted()
    warm = run.WarmCli(bench).predicted()
    remote = run.RemoteSweep(bench).predicted()
    assert cold["gbdt.train.calls"] == len(run.DATASETS)
    assert cold["memory.bandwidth_profile.calls"] == 1
    assert warm["gbdt.train.calls"] == 0
    assert warm["serving.simulate.calls"] == len(run.SERVE_DATASETS) * run.SERVE_SYSTEMS
    for name in ("gbdt.train.calls", "memory.bandwidth_profile.calls",
                 "pricing.training_times.calls", "serving.simulate.calls"):  # fmt: skip
        assert remote[name] == 0
    assert remote["experiments.steal.claim.calls"] == run.REMOTE_SCENARIOS
    assert cold["serving.simulate.calls"] == 0


def test_remote_axes_expand_to_the_declared_scenario_count():
    count = 1
    for _, values in run.REMOTE_AXES:
        count *= len(values.split(","))
    assert count == run.REMOTE_SCENARIOS


# -- host-speed correction --------------------------------------------------------


def command(wall, cpu, slowdown):
    return run.Command(args=["x"], rc=0, wall_s=wall, cpu_s=cpu, rss_mb=40.0, stdout="",
                       stderr="", slowdown=slowdown)  # fmt: skip


def test_end_to_end_divides_times_by_the_host_slowdown():
    slow = run.Iteration([command(2.0, 1.8, 2.0), command(4.0, 3.6, 2.0)], scenarios=6,
                         server_cpu_s=1.0)  # fmt: skip
    fast = run.Iteration([command(1.0, 0.9, 1.0), command(2.0, 1.8, 1.0)], scenarios=6,
                         server_cpu_s=0.5)  # fmt: skip
    setups = [(3.0, 1.5), (2.0, 1.0), (4.0, 2.0)]
    ref = run.end_to_end(setups, [slow, fast], ref=True)
    assert ref["scenarios_per_s"] == pytest.approx(2.0)  # both iterations: 6 per 3 ref-s
    assert ref["commands_per_s"] == pytest.approx(2 / 3)
    assert ref["command_p50_s"] == pytest.approx(1.5)
    assert ref["cpu_s"] == pytest.approx(3.2)
    assert ref["setup_s"] == pytest.approx(2.0)
    raw = run.end_to_end(setups, [slow, fast], ref=False)
    assert raw["scenarios_per_s"] == pytest.approx((6 / 6 + 6 / 3) / 2)
    assert raw["command_p50_s"] == pytest.approx(2.0)
    assert raw["setup_s"] == pytest.approx(3.0)
    assert raw["peak_rss_mb"] == ref["peak_rss_mb"] == 40.0


# -- BENCHMARK.json ---------------------------------------------------------------

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
STATS = ("calls", "busy_s", "self_s", "p50_ms", "p99_ms", "failed", "won_ratio", "hit_ratio")


def test_benchmark_json_follows_the_contract():
    assert set(CONFIG) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    assert [w["name"] for w in CONFIG["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in CONFIG["end_to_end"] + CONFIG["per_layer"]]
    names += [w["name"] for w in CONFIG["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in CONFIG["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in CONFIG["end_to_end"])
    setup = next(m for m in CONFIG["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in CONFIG["end_to_end"])
    assert 1 <= len(CONFIG["per_layer"]) <= 128


def test_every_per_layer_metric_can_be_produced():
    layers = set(spans.span_names())
    layers |= {n.replace("experiments.backend.", "store_server.backend.") for n in layers}
    for metric in CONFIG["per_layer"]:
        name = metric["name"]
        if name in run.DERIVED_METRICS:
            continue
        layer, _, stat = name.rpartition(".")
        assert layer in layers and stat in STATS, name


def test_every_predicted_count_is_reported():
    per_layer = {m["name"] for m in CONFIG["per_layer"]}
    bench = run.Bench(seed=1, work=Path("unused"))
    for workload in run.WORKLOADS.values():
        assert set(workload(bench).predicted()) <= per_layer, workload.name
