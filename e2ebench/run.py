#!/usr/bin/env python3
"""End-to-end benchmark of the ``repro`` CLI: three closed-loop workloads.

Run from the repository root::

    python3 e2ebench/run.py --workload cold-sweep --seed 1 --seconds 20 --trace 0

One client issues one command at a time, each in a fresh ``repro``
process; every sweep runs ``--serial`` and at most one ``store-serve``
process runs.  The workload seed reaches the program only as ``--seed``.

* ``cold-sweep`` -- one serial sweep over the five registry datasets
  against an empty local store: dataset generation, training and pricing.
* ``warm-cli`` -- ``compare higgs``, ``compare flight``, ``inference
  higgs``, a two-scenario serving sweep and ``report --from-manifest``
  against a store trained in setup: per-process fixed costs and serving.
* ``remote-sweep`` -- a coordinated replay of stored compare results over
  a ``store-serve`` URL, then ``steal-status`` and ``report``: store round
  trips and lease traffic, no executor at all.

The driver and every process it starts run on one CPU.  Each timed
command is bracketed by a fixed probe process, and reported times are
divided by the probe's slowdown against its nominal time, so that the
host's changing speed cancels; the detail line also carries every
end-to-end metric as measured.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same workload untraced, then twice under
``spans.py`` (public layer functions wrapped from outside) and prints the
per-layer metrics, after checking the traced call counts against
:meth:`Workload.predicted` and against each other.  The last stdout line
is the JSON result; the line before it carries provenance and sample
counts.  Every output is checked: exit codes, manifest rows, provenance,
lease states and a digest of every simulated payload.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import aggregate  # noqa: E402

ROOT = Path.cwd()
WORK_ROOT = ROOT / ".e2ebench_work"
SPANS_PY = HERE / "spans.py"

#: Set-up repeats per untraced run (at least this many, and until this
#: much time is spent); ``setup_s`` is their median.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.5
#: Timed iterations per run even when ``--seconds`` is already spent.
MIN_ITERATIONS = 2
#: Traced iterations per ``--trace 1`` run; their counts must agree.
TRACED_ITERATIONS = 2
COMMAND_TIMEOUT_S = 150.0

#: The host-speed probe: a fresh isolated interpreter (no repository code
#: on its path) importing what every ``repro`` command imports first.  It
#: runs before and after each command; the mean of the two, over
#: ``PROBE_NOMINAL_S`` (its median on the 2-CPU host the benchmark was
#: written on), is the command's host slowdown.
PROBE_ARGV = (sys.executable, "-I", "-c", "import argparse, json, numpy")
PROBE_NOMINAL_S = 0.167
#: A probe this recent also serves as the next command's "before" probe.
PROBE_REUSE_S = 1.0

DATASETS = ("higgs", "allstate", "flight", "iot", "mq2008")
#: The paper's headline: Booster over an ideal 32-core CPU, geomean (Sec. V).
PAPER_GEOMEAN_X = 11.4
COMPARE_SYSTEMS = 5  # systems a compare scenario prices by default

#: warm-cli's serving sweep: 2 scenarios x 5 systems, ~5k arrivals each.
SERVE_DATASETS = ("higgs", "flight")
SERVE_QPS = "1000"
SERVE_SYSTEMS = 5

#: remote-sweep's stored set: hardware-only axes over one trained dataset
#: (4 x 2 x 4 x 4 = 128 scenarios; n_clusters=50, bus_per_cluster=64,
#: sram_bytes=2048, clock_ghz=1.0 is cold-sweep's flight scenario).
REMOTE_DATASET = "flight"
REMOTE_AXES = (
    ("n_clusters", "25,50,75,100"),
    ("bus_per_cluster", "32,64"),
    ("sram_bytes", "1024,2048,4096,8192"),
    ("clock_ghz", "0.8,1.0,1.2,1.5"),
)
REMOTE_SCENARIOS = 128

#: Per-layer metrics computed here rather than read off spans.
DERIVED_METRICS = (
    "serving.sim_requests_per_s",
    "model.booster_vs_ideal32_geomean_x",
    "model.paper_geomean_x",
    "model.geomean_rel_error",
    "trace.overhead_ratio",
)


# -- commands ---------------------------------------------------------------------


@dataclass
class Command:
    """One finished fresh-process ``repro`` command and its checks."""

    args: list[str]
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str
    slowdown: float = 1.0  # host probe time around the command / PROBE_NOMINAL_S
    problems: list[str] = field(default_factory=list)

    @property
    def ref_wall_s(self) -> float:
        """Wall time scaled to the probe's nominal host speed."""
        return self.wall_s / self.slowdown

    @property
    def ref_cpu_s(self) -> float:
        return self.cpu_s / self.slowdown

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.problems.append(message)
        return ok


@dataclass
class Iteration:
    """The timed commands of one workload iteration."""

    commands: list[Command]
    scenarios: int
    server_cpu_s: float = 0.0
    server_rss_mb: float = 0.0
    sim_requests: int = 0
    serve_ref_wall_s: float = 0.0
    rows: list[dict] = field(default_factory=list)  # cold-sweep's, for the model line

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.commands)

    @property
    def cpu_s(self) -> float:
        return sum(c.cpu_s for c in self.commands) + self.server_cpu_s

    @property
    def rss_mb(self) -> float:
        return max([c.rss_mb for c in self.commands] + [self.server_rss_mb])

    @property
    def slowdown(self) -> float:
        return statistics.mean(c.slowdown for c in self.commands)

    @property
    def ref_wall_s(self) -> float:
        return sum(c.ref_wall_s for c in self.commands)

    @property
    def ref_cpu_s(self) -> float:
        return sum(c.ref_cpu_s for c in self.commands) + self.server_cpu_s / self.slowdown


def provenance(row: dict) -> str:
    """A manifest row's provenance label, as ``repro sweep`` prints it."""
    if row.get("error") is not None:
        return "error"
    if row.get("stored"):
        return "stored"
    return "hit" if row.get("cache_hit") else "trained"


class Bench:
    """Runs commands for one benchmark invocation and keeps its checks.

    ``reference`` maps ``kind:cache_key`` to the payload digest first seen
    for it -- in set-up, or in the first iteration -- seeded from the
    ledger that other workloads' runs with the same seed and simulation
    code left in the checkout, so every workload pricing a scenario must
    agree on it bit for bit.
    """

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.tracing = False
        self.span_files: list[Path] = []
        self.commands: list[Command] = []
        self.reference: dict[str, str] = {}
        self.texts: dict[str, str] = {}
        self.sim_codes: set[str] = set()
        self.probe_s = 0.0  # time spent in probes, left out of set-up times
        self.probes = 0
        self._last_probe: tuple[float, float] | None = None  # (ended at, slowdown)
        self._seq = itertools.count()
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + pythonpath if pythonpath else "")

    def argv(self, args: list[str], spans_out: Path | None) -> list[str]:
        if spans_out is None:
            return [sys.executable, "-m", "repro.cli", *args]
        return [sys.executable, str(SPANS_PY), str(spans_out), *args]

    def probe(self) -> float:
        """Run the host-speed probe once; returns its slowdown."""
        start = time.perf_counter()
        subprocess.run(
            PROBE_ARGV, cwd=self.work, stdout=subprocess.DEVNULL, check=True, timeout=60
        )
        end = time.perf_counter()
        self.probe_s += end - start
        self.probes += 1
        self._last_probe = (end, (end - start) / PROBE_NOMINAL_S)
        return self._last_probe[1]

    def probe_before(self) -> float:
        last = self._last_probe
        if last is not None and time.perf_counter() - last[0] < PROBE_REUSE_S:
            return last[1]
        return self.probe()

    def repro(self, *args: object, store: object) -> Command:
        """Run ``repro ARGS`` in a fresh process against ``store``."""
        argv = [str(a) for a in args]
        before = self.probe_before()
        n = next(self._seq)
        spans_out = self.work / f"spans-{n}.json" if self.tracing else None
        env = dict(self.env, REPRO_CACHE_DIR=str(store))
        out_path, err_path = self.work / f"cmd-{n}.out", self.work / f"cmd-{n}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                self.argv(argv, spans_out), stdout=out, stderr=err, env=env, cwd=ROOT
            )
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        cmd = Command(
            args=argv,
            rc=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
            stdout=out_path.read_text(errors="replace"),
            stderr=err_path.read_text(errors="replace"),
        )
        out_path.unlink()
        err_path.unlink()
        cmd.slowdown = (before + self.probe()) / 2
        if spans_out is not None and cmd.check(spans_out.exists(), "no spans written"):
            self.span_files.append(spans_out)
        cmd.check(cmd.rc == 0, f"exit code {cmd.rc}: {cmd.stderr.strip()[-300:]}")
        self.commands.append(cmd)
        return cmd

    def same_text(self, cmd: Command, label: str) -> None:
        """The command's stdout must equal the first run's in this benchmark."""
        want = self.texts.setdefault(label, cmd.stdout)
        cmd.check(cmd.stdout == want, f"{label}: stdout differs from the first run")

    def rows(self, cmd: Command, manifest: Path, expect: int, provenances: set[str]) -> list[dict]:
        """Parse and check a sweep manifest: count, success, provenance, digests."""
        try:
            rows = [json.loads(line) for line in manifest.read_text().splitlines() if line]
        except (OSError, ValueError) as exc:
            cmd.check(False, f"unreadable manifest {manifest.name}: {exc}")
            return []
        cmd.check(len(rows) == expect, f"{len(rows)} manifest rows, expected {expect}")
        for row in rows:
            label = f"{row.get('kind')}:{row.get('cache_key')}"
            cmd.check(row.get("error") is None, f"{label} failed: {row.get('error')}")
            cmd.check(
                provenance(row) in provenances,
                f"{label} provenance {provenance(row)}, expected {sorted(provenances)}",
            )
            self.load_ledger(row.get("sim_code"))
            digest = aggregate.payload_digest(row)
            want = self.reference.setdefault(label, digest)
            cmd.check(digest == want, f"{label} payload digest differs from the reference")
        return rows

    # The ledger: reference digests shared by every workload's runs in this
    # checkout, one file per (simulation code, seed).

    def ledger_path(self, sim_code: str) -> Path:
        return WORK_ROOT / "ledger" / f"{sim_code}-seed{self.seed}.json"

    def load_ledger(self, sim_code: object) -> None:
        if not isinstance(sim_code, str) or not re.fullmatch(r"[0-9a-f]+", sim_code):
            return
        if sim_code in self.sim_codes:
            return
        self.sim_codes.add(sim_code)
        try:
            stored = json.loads(self.ledger_path(sim_code).read_text())
        except (OSError, ValueError):
            return
        for key, digest in stored.items():
            self.reference.setdefault(key, digest)

    def save_ledger(self) -> None:
        for sim_code in self.sim_codes:
            path = self.ledger_path(sim_code)
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_text(json.dumps(self.reference, sort_keys=True))
            os.replace(tmp, path)


def training_artifacts(store: Path) -> dict[str, int]:
    """Name -> mtime of every cached training artifact in a local store."""
    return {p.name: p.stat().st_mtime_ns for p in sorted(store.glob("t*.pkl"))}


def reset_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


# -- the store server -------------------------------------------------------------


class StoreServer:
    """One ``repro store-serve`` process over a directory."""

    def __init__(self, bench: Bench, root: Path, spans_out: Path | None = None) -> None:
        self.log_path = bench.work / "store-serve.log"
        args = ["store-serve", str(root), "--port", "0"]
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                bench.argv(args, spans_out),
                stdout=log,
                stderr=subprocess.STDOUT,
                env=bench.env,
                cwd=ROOT,
            )
        deadline = time.monotonic() + 60.0
        while True:
            match = re.search(r"at (http://\S+)", self.log_path.read_text(errors="replace"))
            if match:
                self.url = match.group(1)
                return
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"store-serve did not start: {self.log_path.read_text()}")
            time.sleep(0.01)

    def cpu_s(self) -> float:
        """User + system CPU seconds the server has used so far."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat[stat.rindex(")") + 2 :].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def rss_mb(self) -> float:
        """The server's peak resident set so far."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        """SIGINT (the server's clean exit, which also writes its spans), then wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


# -- workloads --------------------------------------------------------------------


class Workload:
    name = ""

    def __init__(self, bench: Bench) -> None:
        self.bench = bench
        self.store = bench.work / "store"

    def setup(self) -> None:
        """Reach the starting state (timed; repeated for ``setup_s``)."""
        raise NotImplementedError

    def iterate(self) -> Iteration:
        """Untimed reset, then the iteration's timed commands, checked."""
        raise NotImplementedError

    def predicted(self) -> dict[str, float]:
        """Per-iteration layer counts that follow from the workload definition."""
        raise NotImplementedError

    def trace_begin(self) -> None:
        """Hook before the traced iterations (remote-sweep restarts its server)."""

    def close(self) -> list[Path]:
        """Stop what the workload started; returns span files it left."""
        return []


class ColdSweep(Workload):
    name = "cold-sweep"

    def setup(self) -> None:
        reset_dir(self.store)
        cmd = self.bench.repro("datasets", store=self.store)
        for name in DATASETS:
            cmd.check(name in cmd.stdout, f"datasets: {name} missing")

    def iterate(self) -> Iteration:
        reset_dir(self.store)
        manifest = self.bench.work / "cold.jsonl"
        cmd = self.bench.repro(
            "sweep", "--serial", "--seed", self.bench.seed,
            "--axis", "dataset=" + ",".join(DATASETS), "--out", manifest,
            store=self.store,
        )  # fmt: skip
        rows = self.bench.rows(cmd, manifest, len(DATASETS), {"trained"})
        return Iteration([cmd], scenarios=len(rows), rows=rows)

    def predicted(self) -> dict[str, float]:
        n = len(DATASETS)
        return {
            "cli.main.calls": 1,
            "datasets.generate.calls": n,
            "gbdt.train.calls": n,
            "memory.bandwidth_profile.calls": 1,  # one pricing process
            "pricing.training_times.calls": n * COMPARE_SYSTEMS,
            "pricing.inference_seconds.calls": 0,
            "serving.simulate.calls": 0,
            "experiments.run_scenario.calls": n,
            "experiments.store_result.calls": n,
            "experiments.store_result.hit_ratio": 0.0,
            "experiments.steal.claim.calls": 0,
            "experiments.backend.put.calls": 2 * n,  # artifact pickle + result JSON
        }


class WarmCli(Workload):
    name = "warm-cli"

    def setup(self) -> None:
        b = self.bench
        reset_dir(self.store)
        manifest = b.work / "warm-setup.jsonl"
        cmd = b.repro(
            "sweep", "--serial", "--seed", b.seed,
            "--axis", "dataset=" + ",".join(SERVE_DATASETS), "--out", manifest,
            store=self.store,
        )  # fmt: skip
        b.rows(cmd, manifest, len(SERVE_DATASETS), {"trained"})

    def fixed(self, *args: object) -> Command:
        """A command whose output is a pure function of the store: stdout
        must repeat exactly, and it must not train."""
        before = training_artifacts(self.store)
        cmd = self.bench.repro(*args, "--seed", self.bench.seed, store=self.store)
        self.bench.same_text(cmd, " ".join(map(str, args)))
        cmd.check(training_artifacts(self.store) == before, "training artifacts changed")
        return cmd

    def iterate(self) -> Iteration:
        b = self.bench
        for stale in self.store.glob("v*.json"):
            stale.unlink()  # only the serving results: the queue simulation reruns
        commands = [
            self.fixed("compare", "higgs"),
            self.fixed("compare", "flight"),
            self.fixed("inference", "higgs"),
        ]
        manifest = b.work / "warm-serve.jsonl"
        before = training_artifacts(self.store)
        serve = b.repro(
            "sweep", "--serial", "--seed", b.seed, "--serve", "--qps", SERVE_QPS,
            "--axis", "dataset=" + ",".join(SERVE_DATASETS), "--out", manifest,
            store=self.store,
        )  # fmt: skip
        rows = b.rows(serve, manifest, len(SERVE_DATASETS), {"hit"})
        serve.check(training_artifacts(self.store) == before, "training artifacts changed")
        report = b.repro("report", "--from-manifest", manifest, store=self.store)
        report.check(
            f"serving sweep ({len(SERVE_DATASETS)} scenarios" in report.stdout,
            "report: serving table missing",
        )
        commands += [serve, report]
        requests = sum(
            stats["n_requests"]
            for row in rows
            for stats in (row.get("serving") or {}).get("systems", {}).values()
        )
        return Iteration(
            commands,
            scenarios=3 + len(rows),  # two compares, one inference, the serving rows
            sim_requests=requests,
            serve_ref_wall_s=serve.ref_wall_s,
        )

    def predicted(self) -> dict[str, float]:
        n = len(SERVE_DATASETS)
        return {
            "cli.main.calls": 5,
            "gbdt.train.calls": 0,
            "memory.bandwidth_profile.calls": 4,  # every process but report
            "pricing.training_times.calls": 2 * COMPARE_SYSTEMS,
            "datasets.generate.calls": 1 + n,  # inference + each serving dataset
            "gbdt.inference_work.calls": 1 + n,
            "serving.build_arrivals.calls": n,
            "serving.simulate.calls": n * SERVE_SYSTEMS,
            "serving.summarize.calls": n * SERVE_SYSTEMS,
            "experiments.run_scenario.calls": n,
            "experiments.store_result.calls": n,
            "experiments.store_result.hit_ratio": 0.0,
            "experiments.steal.claim.calls": 0,
            "experiments.backend.put.calls": n,  # the fresh serving results
        }


class RemoteSweep(Workload):
    name = "remote-sweep"

    def __init__(self, bench: Bench) -> None:
        super().__init__(bench)
        self.server: StoreServer | None = None
        self.server_spans = bench.work / "server-spans.json"

    def axes(self) -> list[str]:
        args = ["--dataset", REMOTE_DATASET]
        for name, values in REMOTE_AXES:
            args += ["--axis", f"{name}={values}"]
        return args

    def setup(self) -> None:
        b = self.bench
        self.close()
        reset_dir(self.store)
        self.server = StoreServer(b, self.store)
        manifest = b.work / "remote-fill.jsonl"
        cmd = b.repro(
            "sweep", "--serial", "--seed", b.seed, *self.axes(), "--out", manifest,
            store=self.server.url,
        )  # fmt: skip
        rows = b.rows(cmd, manifest, REMOTE_SCENARIOS, {"trained", "hit"})
        trained = sum(provenance(row) == "trained" for row in rows)
        cmd.check(trained == 1, f"fill trained {trained} times, expected once")

    def iterate(self) -> Iteration:
        b, server = self.bench, self.server
        assert server is not None
        for name in ("*.lease", "*.break", "sweep.json"):
            for path in self.store.glob(name):
                path.unlink()  # the coordination state only; results stay
        manifest = b.work / "remote.jsonl"
        cpu_before = server.cpu_s()
        sweep = b.repro(
            "sweep", "--seed", b.seed, *self.axes(), "--coordinate", server.url,
            "--out", manifest, store=server.url,
        )  # fmt: skip
        rows = b.rows(sweep, manifest, REMOTE_SCENARIOS, {"stored"})
        status = b.repro("steal-status", server.url, store=server.url)
        n = REMOTE_SCENARIOS
        status.check(
            f"{n} done, 0 failed, 0 running, 0 stale" in status.stdout
            and f"0 unclaimed of {n}" in status.stdout,
            "steal-status: not every lease is done",
        )
        report = b.repro("report", "--from-manifest", manifest, store=server.url)
        report.check(f"scenario sweep ({n} scenarios" in report.stdout, "report: table missing")
        return Iteration(
            [sweep, status, report],
            scenarios=len(rows),
            server_cpu_s=server.cpu_s() - cpu_before,
            server_rss_mb=server.rss_mb(),
        )

    def trace_begin(self) -> None:
        # Same directory, traced process: the stored results carry over.
        self.close()
        self.server = StoreServer(self.bench, self.store, self.server_spans)

    def close(self) -> list[Path]:
        if self.server is not None:
            self.server.stop()
            self.server = None
        return [self.server_spans] if self.server_spans.exists() else []

    def predicted(self) -> dict[str, float]:
        n = REMOTE_SCENARIOS
        zero = (
            "gbdt.train.calls",
            "datasets.generate.calls",
            "memory.bandwidth_profile.calls",
            "pricing.training_times.calls",
            "pricing.inference_seconds.calls",
            "serving.simulate.calls",
            "gbdt.inference_work.calls",
        )
        return {
            **{name: 0 for name in zero},
            "cli.main.calls": 3,
            "experiments.run_scenario.calls": n,
            "experiments.store_result.calls": n,
            "experiments.store_result.hit_ratio": 1.0,
            "experiments.steal.claim.calls": n,
            "experiments.steal.claim.won_ratio": 1.0,
            "experiments.backend.create.calls": n + 1,  # leases + sweep.json
            "experiments.backend.put.calls": n,  # leases marked done
            "store_server.backend.create.calls": n + 1,
            "store_server.backend.put.calls": n,
        }


WORKLOADS = {w.name: w for w in (ColdSweep, WarmCli, RemoteSweep)}


# -- aggregation ------------------------------------------------------------------


def booster_geomean(rows: list[dict]) -> float:
    """Booster's geomean training speedup over the ideal 32-core CPU."""
    speedups = []
    for row in rows:
        systems = (row.get("comparison") or {}).get("systems", {})
        speedups.append(systems["ideal-32-core"]["total"] / systems["booster"]["total"])
    return aggregate.geomean(speedups)


def load_span_batch(paths: list[Path], window: tuple[float, float] | None = None) -> list[dict]:
    """Spans of several processes with ids made unique; server-side store
    operations are renamed ``store_server.backend.*``.  ``window`` keeps
    only spans starting inside it (the server lives across iterations)."""
    batch = []
    for index, path in enumerate(paths):
        doc = json.loads(path.read_text())
        server = doc.get("role") == "store-serve"
        for span in doc["spans"]:
            if window is not None and not window[0] <= span["start"] <= window[1]:
                continue
            span = dict(span, id=f"{index}:{span['id']}")
            if span.get("parent") is not None:
                span["parent"] = f"{index}:{span['parent']}"
            if server and span["name"].startswith("experiments.backend."):
                span["name"] = "store_server." + span["name"].split(".", 1)[1]
            batch.append(span)
    return batch


def is_count(name: str) -> bool:
    return name.endswith((".calls", ".failed", "_ratio"))


def provenance_info(sim_codes: set[str]) -> dict:
    """Host, code and simulation fingerprints of this run."""
    rev = ""
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = ""
    try:
        cpu = next(
            line.split(":", 1)[1].strip()
            for line in Path("/proc/cpuinfo").read_text().splitlines()
            if line.startswith("model name")
        )
    except (OSError, StopIteration):
        pass
    return {
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpu": cpu,
            "nproc": os.cpu_count(),
        },
        "git_rev": rev or "unknown (not a git checkout)",
        "source_sha256": source.hexdigest()[:16],
        "sim_fingerprint": sorted(sim_codes),
    }


def metric_doc(names: list[dict], values: dict[str, float]) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}


# -- runs -------------------------------------------------------------------------


def pin_to_one_cpu() -> int | None:
    """Run this process and every child on one CPU; returns that CPU.

    A sweep client and its store server, or NumPy's threads, spread over
    both CPUs of a small shared host, so wall time would depend on whether
    a neighbour holds the second CPU; on one CPU it follows the CPU time.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def timed_iterations(workload: Workload, seconds: float) -> list[Iteration]:
    iterations: list[Iteration] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(iterations) < MIN_ITERATIONS:
        iterations.append(workload.iterate())
    return iterations


def end_to_end(
    setups: list[tuple[float, float]], iterations: list[Iteration], ref: bool
) -> dict[str, float]:
    """The end-to-end metrics: host-corrected (``ref``) or as measured.

    ``setups`` holds (set-up seconds, mean slowdown of its commands).
    """
    if ref:
        walls = [c.ref_wall_s for it in iterations for c in it.commands]
        iteration_walls = [it.ref_wall_s for it in iterations]
        cpus = [it.ref_cpu_s for it in iterations]
        setup_times = [t / slowdown for t, slowdown in setups]
    else:
        walls = [c.wall_s for it in iterations for c in it.commands]
        iteration_walls = [it.wall_s for it in iterations]
        cpus = [it.cpu_s for it in iterations]
        setup_times = [t for t, _ in setups]
    return {
        "setup_s": statistics.median(setup_times),
        "scenarios_per_s": statistics.median(
            it.scenarios / wall for it, wall in zip(iterations, iteration_walls)
        ),
        "command_p50_s": aggregate.percentile(walls, 50.0),
        "commands_per_s": statistics.median(
            len(it.commands) / wall for it, wall in zip(iterations, iteration_walls)
        ),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(it.rss_mb for it in iterations),
    }


def untraced_run(workload: Workload, seconds: float) -> tuple[dict[str, float], dict]:
    bench = workload.bench
    setups: list[tuple[float, float]] = []
    while len(setups) < SETUP_REPEATS or sum(t for t, _ in setups) < SETUP_MIN_S:
        probe_s, first = bench.probe_s, len(bench.commands)
        start = time.perf_counter()
        workload.setup()
        elapsed = time.perf_counter() - start - (bench.probe_s - probe_s)
        setups.append((elapsed, statistics.mean(c.slowdown for c in bench.commands[first:])))
    iterations = timed_iterations(workload, seconds)
    values = end_to_end(setups, iterations, ref=True)
    detail = {
        "iterations": len(iterations),
        "setups": len(setups),
        "probes": bench.probes,
        "command_ref_wall_s": aggregate.sample_summary(
            c.ref_wall_s for it in iterations for c in it.commands
        ),
        "slowdown": aggregate.sample_summary(
            c.slowdown for it in iterations for c in it.commands
        ),
        "iteration_wall_s": [it.wall_s for it in iterations],
        "iteration_slowdown": [it.slowdown for it in iterations],
        "setup_s": [t for t, _ in setups],
        "setup_slowdown": [slowdown for _, slowdown in setups],
        "as_measured": end_to_end(setups, iterations, ref=False),
    }
    if iterations[0].sim_requests:
        detail["sim_requests_per_s"] = statistics.median(
            it.sim_requests / it.serve_ref_wall_s for it in iterations
        )
    if workload.name == "cold-sweep":
        detail["model.booster_vs_ideal32_geomean_x"] = booster_geomean(iterations[-1].rows)
    return values, detail


def traced_run(
    workload: Workload, seconds: float, per_layer: list[dict]
) -> tuple[dict[str, float], dict]:
    bench = workload.bench
    workload.setup()
    untraced = timed_iterations(workload, seconds)
    workload.trace_begin()
    bench.tracing = True
    traced, windows = [], []
    for _ in range(TRACED_ITERATIONS):
        bench.span_files = []
        start = time.perf_counter()
        iteration = workload.iterate()
        windows.append((start, time.perf_counter(), list(bench.span_files)))
        traced.append(iteration)
    bench.tracing = False
    server_files = workload.close()
    layers = [
        aggregate.layer_metrics(load_span_batch(files + server_files, (lo, hi)))
        for lo, hi, files in windows
    ]
    problems, checks = [], 0
    counts = sorted({k for m in layers for k in m if is_count(k)})
    for name in counts:
        checks += 1
        seen = [m.get(name, 0) for m in layers]
        if len(set(seen)) > 1:
            problems.append(f"{name} differs between traced iterations: {seen}")
    predicted = workload.predicted()
    for m in layers:
        checks += len(predicted)
        problems += aggregate.count_mismatches(predicted, m)
    values = {
        m["name"]: statistics.mean(layer.get(m["name"], 0.0) for layer in layers)
        for m in per_layer
    }
    untraced_wall = statistics.median(it.wall_s for it in untraced)
    values["trace.overhead_ratio"] = statistics.mean(it.wall_s for it in traced) / untraced_wall
    if untraced[0].sim_requests:
        values["serving.sim_requests_per_s"] = statistics.median(
            it.sim_requests / it.serve_ref_wall_s for it in untraced
        )
    if workload.name == "cold-sweep":
        geomean = booster_geomean(traced[-1].rows)
        values["model.booster_vs_ideal32_geomean_x"] = geomean
        values["model.paper_geomean_x"] = PAPER_GEOMEAN_X
        values["model.geomean_rel_error"] = (geomean - PAPER_GEOMEAN_X) / PAPER_GEOMEAN_X
    detail = {
        "untraced_iterations": len(untraced),
        "traced_iterations": len(traced),
        "count_checks": checks,
        "count_problems": problems,
    }
    return values, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)  # fmt: skip
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())

    def interrupted(signum: int, frame: object) -> None:
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, interrupted)
    # A caught signal resets to the default in exec'd children, an ignored
    # one stays ignored: a benchmark started in the background must not hand
    # store-serve an ignored SIGINT, its only clean exit.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    pinned_cpu = pin_to_one_cpu()
    work = WORK_ROOT / f"run-{os.getpid()}"
    reset_dir(work)
    bench = Bench(args.seed, work)
    workload = WORKLOADS[args.workload](bench)
    try:
        if args.trace:
            values, detail = traced_run(workload, args.seconds, config["per_layer"])
            problems, checks = detail["count_problems"], detail["count_checks"]
            metrics = metric_doc(config["per_layer"], values)
        else:
            values, detail = untraced_run(workload, args.seconds)
            problems, checks = [], 0
            metrics = metric_doc(config["end_to_end"], values)
    finally:
        workload.close()
        bench.save_ledger()
        shutil.rmtree(work, ignore_errors=True)

    for cmd in bench.commands:
        for problem in cmd.problems:
            print(f"FAILED repro {' '.join(cmd.args)}: {problem}", file=sys.stderr)
    for problem in problems:
        print(f"FAILED trace self-check: {problem}", file=sys.stderr)
    failed = sum(bool(c.problems) for c in bench.commands) + len(problems)
    attempted = len(bench.commands) + checks
    detail["provenance"] = dict(provenance_info(bench.sim_codes), pinned_cpu=pinned_cpu)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "detail": detail}))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
