"""iostack benchmark: replay generated traces and report host-time metrics.

    python3 perfbench/run.py --workload buffered_read --seed 1 --seconds 30 --trace 0

Run from the repository root; the simulator is imported from ``src/``.  The
workloads are described in ``perfbench/workloads.py`` and the reasons for
them, and for each metric, in ``perfbench/RATIONALE.md``.

``--trace 0`` replays the full-length trace and a quarter-length prefix of it
in turns for ``--seconds`` seconds.  Every timed call is bracketed by runs of
a fixed calibration kernel (``calibrate.py``) and scaled to a host that runs
that kernel in ``REFERENCE_KERNEL_S``; each end-to-end time metric is the
median of its scaled samples over the run.
``--trace 1`` alternates untraced and traced full-length replays and reports
the per-layer split (see ``tracing.py``).  ``--smoke`` shrinks the traces and
repetitions so a test can run every path in a few seconds.

Every replay is checked: each effective request must have a completion
record, and on ``mixed_rw`` the media image must equal the directly applied
reference image, or every request of that replay counts as failed.  Replays
of one trace, traced or not, must simulate the same run: the same event count
and the same per-request issue and completion times.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: Seed kept out of every tuning run; a later claim should also hold on it.
HELD_OUT_SEED = 7919
#: Set-up and report timings last milliseconds, so each round of replays
#: takes many of them: set-ups in one batch, reports in batches of
#: REPORT_BATCH, each batch between its own calibration brackets.
SETUP_REPS = 16
REPORT_REPS = 64
REPORT_BATCH = 8
#: Calibration kernel runs on each side of a replay or set-up batch (one on
#: each side of a report batch); their median is the host's speed meanwhile.
KERNEL_REPS = 3
#: Seconds the calibration kernel takes on the quiet host the benchmark was
#: tuned on (Python 3.11.7, 2 vCPUs).  Scaled times read as times on that host.
REFERENCE_KERNEL_S = 0.0075

END_TO_END_UNITS = {
    "replay_req_per_s": "req/s",
    "replay_events_per_s": "events/s",
    "setup_s": "s",
    "report_s": "s",
    "peak_rss_mb": "MB",
}

STAGES = ("app", "fs_stage", "scheduler_stage", "disk_cache_stage", "disk_stage")

PER_LAYER_UNITS = {
    **{f"replay.{s}.{k}": u for s in STAGES for k, u in (("s", "s"), ("calls", "count"))},
    "engine.self_s": "s",
    "engine.events_per_request": "events/req",
    "diskcache.missing_runs.s": "s",
    "diskcache.read_lookup.s": "s",
    "diskcache.resident.s": "s",
    "diskcache.on_media_data.s": "s",
    "diskcache.hit_ratio": "ratio",
    "diskcache.partial_ratio": "ratio",
    "diskcache.write_accept.s": "s",
    "diskcache.destage_next.s": "s",
    "diskcache.ack_now_ratio": "ratio",
    "fscache.on_block_loaded.s": "s",
    "fscache.on_read.s": "s",
    "fscache.hit_ratio": "ratio",
    "fscache.prefetch_ios": "count",
    "fscache.on_write.s": "s",
    "fscache.flush.s": "s",
    "fscache.write_splits": "count",
    "fscache.flushes": "count",
    "scheduler.next.s": "s",
    "scheduler.enqueue.s": "s",
    "scheduler.depth_mean": "entries",
    "scheduler.depth_max": "entries",
    "scheduler.travel_cylinders": "cylinders",
    "disk.service.s": "s",
    "disk.service.calls": "count",
    "disk.cylinder_of_byte.s": "s",
    "disk.sectors": "sectors",
    "trace.read_canonical.s": "s",
    "reports.emit_reports.s": "s",
    "trace_overhead": "ratio",
}


class Run:
    """One benchmark run: its traces, its checks and its failure counts."""

    def __init__(self, workload: str, seed: int, smoke: bool, work: Path):
        import iostack
        import workloads

        self.iostack = iostack
        self.workloads = workloads
        self.workload = workload
        self.work = work
        n = workloads.SMOKE_REQUESTS if smoke else workloads.FULL_REQUESTS
        self.setup_reps = 1 if smoke else SETUP_REPS
        self.report_reps = 1 if smoke else REPORT_REPS
        self.report_batch = 1 if smoke else REPORT_BATCH
        self.kernel_reps = 1 if smoke else KERNEL_REPS
        # Generated before any timing starts.
        self.full = workloads.generate_trace(workload, n, seed)
        self.quarter = workloads.generate_trace(workload, n // 4, seed)
        self.stack = workloads.stack_config(workload)
        self.policy = workloads.replay_policy(workload)
        self.trace_path = work / "trace.txt"
        iostack.write_canonical(self.full, self.trace_path)
        self.references: dict[int, dict[int, int]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.outcomes: dict[int, tuple] = {}

    # -- set-up, replay and reports ---------------------------------------

    def setup(self) -> float:
        """Seconds to load the written trace and build the stack config."""

        started = time.perf_counter()
        requests = self.iostack.trace.read_canonical(self.trace_path)
        self.workloads.stack_config(self.workload)
        elapsed = time.perf_counter() - started
        if requests != self.full:
            self.problems.append("read_canonical did not return the written trace")
        return elapsed

    def replay(self, trace):
        """(wall seconds, result) of one checked replay; result None on error."""

        gc.collect()
        started = time.perf_counter()
        try:
            result = self.iostack.replay(trace, self.stack, self.policy)
        except Exception as exc:  # a stage fault fails the run, not the harness
            self.attempted += len(trace)
            self.failed += len(trace)
            self.problems.append(f"replay raised {exc!r}")
            return time.perf_counter() - started, None
        elapsed = time.perf_counter() - started
        self._check(result)
        return elapsed, result

    def _check(self, result) -> None:
        effective = result.effective_requests
        self.attempted += len(effective)
        completed = {r.request_id for r in result.records}
        missing = len(effective) - len(completed & set(range(len(effective))))
        if missing:
            self.problems.append(f"{missing} of {len(effective)} requests never completed")
        if self.workload == "mixed_rw":
            key = len(effective)
            if key not in self.references:
                self.references[key] = self.iostack.reference_media_image(effective)
            if result.media_image != self.references[key]:
                self.problems.append(f"media image differs from the reference ({key} requests)")
                missing = len(effective)
        self.failed += missing
        # Every replay of one trace, traced or not, must simulate the same run.
        outcome = (len(result.event_log), [(r.issue_us, r.complete_us) for r in result.records])
        if self.outcomes.setdefault(len(effective), outcome) != outcome:
            self.problems.append(f"replays of the {len(effective)}-request trace differ")

    def reports(self, result, reps: int) -> list[float]:
        """Seconds of each of ``reps`` writes of requests.csv and summary.txt for one replay.

        Each write goes to a directory of its own, as a user's run would, so
        none truncates a file that an earlier one left dirty in the page
        cache; the batch's directories are removed after its last write.
        """

        batch = self.work / "reports"
        times = []
        for i in range(reps):
            started = time.perf_counter()
            self.iostack.reports.emit_reports(result.records, result.summary, batch / str(i))
            times.append(time.perf_counter() - started)
        shutil.rmtree(batch)
        return times

    def peak_rss_mb(self, probe: subprocess.Popen) -> float:
        """Peak RSS of the probe process once it has loaded and replayed the trace."""

        stdout, stderr = probe.communicate(f"{self.trace_path}\n", timeout=120)
        if probe.returncode != 0:
            self.problems.append(f"rss probe failed: {stderr.strip()[-300:]}")
            self.attempted += len(self.full)
            self.failed += len(self.full)
            return 0.0
        out = json.loads(stdout.strip().splitlines()[-1])
        self.attempted += out["effective"]
        if out["completed"] != out["effective"]:
            self.problems.append("rss probe replay left requests uncompleted")
            self.failed += out["effective"] - out["completed"]
        return out["peak_rss_mb"]


def model_outputs(result) -> dict[str, object]:
    """Simulated-time outputs of one replay: exact for a seed, no direction."""

    from iostack import Op

    latencies = sorted(r.latency_us for r in result.records if r.op in (Op.READ, Op.WRITE))
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    return {
        "sim_p50_us": cuts[49],
        "sim_p99_us": cuts[98],
        "sim_samples": len(latencies),
        "sim_MB_per_s": result.summary.throughput_bytes_per_s / 1e6,
        "events": len(result.event_log),
        "event_log_sha256": hashlib.sha256(result.event_log.to_text().encode()).hexdigest(),
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def bracketed(call, kernel_reps: int):
    """``call()``'s result and the host's calibration-kernel seconds around it.

    The kernel runs ``kernel_reps`` times just before and just after the
    call; the median of those times is the host's speed while the call ran.
    """

    before = [calibrate.seconds() for _ in range(kernel_reps)]
    out = call()
    after = [calibrate.seconds() for _ in range(kernel_reps)]
    return out, statistics.median(before + after)


def _rounds(seconds: float):
    """Count rounds; one more starts only while it is likely to end by the deadline.

    Stopping when half an average round would overrun keeps a run's length
    near ``seconds`` whether rounds take two seconds or twelve.
    """

    started = time.perf_counter()
    done = 0
    while True:
        yield done
        done += 1
        now = time.perf_counter()
        if now + (now - started) / done / 2 >= started + seconds:
            return


# -- trace 0: end-to-end ------------------------------------------------------


def end_to_end(run: Run, seconds: float, probe: subprocess.Popen) -> tuple[dict[str, float], dict[str, object]]:
    # Samples scaled to the reference host; ``raw`` keeps them as measured.
    full, quarter, events, setups, reports = [], [], [], [], []
    raw = {k: [] for k in ("full", "setup", "report", "kernel")}
    model: dict[str, object] = {}

    def scaled(call, kernel_reps: int = run.kernel_reps):
        """``call()``'s result and the factor from host to reference seconds around it."""

        out, kernel_s = bracketed(call, kernel_reps)
        raw["kernel"].append(kernel_s)
        return out, REFERENCE_KERNEL_S / kernel_s

    # Set-up and report timings are spread over the run like the replays, so
    # each metric sees the same spells of host load.
    for _ in _rounds(seconds):
        times, scale = scaled(lambda: [run.setup() for _ in range(run.setup_reps)])
        raw["setup"] += times
        setups += [t * scale for t in times]
        (wall, result), scale = scaled(lambda: run.replay(run.full))
        if result is not None:
            raw["full"].append(len(result.effective_requests) / wall)
            full.append(len(result.effective_requests) / (wall * scale))
            events.append(len(result.event_log) / (wall * scale))
            if not model:
                model = model_outputs(result)
            # Short batches, each between its own pair of single kernel runs.
            for _ in range(run.report_reps // run.report_batch):
                times, scale = scaled(lambda: run.reports(result, run.report_batch), 1)
                raw["report"] += times
                reports += [t * scale for t in times]
        del result  # at most one full-length result alive at a time
        (wall, result), scale = scaled(lambda: run.replay(run.quarter))
        if result is not None:
            quarter.append(len(result.effective_requests) / (wall * scale))
        del result

    metrics = {
        "replay_req_per_s": _median(full),
        "replay_events_per_s": _median(events),
        "setup_s": _median(setups),
        "report_s": _median(reports),
        "peak_rss_mb": run.peak_rss_mb(probe),
    }
    diagnostics = {
        **model,
        # Too noisy on a shared host to gate on: printed, not reported.
        "scaling_ratio": _ratio(_median(full), _median(quarter)),
        "full_replays_req_per_s": " ".join(f"{v:.0f}" for v in full),
        "quarter_replays_req_per_s": " ".join(f"{v:.0f}" for v in quarter),
        # The same as measured on this host, unscaled.
        "host_full_replays_req_per_s": " ".join(f"{v:.0f}" for v in raw["full"]),
        "host_replay_req_per_s_median": _median(raw["full"]),
        "host_setup_s_median": _median(raw["setup"]),
        "host_report_s_median": _median(raw["report"]),
        "host_kernel_s_median": _median(raw["kernel"]),
    }
    return metrics, diagnostics


# -- trace 1: per-layer -----------------------------------------------------------


def layer_split(tracer, own: dict, requests: int, events: int) -> dict[str, float]:
    """Per-layer metrics of the one replay recorded in ``tracer``; ``own`` holds its self times."""

    c = tracer.counts

    def s(name: str) -> float:
        return float(own[name].sum())

    m: dict[str, float] = {}
    for stage in STAGES:
        m[f"replay.{stage}.s"] = s(f"replay.{stage}")
        m[f"replay.{stage}.calls"] = len(own[f"replay.{stage}"])
    m["engine.self_s"] = s("engine.run")
    m["engine.events_per_request"] = events / requests
    for name in ("missing_runs", "read_lookup", "resident", "on_media_data", "write_accept",
                 "destage_next"):
        m[f"diskcache.{name}.s"] = s(f"diskcache.{name}")
    m["diskcache.hit_ratio"] = _ratio(c["diskcache.hits"], c["diskcache.lookups"])
    m["diskcache.partial_ratio"] = _ratio(c["diskcache.partials"], c["diskcache.lookups"])
    m["diskcache.ack_now_ratio"] = _ratio(c["diskcache.ack_now"], c["diskcache.write_accepts"])
    for name in ("on_block_loaded", "on_read", "on_write"):
        m[f"fscache.{name}.s"] = s(f"fscache.{name}")
    m["fscache.flush.s"] = s("fscache.flush_all") + s("fscache.next_progressive_flush")
    m["fscache.hit_ratio"] = _ratio(c["fscache.read_hits"], c["fscache.reads"])
    m["fscache.prefetch_ios"] = c["fscache.prefetch_ios"]
    m["fscache.write_splits"] = c["fscache.write_splits"]
    m["fscache.flushes"] = c["fscache.flushes"]
    m["scheduler.next.s"] = s("scheduler.next")
    m["scheduler.enqueue.s"] = s("scheduler.enqueue")
    m["scheduler.depth_mean"] = _ratio(c["scheduler.depth_sum"], c["scheduler.enqueues"])
    m["scheduler.depth_max"] = tracer.gauges.get("scheduler.depth_max", 0)
    m["scheduler.travel_cylinders"] = tracer.gauges.get("scheduler.travel_cylinders", 0)
    m["disk.service.s"] = s("disk.service")
    m["disk.service.calls"] = len(own["disk.service"])
    m["disk.cylinder_of_byte.s"] = s("disk.cylinder_of_byte")
    m["disk.sectors"] = c["disk.sectors"]
    return m


def per_layer(run: Run, seconds: float, spans_path: Path) -> tuple[dict[str, float], dict]:
    from tracing import Tracer, traced

    tracer = Tracer()
    overheads, splits, loads, reports = [], [], [], []
    for _ in _rounds(seconds):
        plain, result = run.replay(run.full)
        if result is None:
            plain = 0.0
        del result
        tracer.reset()
        with traced(tracer):
            for _ in range(run.setup_reps):
                run.setup()
            wall, result = run.replay(run.full)
            if result is not None:
                run.reports(result, run.report_reps)
        own = tracer.self_times()
        if result is not None:
            # Paired with the untraced replay just before, in the same spell
            # of host load.
            overheads.append(_ratio(wall, plain))
            splits.append(layer_split(tracer, own, len(result.effective_requests), len(result.event_log)))
        del result
        loads += list(own["trace.read_canonical"])
        reports += list(own["reports.emit_reports"])
    tracer.save(spans_path)

    metrics = {name: _median([split[name] for split in splits]) for name in splits[0]} if splits else {}
    metrics["trace.read_canonical.s"] = _median(loads)
    metrics["reports.emit_reports.s"] = _median(reports)
    metrics["trace_overhead"] = _median(overheads)
    return metrics, {"traced_rounds": len(splits), "spans_file": spans_path.relative_to(HERE.parent)}


# -- entry point ---------------------------------------------------------------------


def _args(argv: list[str] | None) -> argparse.Namespace:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="short traces, few repetitions")
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "iostack" / "__init__.py").is_file():
        print(f"run.py: the iostack sources are missing ({SRC}/iostack)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = _args(argv)

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    # Linux carries a process's peak RSS across fork and exec into the child,
    # so the memory probe starts now, while this process is still small, and
    # waits for the trace path on its standard input.
    probe = None if args.trace else subprocess.Popen(
        [sys.executable, str(HERE / "rss_probe.py"), args.workload],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        run = Run(args.workload, args.seed, args.smoke, work)
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
            metrics, info = per_layer(run, args.seconds, spans)
            units = PER_LAYER_UNITS
        else:
            metrics, info = end_to_end(run, args.seconds, probe)
            units = END_TO_END_UNITS
    finally:
        if probe is not None and probe.poll() is None:
            probe.kill()
            probe.communicate()
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"requests={len(run.full)} quarter={len(run.quarter)} "
          f"python={platform.python_version()} nproc={len(os.sched_getaffinity(0))} held_out_seed={HELD_OUT_SEED}")
    for name, unit in units.items():
        print(f"  {name:<34} {metrics.get(name, 0.0):>16.6g} {unit}")
    for name, value in info.items():
        print(f"  {name:<34} {value}")
    print(f"  requests_attempted={run.attempted} requests_failed={run.failed}")
    checks = "; ".join(dict.fromkeys(run.problems)) if run.problems else "ok"
    print(f"  checks: completion, conservation (mixed_rw), determinism: {checks}")
    correct = not run.problems and run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
