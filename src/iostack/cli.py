"""Command-line entry point: replay a trace or a generated workload.

    simulate --config sim.ini --trace capture.txt --output out/
    simulate --config sim.ini --generate --output out/ --seed 7 --dump-events
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import sys
from pathlib import Path

from .config import REPLAY_MODES, ConfigError, RunSpec, load_config
from .engine import Observer, StageFault
from .replay import TraceReplayError, replay
from .reports import BaselineError, emit_reports, load_baseline, open_event_log
from .trace import NotUtf8, TraceError, ingest_text, read_canonical, read_utf8
from .workload import generate


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="simulate",
        description="Trace-driven storage stack simulator: replay real or synthetic I/O "
        "against a configurable cache/scheduler/disk model.",
    )
    p.add_argument("--config", required=True, help="INI configuration file")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--trace", help="trace file (tracer text or canonical format)")
    source.add_argument(
        "--generate", action="store_true", help="generate the workload from [workload] sections"
    )
    p.add_argument("--output", required=True, help="report output directory")
    p.add_argument("--seed", type=_non_negative_int, help="override the seed of every generator")
    p.add_argument("--replay", choices=list(REPLAY_MODES), help="override the replay mode")
    p.add_argument("--baseline", help="measured per-request latency file")
    p.add_argument(
        "--tolerance-us", type=_non_negative_int, help="closed-loop response-time tolerance"
    )
    p.add_argument("--dump-events", action="store_true", help="also write the event log")
    return p


def _as_run(args, spec: RunSpec) -> RunSpec:
    """``spec`` with the command-line overrides applied: its echo loads back as this run."""

    policy = spec.policy
    if args.replay is not None:
        policy = dataclasses.replace(policy, mode=REPLAY_MODES[args.replay])
    if args.tolerance_us is not None:
        policy = dataclasses.replace(policy, tolerance_us=args.tolerance_us)
    baseline_path = args.baseline or spec.baseline_path
    if baseline_path:
        policy = dataclasses.replace(policy, baseline_us=load_baseline(baseline_path))
    workloads = spec.workloads
    if args.seed is not None:
        workloads = [dataclasses.replace(w, seed=args.seed + i) for i, w in enumerate(workloads)]
    trace_path = None if args.generate else args.trace or spec.trace_path
    return dataclasses.replace(
        spec, policy=policy, workloads=workloads, baseline_path=baseline_path, trace_path=trace_path
    )


def _run(spec: RunSpec, observe: Observer | None):
    """The replay of the trace or generated workload, with the trace's defect report."""

    if spec.trace_path is None:
        if not spec.workloads:
            raise ConfigError("workload: no [workload] section to generate from and no trace")
        requests = [r for w in spec.workloads for r in generate(w)]
        requests.sort(key=lambda r: r.issue_time_us)
        return replay(requests, spec.stack, spec.policy, observe), None
    text = read_utf8(spec.trace_path)
    report = None
    try:
        if text.startswith("#iostack-trace"):
            requests = read_canonical(io.StringIO(text))
        else:
            requests, report = ingest_text(text, spec.cluster_bytes, spec.system_processes)
        return replay(requests, spec.stack, spec.policy, observe), report
    except (TraceError, TraceReplayError) as exc:
        position = getattr(exc, "position", None)
        if report is not None and position is not None:
            # A tracer trace names the request by its line's seq.
            exc = TraceReplayError(f"seq {report.seqs[position]} {exc.detail}")
        raise type(exc)(f"{spec.trace_path}: {exc}") from None


def _read_config(path: str) -> RunSpec:
    try:
        return load_config(read_utf8(path))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        spec = _as_run(args, _read_config(args.config))
        # The event log streams to its file while the run it reports runs.
        with open_event_log(args.output) if args.dump_events else contextlib.nullcontext() as log:
            observe = None if log is None else lambda e: log.write(e.describe() + "\n")
            result, defect_report = _run(spec, observe)
        files = emit_reports(
            result.records, result.summary, args.output, effective_config=spec.echo
        )
        if log is not None:
            files.append(Path(log.name))
        else:
            # An earlier run's log goes, so no log sits beside these reports.
            (Path(args.output) / "events.log").unlink(missing_ok=True)
    except (
        ConfigError, TraceError, TraceReplayError, BaselineError, StageFault, NotUtf8, OSError
    ) as exc:
        print(f"simulate: error: {exc}", file=sys.stderr)
        return 2

    if defect_report is not None and defect_report.dropped_lines:
        for ident, reason in defect_report.dropped_lines:
            print(f"simulate: dropped line {ident}: {reason}", file=sys.stderr)
    s = result.summary
    print(f"requests={s.total_requests} bytes={s.total_bytes}")
    print(f"total_response_us={s.total_response_us}")
    print(f"throughput_bytes_per_s={s.throughput_bytes_per_s:.0f}")
    for path in files:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
