"""Run report emission: per-request table, summary, and the event log's file.

All outputs are versioned, line-oriented text with deterministic content,
so two runs of the same inputs produce byte-identical files.
"""

from __future__ import annotations

from pathlib import Path
from typing import TextIO

from .requests import RequestRecord, Summary
from .trace import read_utf8

REPORT_FORMAT_VERSION = 1


def format_request_table(records: list[RequestRecord]) -> str:
    lines = [
        f"#iostack-report v{REPORT_FORMAT_VERSION}",
        "id,issue_us,complete_us,latency_us,bytes,op,mode,origin",
    ]
    for r in records:
        lines.append(
            f"{r.request_id},{r.issue_us},{r.complete_us},{r.latency_us},"
            f"{r.bytes},{r.op.value},{r.mode.value},{r.origin.value}"
        )
    return "\n".join(lines) + "\n"


def format_summary(summary: Summary, effective_config: dict[str, str] | None = None) -> str:
    lines = [
        f"#iostack-summary v{REPORT_FORMAT_VERSION}",
        f"total_requests={summary.total_requests}",
        f"total_bytes={summary.total_bytes}",
        f"total_response_us={summary.total_response_us}",
        f"first_issue_us={summary.first_issue_us}",
        f"last_complete_us={summary.last_complete_us}",
        f"makespan_us={summary.makespan_us}",
        f"throughput_bytes_per_s={summary.throughput_bytes_per_s:.6f}",
    ]
    for mode, bucket in summary.per_mode.items():
        for key, value in bucket.items():
            lines.append(f"mode.{mode}.{key}={value}")
    if effective_config:
        lines.append("[config]")
        for key, value in effective_config.items():
            lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"


def emit_reports(
    records: list[RequestRecord],
    summary: Summary,
    out_dir: str | Path,
    effective_config: dict[str, str] | None = None,
) -> list[Path]:
    """Write the run reports; returns the list of files written."""

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    requests_path = out / "requests.csv"
    requests_path.write_text(format_request_table(records), encoding="utf-8")
    written.append(requests_path)
    summary_path = out / "summary.txt"
    summary_path.write_text(format_summary(summary, effective_config), encoding="utf-8")
    written.append(summary_path)
    return written


def open_event_log(out_dir: str | Path) -> TextIO:
    """``out_dir/events.log``, created with its header, for a run to stream its events into."""

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fp = (out / "events.log").open("w", encoding="utf-8")
    fp.write(f"#iostack-events v{REPORT_FORMAT_VERSION}\n")
    return fp


def error_percent(measured_us: float, simulated_us: float) -> float:
    """Relative error of a simulated duration against a measured one."""

    if measured_us <= 0:
        raise ZeroBaseline("measured duration must be positive")
    return 100.0 * abs(measured_us - simulated_us) / measured_us


class ZeroBaseline(ValueError):
    pass


class BaselineError(ValueError):
    """A baseline file is malformed."""


def load_baseline(path: str | Path) -> dict[int, int]:
    """Read a measured-latency baseline: one '<ordinal> <latency_us>' line per ordinal."""

    lines = read_utf8(path).splitlines()
    if not lines or not lines[0].startswith("#iostack-baseline v"):
        raise BaselineError(f"{path}: missing '#iostack-baseline v' header")
    baseline = {}
    for number, line in enumerate(lines[1:], start=2):
        if not line or line.startswith("#"):
            continue
        try:
            ordinal, latency = map(int, line.split())
        except ValueError:
            raise BaselineError(
                f"{path}:{number}: expected '<ordinal> <latency_us>', got {line!r}"
            ) from None
        if ordinal < 0 or latency < 0:
            raise BaselineError(f"{path}:{number}: ordinal and latency must be >= 0, got {line!r}")
        if ordinal in baseline:
            raise BaselineError(f"{path}:{number}: ordinal {ordinal} is given twice")
        baseline[ordinal] = latency
    return baseline


def write_baseline(baseline: dict[int, int], path: str | Path) -> None:
    lines = [f"#iostack-baseline v{REPORT_FORMAT_VERSION}"]
    for ordinal in sorted(baseline):
        lines.append(f"{ordinal} {baseline[ordinal]}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
