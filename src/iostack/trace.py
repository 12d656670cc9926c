"""Filemon-style trace ingestion.

Parses the tracer's text records, repairs the known defects of that format
(relative displacements instead of logical disk addresses, OS helper-process
requests mixed into the application stream), and emits canonical requests.
Also defines the line-oriented canonical trace format shared by real and
synthetic workloads.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import IO, Iterable

from .requests import AccessMode, CanonicalRequest, Op, Origin

CANONICAL_FORMAT_VERSION = 1

#: Processes whose I/O is OS housekeeping, not application workload.
DEFAULT_SYSTEM_PROCESSES = ("csrss.exe", "explorer.exe")


class TraceError(Exception):
    """Base class for trace ingestion failures.

    ``seq`` is the tracer seq of the line at fault, or None when none was
    read; the message then starts ``seq N:``.
    """

    def __init__(self, message: str, seq: int | None = None) -> None:
        super().__init__(message if seq is None else f"seq {seq}: {message}")
        self.seq = seq


class MalformedLine(TraceError):
    pass


class UnknownOp(TraceError):
    pass


class BadTime(TraceError):
    pass


class CanonicalFormatError(TraceError):
    pass


class NotUtf8(ValueError):
    """An input file is not UTF-8 text."""


def read_utf8(path: str | Path) -> str:
    """The text of the UTF-8 file ``path``; any other encoding raises :class:`NotUtf8`."""

    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise NotUtf8(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None


class OpenFlag(Enum):
    """Open-time option tokens that matter to the cache model."""

    NO_BUFFER = "NoBuffer"
    WRITE_THROUGH = "WriteThrough"
    SEQUENTIAL_SCAN = "SequentialScan"


_FLAG_TOKENS = {f.value: f for f in OpenFlag}

_TIME_RE = re.compile(r"^(\d{1,2}):(\d{1,2}):(\d{1,2})(?:\.(\d{1,6}))?$")
_IO_DETAIL_RE = re.compile(r"LCN:\s*(\d+)\s+Offset:\s*(\d+)\s+Length:\s*(\d+)")
# Records are tab-delimited; some captures use runs of spaces instead.  A
# single space never separates fields, so paths with spaces survive.
_FIELD_SPLIT_RE = re.compile(r"\t+| {2,}")


@dataclass
class RawTraceLine:
    seq: int
    wallclock_us: int
    process_name: str
    pid: int
    op: Op
    path: str
    lcn: int | None = None
    offset_bytes: int | None = None
    length_bytes: int | None = None
    flags: frozenset[OpenFlag] = frozenset()


@dataclass
class TraceDefectReport:
    """Where each request of an ingested trace came from, and what was dropped.

    Totality: every record line is either emitted as a CanonicalRequest,
    whose tracer seq ``seqs`` holds at the request's index, or listed with
    its reason in ``dropped_lines``, in line order.
    """

    dropped_lines: list[tuple[int, str]] = field(default_factory=list)
    seqs: list[int] = field(default_factory=list)


def _parse_wallclock(token: str, seq: int) -> int:
    m = _TIME_RE.match(token)
    if not m:
        raise BadTime(f"unparseable timestamp {token!r}", seq)
    hours, minutes, seconds = int(m.group(1)), int(m.group(2)), int(m.group(3))
    if hours > 23 or minutes > 59 or seconds > 59:
        raise BadTime(f"timestamp field out of range in {token!r}", seq)
    frac = (m.group(4) or "").ljust(6, "0")
    return (hours * 3600 + minutes * 60 + seconds) * 1_000_000 + int(frac)


def parse_trace_line(line: str) -> RawTraceLine:
    """Parse one Filemon record into its raw fields.

    The tracer prints hours and minutes without leading zeros, so one- and
    two-digit fields are both accepted.  Raises :class:`MalformedLine`,
    :class:`UnknownOp` or :class:`BadTime`, each carrying the seq it read
    (``None`` when the line holds no readable seq).
    """

    fields = [f for f in _FIELD_SPLIT_RE.split(line.strip()) if f]
    if len(fields) < 5:
        raise MalformedLine(f"expected seq/time/process/op/path, got {len(fields)} fields")
    try:
        seq = int(fields[0])
    except ValueError:
        raise MalformedLine(f"missing or non-numeric seq {fields[0]!r}") from None

    wallclock_us = _parse_wallclock(fields[1], seq)

    proc = fields[2]
    name, colon, pid_text = proc.rpartition(":")
    if not colon or not pid_text.isdigit():
        raise MalformedLine(f"process field {proc!r} is not name:pid", seq)
    pid = int(pid_text)

    op_token = fields[3].upper()
    try:
        op = Op(op_token)
    except ValueError:
        raise UnknownOp(f"unknown operation {fields[3]!r}", seq) from None

    path = fields[4]
    trailer = " ".join(fields[5:])

    lcn = offset = length = None
    if op in (Op.READ, Op.WRITE):
        detail = _IO_DETAIL_RE.search(trailer)
        if not detail:
            raise MalformedLine(f"{op.value} line without LCN/Offset/Length", seq)
        lcn, offset, length = (int(g) for g in detail.groups())

    flags = frozenset(
        _FLAG_TOKENS[tok] for tok in trailer.replace(":", " ").split() if tok in _FLAG_TOKENS
    )

    return RawTraceLine(
        seq=seq,
        wallclock_us=wallclock_us,
        process_name=name,
        pid=pid,
        op=op,
        path=path,
        lcn=lcn,
        offset_bytes=offset,
        length_bytes=length,
        flags=flags,
    )


def _mode_from_flags(flags: frozenset[OpenFlag]) -> AccessMode:
    # NoBuffer dominates: it disables the cache outright, the other flags
    # only tune it.
    if OpenFlag.NO_BUFFER in flags:
        return AccessMode.NO_BUFFER
    if OpenFlag.WRITE_THROUGH in flags:
        return AccessMode.WRITE_THROUGH
    if OpenFlag.SEQUENTIAL_SCAN in flags:
        return AccessMode.SEQUENTIAL
    return AccessMode.NORMAL


def ingest_text(
    text: str,
    cluster_size_bytes: int = 4096,
    system_processes: Iterable[str] = DEFAULT_SYSTEM_PROCESSES,
) -> tuple[list[CanonicalRequest], TraceDefectReport]:
    """Turn a tracer capture into canonical requests, repairing known defects.

    Each record line is parsed, repaired and emitted or dropped in turn, so
    ``dropped_lines`` is in line order.  A line that does not parse is
    dropped under the seq :func:`parse_trace_line` read from it, or its
    1-based line number when it read none.  Logical disk addresses are
    reconstructed from cluster number and displacement; the open-time
    access mode is propagated to every READ/WRITE of the session; lines
    issued by deny-listed helper processes are tagged ``origin=SYSTEM`` so
    replay can exclude them.  Session teardown (CLOSE) keeps the application
    origin: once a helper's opens and I/O are excluded its close is inert.
    READ/WRITE lines with no prior OPEN are dropped and reported as
    OrphanIO.
    """

    if cluster_size_bytes < 512 or cluster_size_bytes & (cluster_size_bytes - 1):
        raise ValueError("cluster_size_bytes must be a power of two >= 512")
    deny = set(system_processes)
    report = TraceDefectReport()
    requests: list[CanonicalRequest] = []
    file_ids: dict[str, int] = {}
    sessions: dict[tuple[int, int], AccessMode] = {}
    last_time = -1

    for lineno, text_line in enumerate(text.splitlines(), start=1):
        stripped = text_line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            line = parse_trace_line(text_line)
        except TraceError as exc:
            ident = lineno if exc.seq is None else exc.seq
            report.dropped_lines.append((ident, f"{type(exc).__name__}: {exc}"))
            continue

        if line.wallclock_us < last_time:
            raise BadTime("wallclock went backwards (midnight rollover unsupported)", line.seq)
        last_time = line.wallclock_us

        file_id = file_ids.setdefault(line.path, len(file_ids))
        session_key = (line.pid, file_id)

        if line.op is Op.OPEN:
            mode = _mode_from_flags(line.flags)
            sessions[session_key] = mode
        elif line.op is Op.CLOSE:
            mode = sessions.pop(session_key, AccessMode.NORMAL)
        else:
            if session_key not in sessions:
                report.dropped_lines.append((line.seq, "OrphanIO"))
                continue
            mode = sessions[session_key]

        system = line.process_name in deny and line.op is not Op.CLOSE
        offset_bytes = line.offset_bytes or 0
        requests.append(
            CanonicalRequest(
                issue_time_us=line.wallclock_us,
                origin=Origin.SYSTEM if system else Origin.APP,
                op=line.op,
                file_id=file_id,
                file_offset_bytes=offset_bytes,
                length_bytes=line.length_bytes or 0,
                disk_byte_addr=(line.lcn or 0) * cluster_size_bytes + offset_bytes,
                mode=mode,
            )
        )
        report.seqs.append(line.seq)
    return requests, report


def write_canonical(
    requests: Iterable[CanonicalRequest],
    sink: str | Path | IO[str],
) -> int:
    """Write requests in the canonical trace format; returns bytes written.

    The format is line oriented (one request per line, fixed field order)
    with a header carrying the format version, so traces diff cleanly in
    tests.  Requests hold disk byte addresses, so the header's
    ``cluster_bytes=4096`` is informational: no reader uses it.
    """

    out = io.StringIO()
    out.write(f"#iostack-trace v{CANONICAL_FORMAT_VERSION} cluster_bytes=4096\n")
    out.write("#issue_us origin op file_id offset_bytes length_bytes disk_byte_addr mode\n")
    for r in requests:
        out.write(
            f"{r.issue_time_us} {r.origin.value} {r.op.value} {r.file_id} "
            f"{r.file_offset_bytes} {r.length_bytes} {r.disk_byte_addr} {r.mode.value}\n"
        )
    data = out.getvalue()
    if isinstance(sink, (str, Path)):
        Path(sink).write_text(data, encoding="utf-8")
    else:
        sink.write(data)
    return len(data.encode("utf-8"))


def read_canonical(source: str | Path | IO[str]) -> list[CanonicalRequest]:
    """Read a canonical trace; exact inverse of :func:`write_canonical`."""

    text = read_utf8(source) if isinstance(source, (str, Path)) else source.read()
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#iostack-trace v"):
        raise CanonicalFormatError("missing canonical trace header")
    version = lines[0].split()[1].removeprefix("v")
    if version != str(CANONICAL_FORMAT_VERSION):
        raise CanonicalFormatError(
            f"unsupported canonical trace version {version!r} "
            f"(expected {CANONICAL_FORMAT_VERSION})"
        )
    requests = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 8:
            raise CanonicalFormatError(f"line {lineno}: expected 8 fields, got {len(parts)}")
        try:
            requests.append(
                CanonicalRequest(
                    issue_time_us=int(parts[0]),
                    origin=Origin(parts[1]),
                    op=Op(parts[2]),
                    file_id=int(parts[3]),
                    file_offset_bytes=int(parts[4]),
                    length_bytes=int(parts[5]),
                    disk_byte_addr=int(parts[6]),
                    mode=AccessMode(parts[7]),
                )
            )
        except ValueError as exc:
            raise CanonicalFormatError(f"line {lineno}: {exc}") from None
    return requests
