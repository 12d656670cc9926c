"""Shared request model used by every layer of the simulated stack."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

#: Bytes per logical sector.  Every layer addresses the disk in these units.
SECTOR_BYTES = 512


def sector_range(lo: int, hi: int) -> range:
    """The sectors covering the byte range [lo, hi)."""

    return range(lo // SECTOR_BYTES, -(-hi // SECTOR_BYTES))


# These three hash by identity and are unpacked into module constants for
# the replay and report paths: see the comment at ``StageId.__hash__``.


class Op(enum.Enum):
    OPEN = "OPEN"
    READ = "READ"
    WRITE = "WRITE"
    CLOSE = "CLOSE"

    __hash__ = object.__hash__


class AccessMode(enum.Enum):
    """File access mode fixed at open time and sticky until close."""

    NORMAL = "NORMAL"
    SEQUENTIAL = "SEQUENTIAL"
    NO_BUFFER = "NO_BUFFER"
    WRITE_THROUGH = "WRITE_THROUGH"

    __hash__ = object.__hash__


class Origin(enum.Enum):
    APP = "APP"
    SYSTEM = "SYSTEM"

    __hash__ = object.__hash__


OPEN, READ, WRITE, CLOSE = Op
NORMAL, SEQUENTIAL, NO_BUFFER, WRITE_THROUGH = AccessMode
APP, SYSTEM = Origin
#: The report text of each op, access mode and origin, looked up once per field.
MEMBER_TEXT = {member: member.value for kind in (Op, AccessMode, Origin) for member in kind}


@dataclass(frozen=True, slots=True, init=False)
class CanonicalRequest:
    """One normalized I/O request, the unit every stage of the stack consumes.

    ``disk_byte_addr`` is the absolute on-disk position of the request
    (cluster number times cluster size plus the in-file offset for
    trace-derived requests); ``file_offset_bytes`` stays file-relative.  The
    caches key their state by disk address (see ``fscache``), so no stage
    reads the offset; the canonical trace format keeps it.

    A trace load builds one instance per line, so ``__init__`` is written
    out to check its arguments first and then set each field once.  Its
    parameters must stay the fields, in order, with the same default.
    """

    issue_time_us: int
    origin: Origin
    op: Op
    file_id: int
    file_offset_bytes: int
    length_bytes: int
    disk_byte_addr: int
    mode: AccessMode = AccessMode.NORMAL

    def __init__(
        self,
        issue_time_us: int,
        origin: Origin,
        op: Op,
        file_id: int,
        file_offset_bytes: int,
        length_bytes: int,
        disk_byte_addr: int,
        mode: AccessMode = AccessMode.NORMAL,
    ) -> None:
        if issue_time_us < 0:
            raise ValueError("issue_time_us must be >= 0")
        if file_offset_bytes < 0 or length_bytes < 0:
            raise ValueError("offset and length must be >= 0")
        if disk_byte_addr < 0:
            raise ValueError("disk_byte_addr must be >= 0")
        setfield = object.__setattr__
        setfield(self, "issue_time_us", issue_time_us)
        setfield(self, "origin", origin)
        setfield(self, "op", op)
        setfield(self, "file_id", file_id)
        setfield(self, "file_offset_bytes", file_offset_bytes)
        setfield(self, "length_bytes", length_bytes)
        setfield(self, "disk_byte_addr", disk_byte_addr)
        setfield(self, "mode", mode)


@dataclass(slots=True)
class RequestRecord:
    """Per-request outcome of a replay run."""

    request_id: int
    issue_us: int
    complete_us: int
    bytes: int
    op: Op
    mode: AccessMode
    origin: Origin

    def __post_init__(self) -> None:
        if self.complete_us < self.issue_us:
            raise ValueError("complete_us must be >= issue_us")

    @property
    def latency_us(self) -> int:
        return self.complete_us - self.issue_us


@dataclass
class Summary:
    """Aggregate metrics over the application-origin requests of one run."""

    total_requests: int = 0
    total_bytes: int = 0
    total_response_us: int = 0
    first_issue_us: int = 0
    last_complete_us: int = 0
    per_mode: dict = field(default_factory=dict)

    @property
    def makespan_us(self) -> int:
        return self.last_complete_us - self.first_issue_us

    @property
    def throughput_bytes_per_s(self) -> float:
        if self.makespan_us <= 0:
            return 0.0
        return self.total_bytes * 1_000_000 / self.makespan_us

    @classmethod
    def from_records(cls, records: list[RequestRecord]) -> "Summary":
        s = cls()
        # Mode text -> [requests, bytes, response_us], in first-seen order.
        modes: dict[str, list[int]] = {}
        text = MEMBER_TEXT
        first = last = None
        for r in records:
            if r.origin is not APP:
                continue
            issue, complete = r.issue_us, r.complete_us
            if first is None or issue < first:
                first = issue
            if last is None or complete > last:
                last = complete
            mode = text[r.mode]
            bucket = modes.get(mode)
            if bucket is None:
                bucket = modes[mode] = [0, 0, 0]
            bucket[0] += 1
            bucket[1] += r.bytes
            bucket[2] += complete - issue
        if not modes:
            return s
        s.total_requests, s.total_bytes, s.total_response_us = map(sum, zip(*modes.values()))
        s.first_issue_us, s.last_complete_us = first, last
        s.per_mode = {
            mode: {"requests": n, "bytes": nbytes, "response_us": us}
            for mode, (n, nbytes, us) in modes.items()
        }
        return s
