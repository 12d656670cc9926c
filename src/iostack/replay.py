"""Replay orchestration: the five stack stages wired onto the event engine.

One replay is one single-threaded engine run.  The application stage paces
requests (closed loop, open loop, or closed loop with a measured-response
tolerance), the file-system cache stage issues the ios its planner makes,
the scheduler orders pending disk work, the drive cache stages data, and the
disk stage times each media operation against the mechanical model when it
arrives, while keeping the written sectors' tags as runs for conservation
checks.

Each fact has one owner: ``FsCache`` holds fs residency, the dirty blocks,
each file's speculation state, the loading blocks with the requests waiting
for each (``inflight``), the pending and deferred requests, the
write-through gate and the progressive chain's state; a request's
``RequestMsg`` its issue time and how many ios and blocks it still awaits,
an io's ``IoMsg.request_id`` the request it serves, and ``SegmentedCache``
the drive segments, the in-flight and queued fills (``outstanding_fills``,
``fill_ranges``), the acknowledged writes in arrival order (``writes``),
the destage slot, the runs the held read still awaits and the disk end no
media read passes.  ``FsCache`` decides every io and request completion,
and ``SegmentedCache`` every media op and acknowledgement; ``FsStage`` and
``DiskCacheStage`` only stamp and send what they return.  The scheduler's
``PendingQueue`` holds each queued ``IoMsg`` and ``SchedulerStage.inflight``
the one at the drive, which the cache also holds while its acknowledgement
waits for media data or a free segment; a write-through write waits on its
``MediaMsg.host`` instead.  ``DiskStage.free_at`` is when the disk finishes
the last op it took, and the event queue holds each op's ``media-done``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .diskcache import DiskCacheConfig, MediaMsg, SegmentedCache, TagMap
from .disk import DiskGeometry, SeekProfile, cylinder_of_byte, service
from .engine import (
    APP,
    DISK,
    DISK_CACHE,
    FS_CACHE,
    SCHEDULER,
    EventLog,
    Observer,
    Payload,
    Simulator,
)
from .fscache import DRAIN, FsCache, FsCacheConfig, IoMsg, Signal
from .requests import (
    READ,
    SYSTEM,
    WRITE,
    CanonicalRequest,
    RequestRecord,
    Summary,
    sector_range,
)
from .scheduler import PendingQueue, Policy


class ReplayMode(Enum):
    CLOSED_LOOP = "CLOSED_LOOP"
    OPEN_LOOP_TIMED = "OPEN_LOOP_TIMED"


# Module constants for the hot paths: see the comment at ``StageId.__hash__``.
# ``APP`` here is the stage; the request origin this module reads is ``SYSTEM``.
CLOSED_LOOP, OPEN_LOOP_TIMED = ReplayMode


@dataclass(frozen=True)
class ReplayPolicy:
    mode: ReplayMode = ReplayMode.CLOSED_LOOP
    tolerance_us: int = 0
    #: Measured per-request response times, keyed by request ordinal.
    baseline_us: dict[int, int] | None = None

    def __post_init__(self) -> None:
        if self.tolerance_us < 0:
            raise ValueError("tolerance_us must be >= 0")


@dataclass(frozen=True)
class StackConfig:
    geometry: DiskGeometry
    seek: SeekProfile
    fs: FsCacheConfig = field(default_factory=FsCacheConfig)
    cache: DiskCacheConfig = field(default_factory=DiskCacheConfig)
    scheduler_policy: Policy = Policy.FCFS
    include_system_requests: bool = False


# -- messages -----------------------------------------------------------------
#
# APP sends each RequestMsg to FS_CACHE and gets its done form back.  FS_CACHE
# sends IoMsg to SCHEDULER, which passes them one at a time to DISK_CACHE; the
# done form returns the same way.  DISK_CACHE sends MediaMsg to DISK, which
# times each op when it arrives and returns its done form at its finish.
# Signals go to FS_CACHE: FLUSH_TICK from itself, DRAIN from APP after the
# last request.  ``IoMsg`` and ``Signal`` live in ``fscache`` and ``MediaMsg``
# in ``diskcache``, whose models make them.  Each message is one object from
# issue to done: its done form is the same object with its flag set, so an
# observer reads each event when it is dispatched.


@dataclass(slots=True)
class RequestMsg:
    request_id: int
    request: CanonicalRequest
    done: bool = False
    #: Stamped by APP at issue.
    issue_us: int = 0
    #: Required ios, loading blocks and a write-through metadata write still awaited.
    awaited: int = 0
    copy_us: int = 0

    @property
    def kind(self) -> str:
        return "request-done" if self.done else "request"

    def detail(self) -> str:
        if self.done:
            return f"req={self.request_id}"
        r = self.request
        return (
            f"req={self.request_id} op={r.op.value} mode={r.mode.value} "
            f"addr={r.disk_byte_addr} bytes={r.length_bytes}"
        )


# -- stages -------------------------------------------------------------------


class AppStage:
    """Issues requests per the replay policy and records their latencies."""

    def __init__(self, requests: list[CanonicalRequest], policy: ReplayPolicy):
        self.requests = requests
        self.policy = policy
        self.records: list[RequestRecord] = []

    def start(self, sim: Simulator) -> None:
        if self.policy.mode is OPEN_LOOP_TIMED:
            for i, r in enumerate(self.requests):
                sim.schedule(APP, RequestMsg(i, r), at_us=r.issue_time_us)
        else:
            sim.schedule(APP, RequestMsg(0, self.requests[0]), at_us=self.requests[0].issue_time_us)

    def handle(self, sim: Simulator, payload: RequestMsg) -> None:
        # Every APP event is a request; a done one has left the stack.
        now = sim.now()
        if not payload.done:
            payload.issue_us = now
            sim.schedule(FS_CACHE, payload)
            return
        rid, r, issue = payload.request_id, payload.request, payload.issue_us
        self.records.append(RequestRecord(rid, issue, now, r.length_bytes, r.op, r.mode, r.origin))
        if self.policy.mode is CLOSED_LOOP and rid + 1 < len(self.requests):
            nxt = rid + 1
            at = self._next_issue_time(rid, issue, now)
            sim.schedule(APP, RequestMsg(nxt, self.requests[nxt]), at)
        if len(self.records) == len(self.requests):
            sim.schedule(FS_CACHE, DRAIN)

    def _next_issue_time(self, rid: int, issue_us: int, complete_us: int) -> int:
        """Closed-loop pacing with the measured-response tolerance; never
        before ``complete_us``.

        The trace gap is honored when positive.  When a measured response
        time is supplied and it disagrees with the simulated one by less
        than the tolerance, the next issue snaps to the simulated
        completion (plus any think time beyond the measured response), so a
        small early finish cannot manufacture a near-full extra rotation.
        """

        gap = self.requests[rid + 1].issue_time_us - self.requests[rid].issue_time_us
        baseline = self.policy.baseline_us or {}
        if rid in baseline:
            measured = baseline[rid]
            simulated = complete_us - issue_us
            think = max(0, gap - measured)
            if abs(measured - simulated) < self.policy.tolerance_us:
                return complete_us + think
            return max(complete_us, issue_us + max(gap, measured))
        at = issue_us + gap
        return at if at > complete_us else complete_us


class FsStage:
    """File-system cache: sends what ``FsCache.receive`` returns, in order and
    each at its delay from now, numbering each io and marking each request done."""

    def __init__(self, fs: FsCache):
        self.fs = fs
        self._io_seq = 0

    def handle(self, sim: Simulator, payload: Payload) -> None:
        now = sim.now()
        for delay_us, msg in self.fs.receive(payload):
            match msg:
                case IoMsg():
                    self._io_seq += 1
                    msg.io_id = self._io_seq
                    sim.schedule(SCHEDULER, msg, now + delay_us)
                case RequestMsg():
                    msg.done = True
                    sim.schedule(APP, msg, now + delay_us)
                case Signal():
                    sim.schedule(FS_CACHE, msg, now + delay_us)


class SchedulerStage:
    """Holds disk-bound ios and dispatches one at a time per policy."""

    def __init__(self, policy: Policy, geometry: DiskGeometry):
        self.queue = PendingQueue(policy=policy)
        self.geometry = geometry
        #: The io at the drive.
        self.inflight: IoMsg | None = None

    def handle(self, sim: Simulator, payload: IoMsg) -> None:
        # Every SCHEDULER event is an io; a done one has left the drive.
        if payload.done:
            self.inflight = None
            sim.schedule(FS_CACHE, payload)
        else:
            self.queue.enqueue(payload, cylinder_of_byte(payload.disk_addr, self.geometry))
        self._dispatch(sim)

    def _dispatch(self, sim: Simulator) -> None:
        if self.inflight is None:
            self.inflight = self.queue.next()
            if self.inflight is not None:
                sim.schedule(DISK_CACHE, self.inflight)


class DiskCacheStage:
    """Drive cache: sends what ``SegmentedCache`` decides, stamping each media op.

    The cache plans every media op, decides every acknowledgement and holds
    the one io whose acknowledgement waits.  This stage numbers each media op
    and sends it to DISK, and returns each acknowledged io to SCHEDULER, in
    the order the cache gives.
    """

    def __init__(self, cache: SegmentedCache):
        self.cache = cache
        self._media_seq = 0

    def handle(self, sim: Simulator, payload: Payload) -> None:
        match payload:
            case IoMsg():
                sends = self.cache.host_io(payload)
            case MediaMsg():
                sends = self.cache.media_done(payload)
        for msg in sends:
            match msg:
                case MediaMsg():
                    self._media_seq += 1
                    msg.media_id = self._media_seq
                    sim.schedule(DISK, msg)
                case IoMsg():
                    msg.done = True
                    sim.schedule(SCHEDULER, msg)


class DiskStage:
    """Serial media execution against the mechanical model.

    The drive serves one op at a time, and an op's service time depends only
    on the head state and its start time, so each op is timed when it
    arrives: it starts when the disk is next free, and its done form goes
    back to DISK_CACHE at its finish.
    """

    def __init__(self, geometry: DiskGeometry, seek: SeekProfile):
        self.geometry = geometry
        self.seek = seek
        #: (cylinder, head, angle_revs, time_us), as ``service`` takes it.
        self.head: tuple[int, int, float, float] = (0, 0, 0.0, 0.0)
        #: When the last op taken finishes: the next one starts no earlier.
        self.free_at = 0
        self.data_image = TagMap()

    def handle(self, sim: Simulator, payload: MediaMsg) -> None:
        # Every DISK event is a media op; the disk serves them in arrival order.
        now = sim.now()
        start = now if now > self.free_at else self.free_at
        delay, (cylinder, head, angle, _) = service(
            payload.lba, payload.sectors, self.head, self.geometry, self.seek, start, payload.write
        )
        if payload.penalty_rotations:
            delay += payload.penalty_rotations * self.geometry.rotation_period_us
        ticks = round(delay)
        finish = self.free_at = start + (ticks if ticks > 1 else 1)
        # Re-anchor the head clock on the integer event time so a
        # contiguous follow-up op sees its target sector exactly under the
        # head instead of a hair behind it (which would cost a phantom
        # revolution).
        self.head = (cylinder, head, angle, float(finish))
        if payload.sector_tags is not None:
            self.data_image.overlay(payload.sector_tags)
        payload.done = True
        sim.schedule(DISK_CACHE, payload, finish)


# -- top-level entry -------------------------------------------------------------


@dataclass
class ReplayResult:
    records: list[RequestRecord]
    summary: Summary
    event_log: EventLog
    effective_requests: list[CanonicalRequest]
    fs: FsCache
    disk_cache: SegmentedCache
    media_image: TagMap


class TraceReplayError(ValueError):
    """A request stream that replay rejects.

    ``position``, when set, is the index in the stream of the request at
    fault, and the message names it ``request N`` before ``detail``.
    """

    def __init__(self, detail: str, position: int | None = None) -> None:
        super().__init__(detail if position is None else f"request {position} {detail}")
        self.detail, self.position = detail, position


class StallError(TraceReplayError):
    """A replay ended with a request incomplete or a stage still holding work."""


class ReplayDiverged(TraceReplayError):
    """Re-running a replay for its ``event_log.to_text()`` simulated a different run."""


def _held_work(fs: FsCache, sched_stage: SchedulerStage, cache: SegmentedCache) -> list[str]:
    """One line per stage holder still holding work once the event queue is empty.

    A finished replay leaves every one of them empty: a queued destage or an
    unread fill left behind is work the run lost.
    """

    held = cache.held
    held_what = "deferred write ios" if held and held.write else "host read ios"
    holders = (
        ("fs cache", "requests", sorted(fs.pending)),
        ("fs cache", "deferred requests", [m.request_id for m in fs.deferred]),
        ("fs cache", "dirty blocks", list(fs.dirty_blocks)),
        ("scheduler", "queued ios", [m.io_id for m in sched_stage.queue]),
        ("drive cache", held_what, [held.io_id] if held else []),
        ("drive cache", "fill ranges", list(cache.fill_ranges)),
        ("drive cache", "dirty segments", [i for i, s in enumerate(cache.segments) if s.dirty]),
        ("drive cache", "outstanding fills", list(cache.outstanding_fills)),
    )
    return [f"{stage} still holds {what} {items}" for stage, what, items in holders if items]


def file_extents(requests: list[CanonicalRequest]) -> dict[int, int]:
    """Known end-of-file per file, in disk-address space, from the trace."""

    extents: dict[int, int] = {}
    for r in requests:
        if r.op is READ or r.op is WRITE:
            end = r.disk_byte_addr + r.length_bytes
            extents[r.file_id] = max(extents.get(r.file_id, 0), end)
    return extents


def reference_media_image(requests: list[CanonicalRequest]) -> TagMap:
    """Apply the stream's writes in order, directly: the conservation oracle."""

    image = TagMap()
    for ordinal, r in enumerate(requests):
        if r.op is WRITE:
            sectors = sector_range(r.disk_byte_addr, r.disk_byte_addr + r.length_bytes)
            image.overlay(((sectors.start, sectors.stop, ordinal),))
    return image


def replay(
    requests: list[CanonicalRequest],
    stack: StackConfig,
    policy: ReplayPolicy = ReplayPolicy(),
    observe: Observer | None = None,
) -> ReplayResult:
    """Run one full-stack simulation of the request stream.

    ``observe``, if given, reads each event as it is dispatched, before its
    handler runs, so one run both streams its event log and is the run it
    reports; a run that fails has passed it every event up to the one that
    faulted.  A payload is one object for its whole round trip, so an
    observer that keeps events keeps copies.  The result keeps only the
    event count: its ``event_log.to_text()`` re-runs the replay, checked
    against this run.
    """

    if not requests:
        raise TraceReplayError("cannot replay an empty trace")
    capacity = stack.geometry.usable_bytes
    effective = []
    for position, r in enumerate(requests):
        if not stack.include_system_requests and r.origin is SYSTEM:
            continue
        if (r.op is READ or r.op is WRITE) and r.disk_byte_addr + r.length_bytes > capacity:
            raise TraceReplayError(
                f"at disk byte {r.disk_byte_addr} (+{r.length_bytes}) "
                f"exceeds the configured disk capacity of {capacity} bytes",
                position,
            )
        effective.append(r)
    if not effective:
        raise TraceReplayError("no application-origin requests to replay")

    sim = Simulator(observe)
    fs = FsCache(stack.fs, file_extents(effective))
    cache = SegmentedCache(stack.cache, stack.geometry.usable_sectors)
    app = AppStage(effective, policy)
    fs_stage = FsStage(fs)
    sched_stage = SchedulerStage(stack.scheduler_policy, stack.geometry)
    cache_stage = DiskCacheStage(cache)
    disk_stage = DiskStage(stack.geometry, stack.seek)

    sim.register(APP, app.handle)
    sim.register(FS_CACHE, fs_stage.handle)
    sim.register(SCHEDULER, sched_stage.handle)
    sim.register(DISK_CACHE, cache_stage.handle)
    sim.register(DISK, disk_stage.handle)

    app.start(sim)
    sim.run()
    held = _held_work(fs, sched_stage, cache)
    if len(app.records) != len(effective) or held:
        raise StallError(
            f"event queue ran dry after {len(app.records)} of {len(effective)} requests "
            "completed; " + ("; ".join(held) or "no stage holds work")
        )
    records = sorted(app.records, key=lambda r: r.request_id)
    events = sim.dispatched

    def record(observer: Observer) -> None:
        # Runs are deterministic, so the same inputs simulate the same run;
        # the check catches inputs changed since (a mutated baseline dict).
        again = replay(effective, stack, policy, observer)
        if len(again.event_log) != events or again.records != records:
            raise ReplayDiverged(
                f"re-running the replay to record its events gave {len(again.event_log)} events "
                f"against {events}, and {'equal' if again.records == records else 'different'} "
                "request records: were its inputs changed after the run?"
            )

    return ReplayResult(
        records=records,
        summary=Summary.from_records(records),
        event_log=EventLog(events, record),
        effective_requests=effective,
        fs=fs,
        disk_cache=cache,
        media_image=disk_stage.data_image,
    )
