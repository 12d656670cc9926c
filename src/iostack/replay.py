"""Replay orchestration: the five stack stages wired onto the event engine.

One replay is one single-threaded engine run.  The application stage paces
requests (closed loop, open loop, or closed loop with a measured-response
tolerance), the file-system cache stage issues the ios its planner makes,
the scheduler orders pending disk work, the drive cache stages data, and the
disk stage serializes media operations against the mechanical model while
keeping the written sectors' tags as runs for conservation checks.

Each fact has one owner: ``FsCache`` holds fs residency, the dirty blocks,
each file's speculation state and the loading blocks with the requests
waiting for each (``inflight``), which it registers when it plans a read; a
request's ``RequestMsg`` its issue time and how many ios and blocks it still
awaits, an io's ``IoMsg.request_id`` the request it serves, and
``SegmentedCache`` the drive segments, the in-flight and queued fills
(``outstanding_fills``, ``fill_ranges``), the acknowledged writes in arrival
order (``writes``), the destage slot, the runs the held read still awaits
and the disk end no media read passes.  The cache plans every media op as
its ``MediaMsg`` and settles the held read; ``DiskCacheStage`` only stamps
and sends the ops.  The scheduler's ``PendingQueue`` holds each queued
``IoMsg`` and ``SchedulerStage.inflight`` the one at the drive, which
``DiskCacheStage.held`` holds while it waits for media data or a free
segment; a write-through write waits on its ``MediaMsg.host`` instead.
``DiskStage.queue`` holds the media ops in arrival order; its head is the op
being served.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from .diskcache import Ack, DiskCacheConfig, MediaMsg, MediaRole, SegmentedCache, TagMap
from .disk import DiskGeometry, HeadState, SeekProfile, cylinder_of_byte, service
from .engine import EventLog, Observer, Payload, Simulator, StageId
from .fscache import FLUSH, FsCache, FsCacheConfig, IoMsg
from .requests import (
    CanonicalRequest,
    Op,
    Origin,
    RequestRecord,
    Summary,
    sector_range,
)
from .scheduler import PendingQueue, Policy


class ReplayMode(Enum):
    CLOSED_LOOP = "CLOSED_LOOP"
    OPEN_LOOP_TIMED = "OPEN_LOOP_TIMED"


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
# times each op with its finished form and returns its done form.  Signals go
# to FS_CACHE: FLUSH_TICK from itself, DRAIN from APP after the last request.
# ``IoMsg`` lives in ``fscache`` and ``MediaMsg`` in ``diskcache``, whose
# planners make them.  Each message is one object from issue to done: its done
# or finished form is the same object with its flag set, so an observer reads
# each event when it is dispatched.


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


class Signal(Enum):
    """Messages without a payload; the value is (kind, detail)."""

    FLUSH_TICK = ("flush-tick", "progressive")
    DRAIN = ("drain", "end-of-stream")

    @property
    def kind(self) -> str:
        return self.value[0]

    def detail(self) -> str:
        return self.value[1]


# -- stages -------------------------------------------------------------------


class AppStage:
    """Issues requests per the replay policy and records their latencies."""

    def __init__(self, requests: list[CanonicalRequest], policy: ReplayPolicy):
        self.requests = requests
        self.policy = policy
        self.records: list[RequestRecord] = []

    def start(self, sim: Simulator) -> None:
        if self.policy.mode is ReplayMode.OPEN_LOOP_TIMED:
            for i, r in enumerate(self.requests):
                sim.schedule(StageId.APP, RequestMsg(i, r), at_us=r.issue_time_us)
        else:
            sim.schedule(StageId.APP, RequestMsg(0, self.requests[0]), at_us=self.requests[0].issue_time_us)

    def handle(self, sim: Simulator, payload: Payload) -> None:
        match payload:
            case RequestMsg(done=False) as msg:
                msg.issue_us = sim.now()
                sim.schedule(StageId.FS_CACHE, msg)
            case RequestMsg(request_id=rid, request=r, issue_us=issue):
                self.records.append(
                    RequestRecord(
                        request_id=rid,
                        issue_us=issue,
                        complete_us=sim.now(),
                        bytes=r.length_bytes,
                        op=r.op,
                        mode=r.mode,
                        origin=r.origin,
                    )
                )
                if self.policy.mode is ReplayMode.CLOSED_LOOP and rid + 1 < len(self.requests):
                    nxt = rid + 1
                    at = self._next_issue_time(rid, issue, sim.now())
                    sim.schedule(StageId.APP, RequestMsg(nxt, self.requests[nxt]), at_us=max(at, sim.now()))
                if len(self.records) == len(self.requests):
                    sim.schedule(StageId.FS_CACHE, Signal.DRAIN)

    def _next_issue_time(self, rid: int, issue_us: int, complete_us: int) -> int:
        """Closed-loop pacing with the measured-response tolerance.

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
        return max(complete_us, issue_us + gap)


class FsStage:
    """Executes file-system cache plans and tracks request completion."""

    def __init__(self, sim: Simulator, fs: FsCache):
        self.sim = sim
        self.fs = fs
        self.pending: dict[int, RequestMsg] = {}
        self.deferred: deque[RequestMsg] = deque()
        #: The write-through request whose metadata write holds back the rest.
        self.wt_gate: int | None = None
        self.progressive_running = False
        self._io_seq = 0

    def _issue(self, io: IoMsg, request_id: int | None, at_us: int) -> None:
        self._io_seq += 1
        io.io_id = self._io_seq
        io.request_id = request_id
        self.sim.schedule(StageId.SCHEDULER, io, at_us=at_us)

    def handle(self, sim: Simulator, payload: Payload) -> None:
        match payload:
            case RequestMsg() as msg if self.wt_gate is not None:
                self.deferred.append(msg)
            case RequestMsg() as msg:
                self._admit(msg)
            case IoMsg() as msg:
                self._io_done(msg)
            case Signal.FLUSH_TICK:
                self._progressive_step()
            case Signal.DRAIN:
                for io in self.fs.flush_all():
                    self._issue(io, None, sim.now())

    # -- request admission ----------------------------------------------------

    def _admit(self, msg: RequestMsg) -> None:
        req, rid = msg.request, msg.request_id
        cfg = self.fs.config
        now = self.sim.now()
        if req.op in (Op.OPEN, Op.CLOSE):
            if req.op is Op.OPEN:
                self.fs.on_open(req.file_id)
            # Opening or closing a handle takes no simulated time.
            self._complete(msg, at_us=now)
            return
        if req.length_bytes == 0:
            self._complete(msg, at_us=now + cfg.fastio_hit_cost_us)
            return

        plan = self.fs.on_read(req, rid) if req.op is Op.READ else self.fs.on_write(req, rid)
        required = len(plan.required_ios)
        msg.awaited = required + plan.waits + plan.metadata_after_data
        msg.copy_us = cfg.copy_us(plan.copy_bytes)
        issue_at = now + (cfg.miss_path_cost_us if required else 0)
        for io in plan.ios:
            self._issue(io, rid if io.purpose.required else None, issue_at)
        if plan.metadata_after_data:
            self.wt_gate = rid
        if plan.kick_progressive and not self.progressive_running:
            self.progressive_running = True
            self.sim.schedule(StageId.FS_CACHE, Signal.FLUSH_TICK)
        if msg.awaited:
            self.pending[rid] = msg
        else:
            # No io, or only optional ones (prefetch/flush): serve from cache now.
            self._complete(msg, at_us=now + cfg.fastio_hit_cost_us + msg.copy_us)

    def _complete(self, msg: RequestMsg, at_us: int) -> None:
        msg.done = True
        self.sim.schedule(StageId.APP, msg, at_us=at_us)

    # -- io completions ----------------------------------------------------------

    def _io_done(self, msg: IoMsg) -> None:
        if msg.block_key is not None:
            for rid in self.fs.on_block_loaded(msg.block_key):
                self._settle(rid)
        if msg.purpose is FLUSH and self.progressive_running:
            self.sim.schedule(StageId.FS_CACHE, Signal.FLUSH_TICK)
        # Required ios, and only they, carry the request they serve.
        if msg.request_id is not None:
            self._settle(msg.request_id)

    def _settle(self, rid: int) -> None:
        """One io or block that request ``rid`` awaited has arrived."""

        msg = self.pending[rid]
        msg.awaited -= 1
        if msg.awaited == 1 and self.wt_gate == rid:
            # The data is on the media: only the metadata write is left.
            self._issue(self.fs.metadata_io(), rid, self.sim.now())
        if msg.awaited:
            return
        del self.pending[rid]
        self._complete(msg, at_us=self.sim.now() + msg.copy_us)
        if self.wt_gate == rid:
            self.wt_gate = None
            while self.deferred and self.wt_gate is None:
                self._admit(self.deferred.popleft())

    def _progressive_step(self) -> None:
        ios = self.fs.next_progressive_flush()
        if not ios:
            self.progressive_running = False
            return
        for io in ios:
            self._issue(io, None, self.sim.now())


class SchedulerStage:
    """Holds disk-bound ios and dispatches one at a time per policy."""

    def __init__(self, sim: Simulator, policy: Policy, geometry: DiskGeometry):
        self.sim = sim
        self.queue = PendingQueue(policy=policy)
        self.geometry = geometry
        #: The io at the drive.
        self.inflight: IoMsg | None = None

    def handle(self, sim: Simulator, payload: Payload) -> None:
        match payload:
            case IoMsg(done=False) as msg:
                self.queue.enqueue(msg, cylinder_of_byte(msg.disk_addr, self.geometry))
                self._dispatch()
            case IoMsg() as msg:
                self.inflight = None
                sim.schedule(StageId.FS_CACHE, msg)
                self._dispatch()

    def _dispatch(self) -> None:
        if self.inflight is None:
            self.inflight = self.queue.next()
            if self.inflight is not None:
                self.sim.schedule(StageId.DISK_CACHE, self.inflight)


class DiskCacheStage:
    """Drive cache: issues the media ops ``SegmentedCache`` plans, acks host ios.

    The cache plans every media op as its ``MediaMsg`` and says when the
    held read has all its data (``awaited`` is empty).  The scheduler hands
    the drive one io at a time, so one slot (``held``) holds that io while
    the drive keeps back its acknowledgement: a read until ``awaited`` is
    empty, a write-back write until a destage frees a segment.  A write
    acknowledged after media waits on its ``MediaMsg.host`` instead.
    """

    def __init__(self, sim: Simulator, cache: SegmentedCache):
        self.sim = sim
        self.cache = cache
        self.held: IoMsg | None = None
        self._media_seq = 0

    # -- media plumbing ---------------------------------------------------------

    def _issue(self, op: MediaMsg) -> None:
        self._media_seq += 1
        op.media_id = self._media_seq
        self.sim.schedule(StageId.DISK, op)

    def _sectors(self, io: IoMsg) -> tuple[int, int]:
        sectors = sector_range(io.disk_addr, io.disk_addr + io.nbytes)
        return sectors.start, len(sectors)

    def handle(self, sim: Simulator, payload: Payload) -> None:
        match payload:
            case IoMsg(write=True) as msg:
                self._host_write(msg)
            case IoMsg() as msg:
                self._host_read(msg)
            case MediaMsg() as msg:
                self._media_done(msg)

    # -- reads --------------------------------------------------------------------

    def _host_read(self, msg: IoMsg) -> None:
        lba, sectors = self._sectors(msg)
        for op in self.cache.read_lookup(lba, sectors)[1]:
            self._issue(op)
        if self.cache.awaited:
            self.held = msg
        else:
            self._reply_done(msg)

    def _reply_done(self, msg: IoMsg) -> None:
        msg.done = True
        self.sim.schedule(StageId.SCHEDULER, msg)

    # -- writes --------------------------------------------------------------------

    def _host_write(self, msg: IoMsg) -> None:
        lba, sectors = self._sectors(msg)
        ack, writes = self.cache.write_accept(
            lba, sectors, msg.sector_tags, force_media=msg.purpose.force_media
        )
        if ack is Ack.ACK_AFTER_MEDIA:
            # One media write, whose completion acknowledges the host io.
            writes[0].host = msg
        elif ack is Ack.ACK_NOW:
            self._reply_done(msg)
        else:  # DEFER: every segment dirty, wait for a destage to free one
            self.held = msg
        for op in writes:
            self._issue(op)

    # -- media completions ------------------------------------------------------------

    def _media_done(self, msg: MediaMsg) -> None:
        if msg.role is MediaRole.HOST_WRITE:
            self._reply_done(msg.host)
            return
        for op in self.cache.on_media_data(msg.lba, msg.sectors, msg.role):
            self._issue(op)
        held = self.held
        if held is not None and held.write:
            if msg.role is MediaRole.DESTAGE:  # a segment is free: retry the deferred write
                self.held = None
                self._host_write(held)
        elif held is not None and not self.cache.awaited:
            self.held = None
            self._reply_done(held)


class DiskStage:
    """Serial media execution against the mechanical model, head of the FIFO first."""

    def __init__(self, sim: Simulator, geometry: DiskGeometry, seek: SeekProfile):
        self.sim = sim
        self.geometry = geometry
        self.seek = seek
        self.head = HeadState()
        self.queue: deque[MediaMsg] = deque()
        self.data_image = TagMap()

    def handle(self, sim: Simulator, payload: Payload) -> None:
        match payload:
            case MediaMsg(finished=False) as msg:
                idle = not self.queue
                self.queue.append(msg)
                if idle:
                    self._start_next()
            case MediaMsg() as msg:
                self._finish(msg)

    def _start_next(self) -> None:
        msg = self.queue[0]
        now = self.sim.now()
        delay, (cylinder, head, angle, _) = service(
            msg.lba, msg.sectors, self.head, self.geometry, self.seek, now, msg.write
        )
        if msg.penalty_rotations:
            delay += msg.penalty_rotations * self.geometry.rotation_period_us
        delay_us = max(1, round(delay))
        # Re-anchor the head clock on the integer event time so a
        # contiguous follow-up op sees its target sector exactly under the
        # head instead of a hair behind it (which would cost a phantom
        # revolution).
        self.head = HeadState(cylinder, head, angle, float(now + delay_us))
        msg.finished = True
        self.sim.schedule_after(StageId.DISK, msg, delay_us)

    def _finish(self, msg: MediaMsg) -> None:
        if msg.sector_tags is not None:
            self.data_image.overlay(msg.sector_tags)
        self.queue.popleft()
        # Timing the next op may raise, so it goes first; it finishes at
        # least 1 us later, so the two events dispatch in the same order.
        if self.queue:
            self._start_next()
        msg.done = True
        self.sim.schedule(StageId.DISK_CACHE, msg)


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


def _held_work(
    fs_stage: FsStage,
    sched_stage: SchedulerStage,
    cache_stage: DiskCacheStage,
    disk_stage: DiskStage,
) -> list[str]:
    """One line per stage holder still holding work once the event queue is empty.

    A finished replay leaves every one of them empty: a queued destage or an
    unread fill left behind is work the run lost.
    """

    cache = cache_stage.cache
    held = cache_stage.held
    held_what = "deferred write ios" if held and held.write else "host read ios"
    holders = (
        ("fs cache", "requests", sorted(fs_stage.pending)),
        ("fs cache", "deferred requests", [m.request_id for m in fs_stage.deferred]),
        ("fs cache", "dirty blocks", list(fs_stage.fs.dirty_blocks)),
        ("scheduler", "queued ios", [m.io_id for m in sched_stage.queue]),
        ("drive cache", held_what, [held.io_id] if held else []),
        ("drive cache", "fill ranges", list(cache.fill_ranges)),
        ("drive cache", "dirty segments", [i for i, s in enumerate(cache.segments) if s.dirty]),
        ("drive cache", "outstanding fills", list(cache.outstanding_fills)),
        ("disk", "media ops", [m.media_id for m in disk_stage.queue]),
    )
    return [f"{stage} still holds {what} {items}" for stage, what, items in holders if items]


def file_extents(requests: list[CanonicalRequest]) -> dict[int, int]:
    """Known end-of-file per file, in disk-address space, from the trace."""

    extents: dict[int, int] = {}
    for r in requests:
        if r.op in (Op.READ, Op.WRITE):
            end = r.disk_byte_addr + r.length_bytes
            extents[r.file_id] = max(extents.get(r.file_id, 0), end)
    return extents


def reference_media_image(requests: list[CanonicalRequest]) -> TagMap:
    """Apply the stream's writes in order, directly: the conservation oracle."""

    image = TagMap()
    for ordinal, r in enumerate(requests):
        if r.op is Op.WRITE:
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
        if not stack.include_system_requests and r.origin is not Origin.APP:
            continue
        if r.op in (Op.READ, Op.WRITE) and r.disk_byte_addr + r.length_bytes > capacity:
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
    fs_stage = FsStage(sim, fs)
    sched_stage = SchedulerStage(sim, stack.scheduler_policy, stack.geometry)
    cache_stage = DiskCacheStage(sim, cache)
    disk_stage = DiskStage(sim, stack.geometry, stack.seek)

    sim.register(StageId.APP, app.handle)
    sim.register(StageId.FS_CACHE, fs_stage.handle)
    sim.register(StageId.SCHEDULER, sched_stage.handle)
    sim.register(StageId.DISK_CACHE, cache_stage.handle)
    sim.register(StageId.DISK, disk_stage.handle)

    app.start(sim)
    sim.run()
    held = _held_work(fs_stage, sched_stage, cache_stage, disk_stage)
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
