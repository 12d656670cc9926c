"""File-system cache model: quantization, read-ahead and write-flush regimes.

All cache-mediated traffic moves in 64KB blocks inside 256KB per-file views.
Reads follow one of two speculative algorithms depending on access mode and
request size; writes fall into a progressive regime (cache only, drained
continuously) or a periodic one (part cache, part direct to disk, bulk
flush when the working set fills).  The planner here turns one request plus
cache state into an ordered list of ios, and lists the request as a waiter
of each block it needs that another request is loading.  The cache also
takes each request to completion and returns what the replay stage sends,
each with its delay from now, so it never reads the engine's clock.

Cache state is keyed by absolute disk position rather than in-file offsets:
captured traces report per-run relative displacements, so the disk address
is the one coordinate that stays consistent between real and synthetic
workloads.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict, deque
from dataclasses import dataclass, field
from enum import Enum
from itertools import zip_longest
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .diskcache import TagMap, TagRun, TagRuns, uncovered_runs
from .requests import (
    CLOSE,
    NO_BUFFER,
    OPEN,
    READ,
    SECTOR_BYTES,
    SEQUENTIAL,
    WRITE,
    WRITE_THROUGH,
    CanonicalRequest,
    sector_range,
)

if TYPE_CHECKING:
    from .replay import RequestMsg

BLOCK_BYTES = 65_536
VIEW_BYTES = 262_144

#: Sequential requests needed before block read-ahead engages.
READAHEAD_TRIGGER = 3
#: Prefetch may run this many request-sizes past the last demand.
READAHEAD_WINDOW_FACTOR = 2
#: Dirty data may grow to the working set less this reserve before the bulk
#: flush.  6MB leaves a 2MB flush threshold at the default 8MB working set,
#: which reproduces the observed flush cadence of one bulk flush per 7-8
#: large requests.
RESERVE_CONSTANT_BYTES = 6 * 1024 * 1024
METADATA_WRITE_BYTES = 4096


class Purpose(Enum):
    """What a disk-bound io is for; the value is its logged text."""

    DEMAND = "demand"
    PREFETCH = "prefetch"
    PASSTHROUGH = "passthrough"
    APP_DIRECT = "app-direct"
    FLUSH = "flush"
    WT_DATA = "wt-data"
    METADATA = "metadata"

    @property
    def required(self) -> bool:
        """The request that issues the io waits for it."""

        return self is not PREFETCH and self is not FLUSH

    @property
    def force_media(self) -> bool:
        """The drive acknowledges the io only once it is on the media."""

        return self is WT_DATA or self is METADATA


# Module constants for the hot paths: see the comment at ``StageId.__hash__``.
DEMAND, PREFETCH, PASSTHROUGH, APP_DIRECT, FLUSH, WT_DATA, METADATA = Purpose

APP_ACTOR = "app"
SYSTEM_ACTOR = "system"

#: Sizes written progressively: everything at or below this bound...
PROGRESSIVE_MAX_BYTES = 98_304
#: ...plus these two exact sizes.
PROGRESSIVE_EXACT_SIZES = (131_072, 262_144)
#: Observed block accounting that deviates from ceil(size/64KB).
PERIODIC_BLOCK_OVERRIDES = {327_680: 6}


class WriteRegime(Enum):
    PROGRESSIVE = "PROGRESSIVE"
    PERIODIC = "PERIODIC"


PROGRESSIVE, PERIODIC = WriteRegime


@dataclass(frozen=True)
class FsCacheConfig:
    #: Must exceed ``RESERVE_CONSTANT_BYTES``.
    working_set_bytes: int = 8 * 1024 * 1024
    fastio_hit_cost_us: int = 10
    miss_path_cost_us: int = 50
    memcopy_bytes_per_us: int = 2048
    cache_capacity_bytes: int = 128 * 1024 * 1024
    metadata_disk_addr: int = 0

    def __post_init__(self) -> None:
        for name in ("memcopy_bytes_per_us", "cache_capacity_bytes"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("fastio_hit_cost_us", "miss_path_cost_us", "metadata_disk_addr"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.working_set_bytes <= RESERVE_CONSTANT_BYTES:
            raise ValueError(
                f"working_set_bytes must exceed the {RESERVE_CONSTANT_BYTES}-byte reserve"
            )

    def copy_us(self, nbytes: int) -> int:
        return -(-nbytes // self.memcopy_bytes_per_us) if nbytes else 0


def split_into_blocks(offset_bytes: int, length_bytes: int) -> range:
    """Addresses of the whole, aligned cache blocks covering [offset, offset+length).

    A sub-block request still yields one full block; a request straddling a
    boundary yields every block it touches.
    """

    if length_bytes < 0:
        raise ValueError("length must be >= 0")
    if length_bytes == 0:
        return range(0)
    end = offset_bytes + length_bytes
    return range(offset_bytes - offset_bytes % BLOCK_BYTES, end + (-end % BLOCK_BYTES), BLOCK_BYTES)


def classify_write_regime(size_bytes: int) -> WriteRegime:
    """Progressive for small requests and the two exact larger sizes."""

    if size_bytes <= 0:
        raise ValueError("size must be positive")
    if size_bytes <= PROGRESSIVE_MAX_BYTES or size_bytes in PROGRESSIVE_EXACT_SIZES:
        return PROGRESSIVE
    return PERIODIC


def periodic_block_count(size_bytes: int) -> int:
    return PERIODIC_BLOCK_OVERRIDES.get(size_bytes, -(-size_bytes // BLOCK_BYTES))


def periodic_split(block_count: int, period_position: int) -> tuple[int, int]:
    """(cache blocks, direct-to-disk blocks) at one period position.

    Splits march from an even cache/disk division to all-cache over a
    period of floor(n/2)+1 requests: for 6-block requests the sequence is
    3/3, 4/2, 5/1, 6/0.
    """

    cached = -(-block_count // 2) + period_position
    return cached, block_count - cached


def periodic_period_length(block_count: int) -> int:
    return block_count // 2 + 1


@dataclass(slots=True)
class IoMsg:
    """One disk-bound io from plan to done; ``FsStage`` stamps its id at issue."""

    write: bool
    disk_addr: int
    nbytes: int
    purpose: Purpose
    actor: str
    block_key: tuple[int, int] | None = None
    sector_tags: TagRuns | None = None
    io_id: int = 0
    request_id: int | None = None
    #: Acknowledged by the drive.
    done: bool = False

    @property
    def kind(self) -> str:
        return "io-done" if self.done else "io"

    def detail(self) -> str:
        if self.done:
            return f"io={self.io_id} purpose={self.purpose.value}"
        op = "write" if self.write else "read"
        req = self.request_id if self.request_id is not None else "-"
        return (
            f"io={self.io_id} op={op} addr={self.disk_addr} bytes={self.nbytes} "
            f"purpose={self.purpose.value} actor={self.actor} req={req}"
        )


class Signal(Enum):
    """FS_CACHE's inputs without a payload; the value is (kind, detail)."""

    FLUSH_TICK = ("flush-tick", "progressive")
    DRAIN = ("drain", "end-of-stream")

    @property
    def kind(self) -> str:
        return self.value[0]

    def detail(self) -> str:
        return self.value[1]


FLUSH_TICK, DRAIN = Signal

#: A message to send and its delay from now, in microseconds.
Send = tuple[int, "IoMsg | RequestMsg | Signal"]


@dataclass
class Plan:
    """Outcome of planning one request against the cache state."""

    ios: list[IoMsg] = field(default_factory=list)
    #: Blocks other requests are loading that this request waits for.
    waits: int = 0
    copy_bytes: int = 0
    hit: bool = False
    kick_progressive: bool = False


@dataclass
class FileStream:
    """Per-handle speculation state: read sequentiality and the periodic write split."""

    last_end: int = -1
    sequential_count: int = 0
    prefetch_cursor: int = 0
    period_position: int = 0
    block_count: int = 0


class FsCache:
    """Mutable cache state, per-request planning and each request's progress."""

    def __init__(self, config: FsCacheConfig, file_extents: dict[int, int] | None = None):
        self.config = config
        self.extents: dict[int, int] = dict(file_extents or {})
        #: Views, a file's minimum cache allocation of four 64KB block slots:
        #: (file_id, base address) -> resident slot numbers, oldest first.
        self.views: OrderedDict[tuple[int, int], set[int]] = OrderedDict()
        #: Blocks being loaded -> the requests, other than the loader, that wait for them.
        self.inflight: dict[tuple[int, int], list[int]] = {}
        self.streams: defaultdict[int, FileStream] = defaultdict(FileStream)
        #: Dirty block queue in first-write order; values tag the dirty sectors.
        self.dirty_blocks: OrderedDict[tuple[int, int], TagMap] = OrderedDict()
        self.dirty_accounted_bytes = 0
        self.resident_bytes = 0
        self.flush_ordinals: list[int] = []
        self.write_splits: list[tuple[int, int, int]] = []
        #: Admitted requests still awaiting ios, loading blocks or a metadata write.
        self.pending: dict[int, RequestMsg] = {}
        #: Requests received while the write-through gate is shut, in arrival order.
        self.deferred: deque[RequestMsg] = deque()
        #: The write-through request whose metadata write holds back the rest.
        self.wt_gate: int | None = None
        #: The progressive chain runs: each completed FLUSH io sends a tick.
        self.progressive_running = False

    # -- request progress ---------------------------------------------------

    def receive(self, msg: RequestMsg | IoMsg | Signal) -> list[Send]:
        """Take one FS_CACHE input; returns its ``(delay_us, message)`` sends, in order:
        ios for the scheduler, done requests for the application, ``FLUSH_TICK`` here.
        """

        sends: list[Send] = []
        if isinstance(msg, IoMsg):
            key, rid = msg.block_key, msg.request_id
            if key is not None:
                for waiter in self.on_block_loaded(key):
                    self._settle(waiter, sends)
            if msg.purpose is FLUSH and self.progressive_running:
                sends.append((0, FLUSH_TICK))
            if rid is not None:
                self._settle(rid, sends)
        elif msg is FLUSH_TICK:
            ios = self.next_progressive_flush()
            if not ios:
                self.progressive_running = False
            sends += [(0, io) for io in ios]
        elif msg is DRAIN:
            sends += [(0, io) for io in self.flush_all()]
        elif self.wt_gate is not None:
            self.deferred.append(msg)
        else:
            self._admit(msg, sends)
        return sends

    def _admit(self, msg: RequestMsg, sends: list[Send]) -> None:
        req, rid = msg.request, msg.request_id
        cfg = self.config
        op = req.op
        if op is OPEN or op is CLOSE:
            if op is OPEN:
                self.streams.pop(req.file_id, None)  # a fresh handle: speculation restarts
            # Opening or closing a handle takes no simulated time.
            sends.append((0, msg))
            return
        if req.length_bytes == 0:
            sends.append((cfg.fastio_hit_cost_us, msg))
            return

        plan = self.on_read(req, rid) if op is READ else self.on_write(req, rid)
        required = 0
        for io in plan.ios:
            if io.purpose.required:
                io.request_id = rid  # required ios, and only they, carry their request
                required += 1
        msg.awaited = required + plan.waits + (self.wt_gate == rid)
        msg.copy_us = cfg.copy_us(plan.copy_bytes)
        miss_us = cfg.miss_path_cost_us if required else 0
        # The working-set flush leaves at once: only the request's own ios
        # take its miss path (ROADMAP item 1, class C).
        for io in plan.ios:
            sends.append((0 if io.purpose is FLUSH else miss_us, io))
        if plan.kick_progressive and not self.progressive_running:
            self.progressive_running = True
            sends.append((0, FLUSH_TICK))
        if msg.awaited:
            self.pending[rid] = msg
        else:
            # No io, or only optional ones (prefetch/flush): serve from cache now.
            sends.append((cfg.fastio_hit_cost_us + msg.copy_us, msg))

    def _settle(self, rid: int, sends: list[Send]) -> None:
        """One io or block that request ``rid`` awaited has arrived."""

        msg = self.pending[rid]
        msg.awaited -= 1
        if msg.awaited == 1 and self.wt_gate == rid:
            # The data is on the media: only the metadata write is left.
            metadata = self.metadata_io()
            metadata.request_id = rid
            sends.append((0, metadata))
        if msg.awaited:
            return
        del self.pending[rid]
        sends.append((msg.copy_us, msg))
        if self.wt_gate == rid:
            self.wt_gate = None
            while self.deferred and self.wt_gate is None:
                self._admit(self.deferred.popleft(), sends)

    # -- residency ----------------------------------------------------------

    def block_resident(self, file_id: int, block_addr: int) -> bool:
        offset = block_addr % VIEW_BYTES
        view = self.views.get((file_id, block_addr - offset))
        return view is not None and offset // BLOCK_BYTES in view

    def mark_resident(self, file_id: int, block_addr: int) -> None:
        """Make the block resident and its view the newest; evict while over capacity.

        Capacity is tested on every call, not only when the block is new: pinned
        views can leave the cache over capacity, and once their pins go the
        next call evicts them.
        """

        offset = block_addr % VIEW_BYTES
        key = (file_id, block_addr - offset)
        slot = offset // BLOCK_BYTES
        view = self.views.get(key)
        if view is None:
            view = self.views[key] = set()
        else:
            self.views.move_to_end(key)
        if slot not in view:
            view.add(slot)
            self.resident_bytes += BLOCK_BYTES
        if self.resident_bytes > self.config.cache_capacity_bytes:
            self._evict_to_capacity()

    def on_block_loaded(self, block_key: tuple[int, int]) -> list[int]:
        """A demand or prefetch load finished; the block is now servable.

        Returns the requests, other than the loader, that waited for it.
        """

        waiters = self.inflight.pop(block_key)
        self.mark_resident(*block_key)
        return waiters

    def _evict_to_capacity(self) -> None:
        # Clean views go first, oldest first; dirty or loading views are pinned.
        capacity = self.config.cache_capacity_bytes
        dirty, inflight = self.dirty_blocks, self.inflight
        victims = []
        for key, view in self.views.items():
            if self.resident_bytes <= capacity:
                break
            file_id, base = key
            for addr in range(base, base + VIEW_BYTES, BLOCK_BYTES):
                if (file_id, addr) in dirty or (file_id, addr) in inflight:
                    break
            else:
                self.resident_bytes -= len(view) * BLOCK_BYTES
                victims.append(key)
        for key in victims:
            del self.views[key]

    # -- reads ---------------------------------------------------------------

    def _uses_block_readahead(self, req: CanonicalRequest) -> bool:
        """Sequential-style 64KB read-ahead vs the dual-actor window algorithm.

        Sequential mode with exact block multiples keeps the simple block
        read-ahead; every other cached read at or below one block does too.
        Larger normal-mode requests (and sequential requests of awkward
        sizes, whose behavior tracks normal mode) use the window algorithm.
        """

        if req.mode is SEQUENTIAL:
            return req.length_bytes % BLOCK_BYTES == 0
        return req.length_bytes <= BLOCK_BYTES

    def _demand_blocks(
        self, file_id: int, blocks: Iterable[int], rid: int
    ) -> tuple[list[int], int]:
        """The blocks to load, and how many loading ones request ``rid`` now waits for."""

        missing: list[int] = []
        waits = 0
        for addr in blocks:
            if self.block_resident(file_id, addr):
                continue
            waiters = self.inflight.get((file_id, addr))
            if waiters is None:
                missing.append(addr)
            else:
                waiters.append(rid)
                waits += 1
        return missing, waits

    def _read_io(self, file_id: int, addr: int, purpose: Purpose, actor: str) -> IoMsg:
        key = (file_id, addr)
        self.inflight[key] = []
        return IoMsg(
            write=False,
            disk_addr=addr,
            nbytes=BLOCK_BYTES,
            purpose=purpose,
            actor=actor,
            block_key=key,
        )

    def _prefetch_ios(self, file_id: int, addrs: Iterable[int]) -> list[IoMsg]:
        """Read-ahead loads of the blocks neither resident nor in flight."""

        ios = []
        for addr in addrs:
            if not self.block_resident(file_id, addr) and (file_id, addr) not in self.inflight:
                ios.append(self._read_io(file_id, addr, PREFETCH, SYSTEM_ACTOR))
        return ios

    def on_read(self, req: CanonicalRequest, rid: int) -> Plan:
        """Plan read ``rid``; it becomes a waiter of each loading block it needs.

        Replay derives the file extents from the trace, so a read never ends
        past its file's; the extent only caps read-ahead.
        """

        if req.op is not READ:
            raise ValueError("on_read requires a READ request")
        if req.mode is NO_BUFFER:
            return _passthrough(req, None)

        start, end = req.disk_byte_addr, req.disk_byte_addr + req.length_bytes
        eof = self.extents.get(req.file_id, end)
        plan = Plan(copy_bytes=req.length_bytes)
        stream = self.streams[req.file_id]
        continuation = start == stream.last_end
        missing, plan.waits = self._demand_blocks(
            req.file_id, split_into_blocks(start, req.length_bytes), rid
        )
        block_readahead = self._uses_block_readahead(req)
        # The window algorithm's continuations are loaded by the application
        # process; everything else by the system process.
        actor = APP_ACTOR if continuation and not block_readahead else SYSTEM_ACTOR
        demand_ios = [self._read_io(req.file_id, addr, DEMAND, actor) for addr in missing]
        stream.sequential_count = stream.sequential_count + 1 if continuation else 1

        if block_readahead:
            if not continuation:
                stream.prefetch_cursor = end
            prefetch_ios = []
            if stream.sequential_count >= READAHEAD_TRIGGER and req.length_bytes:
                window_end = min(end + READAHEAD_WINDOW_FACTOR * req.length_bytes, eof)
                cursor = max(stream.prefetch_cursor, end)
                cursor -= cursor % BLOCK_BYTES
                prefetch_ios = self._prefetch_ios(
                    req.file_id, range(cursor, window_end, BLOCK_BYTES)
                )
                stream.prefetch_cursor = max(cursor, window_end)
            plan.ios = demand_ios + prefetch_ios
        elif continuation:
            # Window algorithm: on each sequential continuation the system
            # leapfrogs one request-size window ahead while the application
            # process fills the current one, the two interleaving at the
            # disk with the system's blocks leading.
            ahead = split_into_blocks(end, req.length_bytes)
            prefetch_ios = self._prefetch_ios(req.file_id, (a for a in ahead if a < eof))
            plan.ios = _interleave(prefetch_ios, demand_ios)
        else:
            plan.ios = demand_ios

        stream.last_end = end
        plan.hit = not demand_ios and not plan.waits
        return plan

    # -- writes ---------------------------------------------------------------

    def _block_spans(self, start: int, nbytes: int) -> Iterator[tuple[int, int, int]]:
        """(block_addr, lo, hi): each block [start, start + nbytes) touches, clipped to it."""

        end = start + nbytes
        for addr in split_into_blocks(start, nbytes):
            yield addr, max(start, addr), min(end, addr + BLOCK_BYTES)

    def _dirty_sectors(self, file_id: int, start: int, nbytes: int, tag: int) -> None:
        for addr, lo, hi in self._block_spans(start, nbytes):
            self.dirty_blocks.setdefault((file_id, addr), TagMap()).overlay(_tags(lo, hi, tag))
            self.mark_resident(file_id, addr)

    def _direct_write_ios(
        self, file_id: int, start: int, nbytes: int, tag: int
    ) -> list[IoMsg]:
        """Per-block direct disk writes for the uncached part of a request.

        Sectors that are currently dirty in the cache are updated there
        instead, so no later flush lands stale data over this write; a flush
        already queued at the scheduler still can (ROADMAP item 1, class A).
        """

        ios = []
        for addr, lo, hi in self._block_spans(start, nbytes):
            sectors = sector_range(lo, hi)
            dirty = self.dirty_blocks.get((file_id, addr))
            covered = dirty.clip(sectors.start, sectors.stop) if dirty is not None else ()
            if covered:
                dirty.overlay([(first, end, tag) for first, end, _ in covered])
            gaps = uncovered_runs(sectors.start, len(sectors), [run[:2] for run in covered])
            ios += _run_writes([(lba, lba + n, tag) for lba, n in gaps], APP_DIRECT, APP_ACTOR)
        return ios

    def on_write(self, req: CanonicalRequest, tag: int) -> Plan:
        if req.op is not WRITE:
            raise ValueError("on_write requires a WRITE request")
        if req.mode is NO_BUFFER:
            return _passthrough(req, tag)

        start, length = req.disk_byte_addr, req.length_bytes
        if req.mode is WRITE_THROUGH:
            # Copy to cache block by block, push the data through to media,
            # then update the file's metadata: the gate admits no request
            # until then.
            self.wt_gate = tag
            plan = Plan(copy_bytes=length)
            for addr, lo, hi in self._block_spans(start, length):
                self.mark_resident(req.file_id, addr)
                plan.ios.append(
                    IoMsg(
                        write=True,
                        disk_addr=lo,
                        nbytes=hi - lo,
                        purpose=WT_DATA,
                        actor=APP_ACTOR,
                        sector_tags=_tags(lo, hi, tag),
                    )
                )
            return plan

        regime = classify_write_regime(length)
        n = periodic_block_count(length)
        stream = self.streams[req.file_id]
        plan = Plan()
        if regime is PROGRESSIVE:
            cached_blocks, direct_blocks = n, 0
            cache_bytes, direct_bytes = length, 0
            plan.kick_progressive = True
        else:
            if stream.block_count != n:
                stream.block_count = n
                stream.period_position = 0
            cached_blocks, direct_blocks = periodic_split(n, stream.period_position)
            stream.period_position = (stream.period_position + 1) % periodic_period_length(n)
            cache_bytes = min(cached_blocks * BLOCK_BYTES, length)
            direct_bytes = length - cache_bytes

        self.write_splits.append((tag, cached_blocks, direct_blocks))
        plan.copy_bytes = cache_bytes
        if cache_bytes:
            self._dirty_sectors(req.file_id, start, cache_bytes, tag)
            # Dirty growth is accounted in whole blocks, matching the
            # observed flush cadence rather than raw byte counts.
            self.dirty_accounted_bytes += cached_blocks * BLOCK_BYTES
        if direct_bytes:
            plan.ios.extend(
                self._direct_write_ios(req.file_id, start + cache_bytes, direct_bytes, tag)
            )
        threshold = self.config.working_set_bytes - RESERVE_CONSTANT_BYTES
        if regime is PERIODIC and self.dirty_accounted_bytes >= threshold:
            plan.ios.extend(self.flush_all())
            self.flush_ordinals.append(tag)
        return plan

    # -- flushing ---------------------------------------------------------------

    def flush_all(self) -> list[IoMsg]:
        """Drain the whole dirty set in first-write order."""

        ios = []
        while self.dirty_blocks:
            _, dirty = self.dirty_blocks.popitem(last=False)
            ios.extend(_run_writes(dirty.runs, FLUSH, SYSTEM_ACTOR))
        self.dirty_accounted_bytes = 0
        return ios

    def next_progressive_flush(self) -> list[IoMsg]:
        """One 64KB block for the continuous destage chain, oldest first."""

        if not self.dirty_blocks:
            self.dirty_accounted_bytes = 0
            return []
        _, dirty = self.dirty_blocks.popitem(last=False)
        self.dirty_accounted_bytes = max(0, self.dirty_accounted_bytes - BLOCK_BYTES)
        return _run_writes(dirty.runs, FLUSH, SYSTEM_ACTOR)

    def metadata_io(self) -> IoMsg:
        return IoMsg(
            write=True,
            disk_addr=self.config.metadata_disk_addr,
            nbytes=METADATA_WRITE_BYTES,
            purpose=METADATA,
            actor=SYSTEM_ACTOR,
        )


def _passthrough(req: CanonicalRequest, tag: int | None) -> Plan:
    """NO_BUFFER: one disk request of the original size.

    The cache manager is bypassed outright and no cache state is touched.
    """

    write = req.op is WRITE
    end = req.disk_byte_addr + req.length_bytes
    tags = _tags(req.disk_byte_addr, end, tag) if write else None
    return Plan(
        ios=[
            IoMsg(
                write=write,
                disk_addr=req.disk_byte_addr,
                nbytes=req.length_bytes,
                purpose=PASSTHROUGH,
                actor=APP_ACTOR,
                sector_tags=tags,
            )
        ]
    )


def _tags(lo: int, hi: int, tag: int) -> TagRuns:
    """The sectors of the byte range [lo, hi), all tagged ``tag``."""

    sectors = sector_range(lo, hi)
    return ((sectors.start, sectors.stop, tag),)


def _run_writes(runs: Sequence[TagRun], purpose: Purpose, actor: str) -> list[IoMsg]:
    """One write per stretch of back-to-back runs, in ascending order."""

    ios = []
    first = 0
    for k in range(1, len(runs) + 1):
        if k < len(runs) and runs[k][0] == runs[k - 1][1]:
            continue
        start, end = runs[first][0], runs[k - 1][1]
        ios.append(
            IoMsg(
                write=True,
                disk_addr=start * SECTOR_BYTES,
                nbytes=(end - start) * SECTOR_BYTES,
                purpose=purpose,
                actor=actor,
                sector_tags=tuple(runs[first:k]),
            )
        )
        first = k
    return ios


def _interleave(first: list, second: list) -> list:
    """Alternate two lists starting with the first; leftovers keep order."""

    return [x for pair in zip_longest(first, second) for x in pair if x is not None]
