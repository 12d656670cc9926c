"""Segmented on-drive cache with configurable prefetch and write policies.

Policies form a small library of observed drive behaviors: plain segment
caching, sequential fill-ahead, and a quirk seen on one tested drive that
prefetches 512KB whenever two nearby blocks are requested back to back
around a sequential continuation.  Write-back drives acknowledge into a
segment and destage in the background; write-through drives acknowledge
only after media completion.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Sequence

from .requests import SECTOR_BYTES, sector_range

if TYPE_CHECKING:
    from .fscache import IoMsg


class UnexpectedFill(Exception):
    """Media data arrived that no outstanding fill or prefetch asked for."""


class ReadPrefetch(Enum):
    NONE = "NONE"
    SEQUENTIAL_FILL = "SEQUENTIAL_FILL"
    #: Sequential fill plus the local-pattern 512KB prefetch quirk and its
    #: repositioning penalty.
    LOCAL_512K = "LOCAL_512K"


class WritePolicy(Enum):
    WRITE_BACK = "WRITE_BACK"
    WRITE_THROUGH = "WRITE_THROUGH"


class Lookup(Enum):
    HIT = "HIT"
    PARTIAL = "PARTIAL"
    MISS = "MISS"


class Ack(Enum):
    ACK_NOW = "ACK_NOW"
    ACK_AFTER_MEDIA = "ACK_AFTER_MEDIA"
    DEFER = "DEFER"


class MediaRole(Enum):
    """What a drive-cache media op is for; the value is its logged purpose."""

    HOST_READ = "host-fill"
    LOCAL_PREFETCH = "local-prefetch"
    FILL_CHUNK = "fill-chunk"
    HOST_WRITE = "host-write"  # logged with the host io's own purpose
    DESTAGE = "destage"


# Module constants for the hot paths: see the comment at ``StageId.__hash__``.
NONE, SEQUENTIAL_FILL, LOCAL_512K = ReadPrefetch
WRITE_BACK, WRITE_THROUGH = WritePolicy
HIT, PARTIAL, MISS = Lookup
ACK_NOW, ACK_AFTER_MEDIA, DEFER = Ack
HOST_READ, LOCAL_PREFETCH, FILL_CHUNK, HOST_WRITE, DESTAGE = MediaRole


#: The local-pattern prefetch reads 512KB from the third request's start.
PREFETCH_BLOCK_SECTORS = 524_288 // SECTOR_BYTES
#: Two requests count as "local" when the second starts within this many
#: sectors of the first one's end (the observed pattern gap is four 64KB
#: blocks).
LOCALITY_RADIUS_SECTORS = 512
#: Media ops used to fill ahead of a sequential stream.
FILL_CHUNK_SECTORS = 128


@dataclass(frozen=True)
class DiskCacheConfig:
    segment_count: int = 16
    segment_bytes: int = 512 * 1024
    read_prefetch: ReadPrefetch = ReadPrefetch.SEQUENTIAL_FILL
    write_policy: WritePolicy = WritePolicy.WRITE_BACK

    def __post_init__(self) -> None:
        if self.segment_count < 1:
            raise ValueError(f"segment_count must be >= 1, got {self.segment_count}")
        if self.segment_bytes <= 0 or self.segment_bytes % SECTOR_BYTES:
            raise ValueError(
                f"segment_bytes must be a positive multiple of {SECTOR_BYTES}, "
                f"got {self.segment_bytes}"
            )

    @property
    def segment_sectors(self) -> int:
        return self.segment_bytes // SECTOR_BYTES


@dataclass
class Segment:
    """One contiguous staging region; the unit of replacement."""

    start: int = 0  # valid run [start, end) in absolute sectors
    end: int = 0
    last_touch: int = 0
    #: This segment's write records in ``SegmentedCache.writes``.
    pending_writes: int = 0
    local_prefetch: bool = False
    consumed_by_128k: int = 0

    @property
    def dirty(self) -> bool:
        return self.pending_writes > 0


def uncovered_runs(
    lba: int, sectors: int, extents: Iterable[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Maximal runs of [lba, lba + sectors) outside every [start, end) extent.

    Runs come as (lba, sectors) in ascending order; empty extents count for
    nothing.
    """

    runs = []
    cursor, end = lba, lba + sectors
    for start, stop in sorted(extents):
        if cursor >= end:
            break
        if stop <= max(start, cursor):
            continue
        if start > cursor:
            runs.append((cursor, min(start, end) - cursor))
        cursor = stop
    if cursor < end:
        runs.append((cursor, end - cursor))
    return runs


#: Sectors [start, end) that all carry one write tag: (start, end, tag).
TagRun = tuple[int, int, int]
#: The tags of one write, in ascending sector order.
TagRuns = tuple[TagRun, ...]
_START = itemgetter(0)
_END = itemgetter(1)


class TagMap:
    """A sector -> write-tag map held as runs.

    ``runs`` is sorted and disjoint, and no two touching runs carry the same
    tag, so two maps of the same sectors to the same tags hold equal runs and
    ``==`` compares the maps.
    """

    __slots__ = ("runs",)

    def __init__(self) -> None:
        self.runs: list[TagRun] = []

    def overlay(self, runs: Iterable[TagRun]) -> None:
        """Write each run over the map in turn; empty runs change nothing."""

        for start, end, tag in runs:
            if start < end:
                self._overlay(start, end, tag)

    def _overlay(self, start: int, end: int, tag: int) -> None:
        runs = self.runs
        # runs[i:j] are the runs that overlap [start, end).
        i = bisect_right(runs, start, key=_END)
        j = bisect_left(runs, end, i, key=_START)
        head: TagRuns = ()
        tail: TagRuns = ()
        if i < j and runs[i][0] < start:
            lo, _, old = runs[i]
            if old == tag:
                start = lo
            else:
                head = ((lo, start, old),)
        elif i and runs[i - 1][1] == start and runs[i - 1][2] == tag:
            i -= 1
            start = runs[i][0]
        if i < j and runs[j - 1][1] > end:
            _, hi, old = runs[j - 1]
            if old == tag:
                end = hi
            else:
                tail = ((end, hi, old),)
        elif j < len(runs) and runs[j][0] == end and runs[j][2] == tag:
            end = runs[j][1]
            j += 1
        runs[i:j] = (*head, (start, end, tag), *tail)

    def clip(self, lo: int, hi: int) -> TagRuns:
        """The runs inside [lo, hi), cut at its edges."""

        runs = self.runs
        out = []
        for k in range(bisect_right(runs, lo, key=_END), len(runs)):
            start, end, tag = runs[k]
            if start >= hi:
                break
            out.append((max(start, lo), min(end, hi), tag))
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TagMap):
            return NotImplemented
        return self.runs == other.runs

    def __repr__(self) -> str:
        return f"TagMap({self.runs!r})"


@dataclass(slots=True)
class MediaMsg:
    """One media op from plan to done.

    ``DiskCacheStage`` stamps its id at issue; ``DiskStage`` times it when it
    arrives and sends its done form back at its finish.
    """

    role: MediaRole
    lba: int
    sectors: int
    sector_tags: TagRuns | None = None
    penalty_rotations: int = 0
    media_id: int = 0
    #: The host io a HOST_WRITE op serves.
    host: IoMsg | None = None
    #: Timed by the disk, which reports it back to the drive cache at its finish.
    done: bool = False

    @property
    def write(self) -> bool:
        return self.role is HOST_WRITE or self.role is DESTAGE

    @property
    def purpose(self) -> str:
        if self.role is HOST_WRITE:
            return self.host.purpose.value
        return self.role.value

    @property
    def kind(self) -> str:
        return "media-done" if self.done else "media"

    def detail(self) -> str:
        head = f"media={self.media_id}"
        if self.done:
            return f"{head} lba={self.lba} sectors={self.sectors} purpose={self.purpose}"
        op = "write" if self.write else "read"
        return f"{head} op={op} lba={self.lba} sectors={self.sectors} purpose={self.purpose}"


class SegmentedCache:
    """Drive cache state machine, independent of the event engine.

    It plans every media op as the ``MediaMsg`` that travels, with the
    penalty rotations it owes: it owns the reads in flight, the queued
    fill-ahead and the one destage slot, and stops each read at the disk end
    (``usable_sectors``).  It also decides every host acknowledgement:
    :meth:`host_io` and :meth:`media_done` return, in send order, the media
    ops to issue and the host ios acknowledged now.  The drive serves one
    host io at a time, and ``held`` keeps it while its acknowledgement waits:
    a read until ``awaited``, the runs no media data has delivered to it yet,
    is empty; a write-back write until a destage frees a segment.  A
    write-through write is never held: it waits on its ``MediaMsg.host``.

    Each read rule is written once.  ``recent``, the one window of the last
    three host reads, answers both "does this read continue the last one?"
    (sequential fill-ahead) and the local A, B, A-adjacent pattern.
    :meth:`_plan` builds every media op: it enters a read as an outstanding
    fill and charges the penalty owed.  Staging a run walks ``segments``
    once, with no index beside it (a start-sorted one gained nothing at 16
    segments): :meth:`_segment_for` finds the run's holder or, failing one,
    its victim in the same pass; a lookup's one pass is :meth:`missing_runs`,
    which also names the segment a hit touches.
    """

    def __init__(self, config: DiskCacheConfig, usable_sectors: int = sys.maxsize):
        self.config = config
        self.segment_sectors = config.segment_sectors
        self.usable_sectors = usable_sectors
        self.segments = [Segment() for _ in range(config.segment_count)]
        #: The last three host reads, clipped (lba, sectors), oldest first.
        self.recent: deque[tuple[int, int]] = deque(maxlen=3)
        self._touch_seq = 0
        #: Write records not yet destaged, in arrival order: (segment, lba,
        #: sectors, tags).
        self.writes: deque[tuple[Segment, int, int, TagRuns | None]] = deque()
        #: (lba, sectors) of every media read (host fill, fill chunk or local
        #: prefetch) whose data has not arrived: the in-flight fills.
        self.outstanding_fills: list[tuple[int, int]] = []
        #: [start, end) fill-ahead ranges not yet read, one chunk at a time.
        self.fill_ranges: deque[tuple[int, int]] = deque()
        self._fill_chunk_outstanding = False
        #: One destage at a time: the next starts when its data is written.
        self.destage_inflight = False
        #: Runs of the last host read that no media data has delivered yet.
        self.awaited: list[tuple[int, int]] = []
        #: The host io whose acknowledgement waits on media data or a free segment.
        self.held: IoMsg | None = None
        self.fill_frontier = 0
        self.local_prefetch_count = 0
        self._penalty_pending = 0

    # -- bookkeeping ----------------------------------------------------------

    def _extend(self, seg: Segment, lba: int, sectors: int) -> None:
        """Raise ``seg.end`` to cover the run and touch ``seg``.

        The segment slides forward over a long sequential stream.  Only the
        end moves toward the run: a run starting below ``seg.start`` keeps
        its leading sectors out of the segment.
        """

        end = lba + sectors
        if end > seg.end:
            seg.end = end
        start = seg.end - self.segment_sectors
        if start > seg.start:
            seg.start = start
        self._touch_seq += 1
        seg.last_touch = self._touch_seq

    def _segment_for(self, lba: int, sectors: int) -> tuple[Segment | None, bool]:
        """The run's holder and True, else its victim and False, in one pass.

        The holder is the first non-empty segment that overlaps the run or
        ends where it starts; the victim is the least recently touched clean
        segment, the lowest index on a tie, or None when every one is dirty.
        """

        end = lba + sectors
        victim, oldest = None, sys.maxsize
        for seg in self.segments:
            start, stop = seg.start, seg.end
            if start < stop and (lba < stop and start < end or stop == lba):
                return seg, True
            if seg.last_touch < oldest and not seg.pending_writes:
                victim, oldest = seg, seg.last_touch
        return victim, False

    def _stage(self, lba: int, sectors: int) -> Segment | None:
        """The segment now holding the run, or None when every segment is dirty.

        One pass of :meth:`_segment_for` finds the holder or the victim; a
        victim is emptied and restarts at ``lba``.
        """

        seg, held = self._segment_for(lba, sectors)
        if not held:
            if seg is None:
                return None
            seg.start = seg.end = lba
            seg.local_prefetch = False
            seg.consumed_by_128k = 0
        self._extend(seg, lba, sectors)
        return seg

    def resident(self, lba: int, sectors: int) -> bool:
        end = lba + sectors
        return any(s.start <= lba and end <= s.end for s in self.segments if s.end > s.start)

    def missing_runs(self, lba: int, sectors: int) -> tuple[list[tuple[int, int]], Segment | None]:
        """Runs of [lba, lba + sectors) no segment holds, and the first segment holding one.

        The runs come as a new list, and only overlapping extents are sorted;
        the segment is the first in list order that holds a sector of the
        run, or None when none does.
        """

        if sectors <= 0:
            return [], None
        end = lba + sectors
        # A plain loop: a comprehension is a nested call on 3.10 and 3.11.
        holders = []
        for s in self.segments:
            if s.start < end and lba < s.end and s.start < s.end:
                holders.append(s)
        if holders:
            return uncovered_runs(lba, sectors, [(s.start, s.end) for s in holders]), holders[0]
        return [(lba, sectors)], None

    # -- host traffic --------------------------------------------------------------

    def host_io(self, io: IoMsg) -> Sequence[MediaMsg | IoMsg]:
        """Take the host io at the drive; returns the media ops and acks to send, in order.

        A read sends its media reads, then its ack unless it is held for
        data.  A write acknowledged now sends its ack, then the next destage;
        a deferred write is held, and only the destage goes.
        """

        sectors = sector_range(io.disk_addr, io.disk_addr + io.nbytes)
        lba, count = sectors.start, len(sectors)
        if not io.write:
            sends: list[MediaMsg | IoMsg] = self.read_lookup(lba, count)[1]
            if self.awaited:
                self.held = io
            else:
                sends.append(io)
            return sends
        ack, writes = self.write_accept(lba, count, io.sector_tags, io.purpose.force_media)
        if ack is ACK_AFTER_MEDIA:
            # One media write, whose completion acknowledges the host io.
            writes[0].host = io
            return writes
        if ack is ACK_NOW:
            return (io, *writes)
        self.held = io
        return writes

    def media_done(self, op: MediaMsg) -> Sequence[MediaMsg | IoMsg]:
        """A media op is done; returns the media ops and acks to send, in order.

        After the ops :meth:`on_media_data` starts comes the held write's
        retry once a destage frees a segment, or the held read's ack once it
        awaits nothing.
        """

        if op.role is HOST_WRITE:
            return (op.host,)
        sends = self.on_media_data(op.lba, op.sectors, op.role)
        held = self.held
        if held is not None and (op.role is DESTAGE if held.write else not self.awaited):
            self.held = None
            return (*sends, *self.host_io(held)) if held.write else (*sends, held)
        return sends

    # -- reads -----------------------------------------------------------------

    def read_lookup(self, lba: int, sectors: int) -> tuple[Lookup, list[MediaMsg]]:
        """Classify a host read and plan the media reads it starts.

        Returns (classification, reads).  The reads are in issue order: the
        host's runs no fill covers (so the media keeps ascending LBA order),
        the next fill-ahead chunk, the local prefetch.  Each is already an
        outstanding fill; the caller issues them and hands their data to
        :meth:`on_media_data`.  The runs no segment holds become
        ``awaited``.  The read stops at the disk end: the fs cache reads
        whole 64KB blocks.
        """

        if sectors <= 0 or lba >= self.usable_sectors:
            raise ValueError(f"read [{lba}, +{sectors}) holds no sector of the disk")
        sectors = min(sectors, self.usable_sectors - lba)
        cfg = self.config
        missing, holder = self.missing_runs(lba, sectors)
        if not missing:
            classification = HIT
            # ``holder`` holds a sector of the read: some segment does, as no run is missing.
            self._touch_seq += 1
            holder.last_touch = self._touch_seq
            # Only LOCAL_512K stages local prefetches, so only it owes the
            # repositioning penalty.
            if holder.local_prefetch and sectors * SECTOR_BYTES == 131_072:
                holder.consumed_by_128k += sectors
                if holder.consumed_by_128k >= PREFETCH_BLOCK_SECTORS:
                    self._penalty_pending += 1
                    holder.consumed_by_128k = 0
        elif len(missing) == 1 and missing[0] == (lba, sectors):
            classification = MISS
        else:
            classification = PARTIAL

        self.awaited = missing
        reads: list[MediaMsg] = []
        for run_lba, run_sectors in missing:
            if not self._covered_by_fill(run_lba, run_sectors):
                reads.append(self._plan(HOST_READ, run_lba, run_sectors))
        recent = self.recent
        sequential = bool(recent) and lba == recent[-1][0] + recent[-1][1]
        recent.append((lba, sectors))
        if cfg.read_prefetch is not NONE and sequential:
            # Fill one segment past the request, short of the disk end.
            frontier = max(self.fill_frontier, lba + sectors)
            target = min(lba + sectors + self.segment_sectors, self.usable_sectors)
            if target > frontier:
                self.fill_frontier = target
                self.fill_ranges.append((frontier, target))
                reads += self._next_fill_chunk()
        elif not sequential:
            self.fill_frontier = 0
        if cfg.read_prefetch is LOCAL_512K and len(recent) == 3:
            # The local pattern A, B, A-adjacent: this read continues A
            # exactly while B sits nearby on the platter.
            (a, a_sectors), (b, _), _ = recent
            if lba == a + a_sectors and b != lba and abs(b - lba) <= LOCALITY_RADIUS_SECTORS:
                self.local_prefetch_count += 1
                prefetch = min(PREFETCH_BLOCK_SECTORS, self.usable_sectors - lba)
                reads.append(self._plan(LOCAL_PREFETCH, lba, prefetch))
        return classification, reads

    def _covered_by_fill(self, lba: int, sectors: int) -> bool:
        """Whether in-flight and queued fills cover the whole (non-empty) run; False with none.

        Walks the run from its first sector: each step moves the cursor past
        the in-flight fill or queued range that holds it, and the walk fails
        at the first sector that none holds.
        """

        fills, ranges = self.outstanding_fills, self.fill_ranges
        if not fills and not ranges:
            return False
        cursor, end = lba, lba + sectors
        while cursor < end:
            for start, n in fills:
                if start <= cursor < start + n:
                    cursor = start + n
                    break
            else:
                for start, stop in ranges:
                    if start <= cursor < stop:
                        cursor = stop
                        break
                else:
                    return False
        return True

    def _next_fill_chunk(self) -> tuple[MediaMsg, ...]:
        """The next fill-ahead chunk to read, unless one is in flight."""

        if self._fill_chunk_outstanding or not self.fill_ranges:
            return ()
        start, end = self.fill_ranges[0]
        take = min(FILL_CHUNK_SECTORS, end - start)
        if start + take < end:
            self.fill_ranges[0] = (start + take, end)
        else:
            self.fill_ranges.popleft()
        self._fill_chunk_outstanding = True
        return (self._plan(FILL_CHUNK, start, take),)

    def _plan(
        self, role: MediaRole, lba: int, sectors: int, tags: TagRuns | None = None
    ) -> MediaMsg:
        """The media op for the run, owing the penalty now due; a read is entered as a fill."""

        if role is not HOST_WRITE and role is not DESTAGE:
            self.expect_fill(lba, sectors)
        return MediaMsg(role, lba, sectors, tags, self.take_penalty_rotations())

    def take_penalty_rotations(self) -> int:
        """Rotations of repositioning penalty owed to the next media op planned."""

        owed = self._penalty_pending
        self._penalty_pending = 0
        return owed

    # -- fills -------------------------------------------------------------------

    def expect_fill(self, lba: int, sectors: int) -> None:
        """Enter a planned media read as in flight; an empty read is no fill."""

        if sectors <= 0:
            raise ValueError(f"fill [{lba}, +{sectors}) reads no sector")
        self.outstanding_fills.append((lba, sectors))

    def on_media_data(self, lba: int, sectors: int, role: MediaRole) -> tuple[MediaMsg, ...]:
        """A planned destage or media read completed; returns the ops it starts.

        A destage frees the destage slot for the next one.  Read data is
        staged in a segment and delivered to the held read: delivery, not
        residency, settles it, since the data may slide out of its segment,
        or straddle two, before the read's last run arrives.  A fill
        chunk's data frees the chunk slot for the next queued chunk.
        """

        if role is DESTAGE:
            self.destage_inflight = False
            return self._next_destage()
        try:
            self.outstanding_fills.remove((lba, sectors))
        except ValueError:
            raise UnexpectedFill(f"no outstanding fill for [{lba}, {lba + sectors})") from None
        if self.awaited:
            # Each awaited run keeps what lies outside [lba, end): the whole
            # run, or the gaps left and right of the delivered data.
            end = lba + sectors
            awaited = []
            for run in self.awaited:
                run_lba, run_sectors = run
                run_end = run_lba + run_sectors
                if run_end <= lba or end <= run_lba:
                    awaited.append(run)
                    continue
                if run_lba < lba:
                    awaited.append((run_lba, lba - run_lba))
                if end < run_end:
                    awaited.append((end, run_end - end))
            self.awaited = awaited
        seg = self._stage(lba, sectors)
        # With every segment dirty the data is served uncached.
        if seg is not None and role is LOCAL_PREFETCH:
            seg.local_prefetch = True
            seg.consumed_by_128k = 0
        if role is not FILL_CHUNK:
            return ()
        self._fill_chunk_outstanding = False
        return self._next_fill_chunk()

    # -- writes -----------------------------------------------------------------

    def write_accept(
        self, lba: int, sectors: int, tags: TagRuns | None, force_media: bool = False
    ) -> tuple[Ack, tuple[MediaMsg, ...]]:
        """Accept a host write; returns (ack, media writes to issue now).

        Write-through (or a forced-media write) returns the host write,
        whose completion acknowledges it.  Write-back acknowledges once the
        data sits in a segment, or defers the write while every segment is
        dirty; either way it starts the next destage if none is in flight.
        """

        if sectors <= 0:
            raise ValueError("sectors must be positive")
        if self.config.write_policy is WRITE_THROUGH or force_media:
            # Written-through data stays readable from the cache afterwards.
            seg, held = self._segment_for(lba, sectors)
            if held and not seg.dirty:
                self._extend(seg, lba, sectors)
            return ACK_AFTER_MEDIA, (self._plan(HOST_WRITE, lba, sectors, tags),)

        seg = self._stage(lba, sectors)
        if seg is None:
            return DEFER, self._next_destage()
        seg.pending_writes += 1
        self.writes.append((seg, lba, sectors, tags))
        return ACK_NOW, self._next_destage()

    def _next_destage(self) -> tuple[MediaMsg, ...]:
        """The next destage to write, unless one is in flight."""

        if self.destage_inflight:
            return ()
        record = self.destage_next()
        if record is None:
            return ()
        self.destage_inflight = True
        return (self._plan(DESTAGE, *record),)

    def destage_next(self) -> tuple[int, int, TagRuns | None] | None:
        """Oldest pending write record.

        Arrival order keeps overlapping writes staged in different segments
        from reaching the media out of order (and preserves each segment's
        write order).
        """

        if not self.writes:
            return None
        seg, lba, sectors, tags = self.writes.popleft()
        seg.pending_writes -= 1
        return lba, sectors, tags
