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
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable

from .requests import SECTOR_BYTES

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


@dataclass
class LocalPatternDetector:
    """Sliding window over the last three request extents.

    Fires on the shape A, B, A-adjacent: the third request continues the
    first one exactly while the middle one sits nearby on the platter.
    """

    window: deque[tuple[int, int]] = field(default_factory=lambda: deque(maxlen=3))

    def observe(self, lba: int, sectors: int) -> bool:
        self.window.append((lba, sectors))
        if len(self.window) < 3:
            return False
        (a, a_len), (b, _), (c, _) = self.window
        return c == a + a_len and b != c and abs(b - (a + a_len)) <= LOCALITY_RADIUS_SECTORS


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
    """One media op from plan to done; ``DiskCacheStage`` stamps its id and ``host``."""

    role: MediaRole
    lba: int
    sectors: int
    sector_tags: TagRuns | None = None
    penalty_rotations: int = 0
    media_id: int = 0
    #: The host io a HOST_WRITE op serves.
    host: IoMsg | None = None
    #: The disk's own timer: the op has left the platter.
    finished: bool = False
    #: Reported back to the drive cache.
    done: bool = False

    @property
    def write(self) -> bool:
        return self.role is MediaRole.HOST_WRITE or self.role is MediaRole.DESTAGE

    @property
    def purpose(self) -> str:
        if self.role is MediaRole.HOST_WRITE:
            return self.host.purpose.value
        return self.role.value

    @property
    def kind(self) -> str:
        if self.done:
            return "media-done"
        return "media-finish" if self.finished else "media"

    def detail(self) -> str:
        head = f"media={self.media_id}"
        if self.done:
            return f"{head} lba={self.lba} sectors={self.sectors} purpose={self.purpose}"
        if self.finished:
            return head
        op = "write" if self.write else "read"
        return f"{head} op={op} lba={self.lba} sectors={self.sectors} purpose={self.purpose}"


class SegmentedCache:
    """Drive cache state machine, independent of the event engine.

    It plans every media op as the ``MediaMsg`` that travels, with the
    penalty rotations it owes: it owns the reads in flight, the queued
    fill-ahead and the one destage slot, and stops each read at the disk end
    (``usable_sectors``).  It also settles the held host read: ``awaited``
    holds the runs whose data has not been delivered to it.
    """

    def __init__(self, config: DiskCacheConfig, usable_sectors: int = sys.maxsize):
        self.config = config
        self.usable_sectors = usable_sectors
        self.segments = [Segment() for _ in range(config.segment_count)]
        self.detector = LocalPatternDetector()
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
        self.seq_last_end: int | None = None
        self.fill_frontier = 0
        self.local_prefetch_count = 0
        self._penalty_pending = 0

    # -- bookkeeping ----------------------------------------------------------

    def _touch(self, segment: Segment) -> None:
        self._touch_seq += 1
        segment.last_touch = self._touch_seq

    def _extend(self, seg: Segment, lba: int, sectors: int) -> None:
        """Raise ``seg.end`` to cover the run and touch ``seg``.

        The segment slides forward over a long sequential stream.  Only the
        end moves toward the run: a run starting below ``seg.start`` keeps
        its leading sectors out of the segment.
        """

        seg.end = max(seg.end, lba + sectors)
        seg.start = max(seg.start, seg.end - self.config.segment_sectors)
        self._touch(seg)

    def _segment_for(self, lba: int, sectors: int) -> Segment | None:
        """The first non-empty segment that overlaps the run or ends where it starts."""

        end = lba + sectors
        for seg in self.segments:
            start, stop = seg.start, seg.end
            if start < stop and (lba < stop and start < end or stop == lba):
                return seg
        return None

    def _stage(self, lba: int, sectors: int) -> Segment | None:
        """The segment now holding the run, or None when every segment is dirty."""

        seg = self._segment_for(lba, sectors)
        if seg is None:
            seg = self._allocate()
            if seg is None:
                return None
            seg.start = seg.end = lba
        self._extend(seg, lba, sectors)
        return seg

    def _allocate(self) -> Segment | None:
        """LRU-clean victim, or None when every segment is dirty.

        The least recently touched clean segment wins, the lowest index on a
        tie, so a fresh cache fills segment 0 first.
        """

        victim = None
        for s in self.segments:
            if not s.pending_writes and (victim is None or s.last_touch < victim.last_touch):
                victim = s
        if victim is None:
            return None
        victim.start = victim.end = 0
        victim.local_prefetch = False
        victim.consumed_by_128k = 0
        return victim

    def resident(self, lba: int, sectors: int) -> bool:
        end = lba + sectors
        return any(s.start <= lba and end <= s.end for s in self.segments if s.end > s.start)

    def missing_runs(self, lba: int, sectors: int) -> list[tuple[int, int]]:
        """Runs of [lba, lba + sectors) that no segment holds."""

        end = lba + sectors
        overlapping = [(s.start, s.end) for s in self.segments if s.start < end and lba < s.end]
        return uncovered_runs(lba, sectors, overlapping)

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
        missing = self.missing_runs(lba, sectors)
        if not missing:
            classification = Lookup.HIT
            # The first segment that overlaps the read: one does, as no run is missing.
            end = lba + sectors
            for holder in self.segments:
                if holder.start < end and lba < holder.end:
                    break
            self._touch(holder)
            # Only LOCAL_512K stages local prefetches, so only it owes the
            # repositioning penalty.
            if holder.local_prefetch and sectors * SECTOR_BYTES == 131_072:
                holder.consumed_by_128k += sectors
                if holder.consumed_by_128k >= PREFETCH_BLOCK_SECTORS:
                    self._penalty_pending += 1
                    holder.consumed_by_128k = 0
        elif len(missing) == 1 and missing[0] == (lba, sectors):
            classification = Lookup.MISS
        else:
            classification = Lookup.PARTIAL

        self.awaited = missing
        reads: list[MediaMsg] = []
        for run_lba, run_sectors in missing:
            if not self._covered_by_fill(run_lba, run_sectors):
                self.expect_fill(run_lba, run_sectors)
                penalty = self.take_penalty_rotations()
                reads.append(MediaMsg(MediaRole.HOST_READ, run_lba, run_sectors, None, penalty))
        sequential = self.seq_last_end is not None and lba == self.seq_last_end
        if cfg.read_prefetch is not ReadPrefetch.NONE and sequential:
            # Fill one segment past the request, short of the disk end.
            frontier = max(self.fill_frontier, lba + sectors)
            target = min(lba + sectors + cfg.segment_sectors, self.usable_sectors)
            if target > frontier:
                self.fill_frontier = target
                self.fill_ranges.append((frontier, target))
                reads += self._next_fill_chunk()
        elif not sequential:
            self.fill_frontier = 0
        if cfg.read_prefetch is ReadPrefetch.LOCAL_512K and self.detector.observe(lba, sectors):
            self.local_prefetch_count += 1
            prefetch = min(PREFETCH_BLOCK_SECTORS, self.usable_sectors - lba)
            self.expect_fill(lba, prefetch)
            penalty = self.take_penalty_rotations()
            reads.append(MediaMsg(MediaRole.LOCAL_PREFETCH, lba, prefetch, None, penalty))
        self.seq_last_end = lba + sectors
        return classification, reads

    def _covered_by_fill(self, lba: int, sectors: int) -> bool:
        """Whether in-flight plus queued fills will cover the run entirely."""

        inflight = [(start, start + n) for start, n in self.outstanding_fills]
        return not uncovered_runs(lba, sectors, [*inflight, *self.fill_ranges])

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
        self.expect_fill(start, take)
        self._fill_chunk_outstanding = True
        return (MediaMsg(MediaRole.FILL_CHUNK, start, take, None, self.take_penalty_rotations()),)

    def take_penalty_rotations(self) -> int:
        """Rotations of repositioning penalty owed to the next media op planned."""

        owed = self._penalty_pending
        self._penalty_pending = 0
        return owed

    # -- fills -------------------------------------------------------------------

    def expect_fill(self, lba: int, sectors: int) -> None:
        self.outstanding_fills.append((lba, sectors))

    def on_media_data(self, lba: int, sectors: int, role: MediaRole) -> tuple[MediaMsg, ...]:
        """A planned destage or media read completed; returns the ops it starts.

        A destage frees the destage slot for the next one.  Read data is
        staged in a segment and delivered to the held read: delivery, not
        residency, settles it, since the data may slide out of its segment,
        or straddle two, before the read's last run arrives.  A fill
        chunk's data frees the chunk slot for the next queued chunk.
        """

        if role is MediaRole.DESTAGE:
            self.destage_inflight = False
            return self._next_destage()
        if sectors <= 0 or (lba, sectors) not in self.outstanding_fills:
            raise UnexpectedFill(f"no outstanding fill for [{lba}, {lba + sectors})")
        self.outstanding_fills.remove((lba, sectors))
        if self.awaited:
            delivered = ((lba, lba + sectors),)
            self.awaited = [gap for run in self.awaited for gap in uncovered_runs(*run, delivered)]
        seg = self._stage(lba, sectors)
        # With every segment dirty the data is served uncached.
        if seg is not None and role is MediaRole.LOCAL_PREFETCH:
            seg.local_prefetch = True
            seg.consumed_by_128k = 0
        if role is not MediaRole.FILL_CHUNK:
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
        if self.config.write_policy is WritePolicy.WRITE_THROUGH or force_media:
            # Written-through data stays readable from the cache afterwards.
            seg = self._segment_for(lba, sectors)
            if seg is not None and not seg.dirty:
                self._extend(seg, lba, sectors)
            write = MediaMsg(MediaRole.HOST_WRITE, lba, sectors, tags, self.take_penalty_rotations())
            return Ack.ACK_AFTER_MEDIA, (write,)

        seg = self._stage(lba, sectors)
        if seg is None:
            return Ack.DEFER, self._next_destage()
        seg.pending_writes += 1
        self.writes.append((seg, lba, sectors, tags))
        return Ack.ACK_NOW, self._next_destage()

    def _next_destage(self) -> tuple[MediaMsg, ...]:
        """The next destage to write, unless one is in flight."""

        if self.destage_inflight:
            return ()
        record = self.destage_next()
        if record is None:
            return ()
        self.destage_inflight = True
        return (MediaMsg(MediaRole.DESTAGE, *record, self.take_penalty_rotations()),)

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
