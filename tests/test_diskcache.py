"""Segmented drive cache: lookup, media read plan, write policies, LRU."""

from __future__ import annotations

import copy
import random
from collections import deque

import pytest
from hypothesis import example, given, strategies as st

from iostack import (
    Ack,
    DiskCacheConfig,
    Lookup,
    ReadPrefetch,
    UnexpectedFill,
    WritePolicy,
    load_config,
)
from iostack.diskcache import (
    MediaMsg,
    MediaRole,
    SegmentedCache,
    TagMap,
    uncovered_runs,
)
from iostack.requests import SECTOR_BYTES

BLOCK_SECTORS = 128  # one 64KB block
HOST_READ, LOCAL_PREFETCH, FILL_CHUNK = MediaRole.HOST_READ, MediaRole.LOCAL_PREFETCH, MediaRole.FILL_CHUNK
HOST_WRITE, DESTAGE = MediaRole.HOST_WRITE, MediaRole.DESTAGE


def cfg(**overrides) -> DiskCacheConfig:
    values = dict(
        segment_count=4,
        segment_bytes=256 * 1024,
        read_prefetch=ReadPrefetch.NONE,
    )
    values.update(overrides)
    return DiskCacheConfig(**values)


def fill(cache: SegmentedCache, lba: int, sectors: int, local: bool = False) -> None:
    cache.expect_fill(lba, sectors)
    cache.on_media_data(lba, sectors, LOCAL_PREFETCH if local else HOST_READ)


def op(role: MediaRole, lba: int, sectors: int, tags=None) -> MediaMsg:
    """The media op the cache plans, before the stage stamps its id."""

    return MediaMsg(role, lba, sectors, tags)


def dirty_records(cache: SegmentedCache) -> list:
    """The write records ``cache`` has yet to destage, in the order a copy of it destages them."""

    return list(iter(copy.deepcopy(cache).destage_next, None))


class TestReadLookup:
    def test_cold_miss_no_prefetch_under_none(self):
        cache = SegmentedCache(cfg())
        kind, reads = cache.read_lookup(1000, 8)
        assert kind is Lookup.MISS
        assert cache.awaited == [(1000, 8)]
        assert reads == [op(HOST_READ, 1000, 8)]
        assert cache.outstanding_fills == [(1000, 8)]

    def test_hit_after_fill(self):
        cache = SegmentedCache(cfg())
        fill(cache, 0, 256)
        kind, _ = cache.read_lookup(0, 256)
        assert kind is Lookup.HIT and not cache.awaited

    def test_partial_returns_missing_tail(self):
        cache = SegmentedCache(cfg())
        fill(cache, 0, 100)
        kind, _ = cache.read_lookup(0, 150)
        assert kind is Lookup.PARTIAL
        assert cache.awaited == [(100, 50)]

    def test_sequential_fill_directive_on_continuation(self):
        cache = SegmentedCache(cfg(read_prefetch=ReadPrefetch.SEQUENTIAL_FILL))
        cache.read_lookup(0, 128)
        _, reads = cache.read_lookup(128, 128)
        # One segment of fill-ahead past the request, read a chunk at a time.
        assert reads == [op(HOST_READ, 128, 128), op(FILL_CHUNK, 256, 128)]
        assert list(cache.fill_ranges) == [(384, 256 + cache.config.segment_sectors)]

    def test_zero_sector_fill_rejected(self):
        cache = SegmentedCache(cfg())
        with pytest.raises(ValueError):
            cache.expect_fill(0, 0)
        with pytest.raises(UnexpectedFill):
            cache.on_media_data(0, 0, HOST_READ)

    def test_unmatched_fill_rejected(self):
        cache = SegmentedCache(cfg())
        with pytest.raises(UnexpectedFill):
            cache.on_media_data(0, 64, HOST_READ)

    def test_hit_touches_the_segment_holding_the_read(self):
        # An earlier segment ends where the read starts; a later one holds
        # it, staged by a local prefetch, so a 128KB hit counts against it.
        cache = SegmentedCache(cfg(segment_count=2))
        before, holder = cache.segments
        before.start, before.end = 0, 128
        holder.start, holder.end, holder.local_prefetch = 128, 384, True
        kind, _ = cache.read_lookup(128, 256)
        assert kind is Lookup.HIT
        assert holder.last_touch > before.last_touch
        assert (holder.consumed_by_128k, before.consumed_by_128k) == (256, 0)


class TestReadPlan:
    def test_host_runs_then_fill_chunk_then_local_prefetch(self):
        cache = SegmentedCache(
            cfg(segment_count=16, segment_bytes=512 * 1024, read_prefetch=ReadPrefetch.LOCAL_512K)
        )
        assert cache.read_lookup(0, 256)[1] == [op(HOST_READ, 0, 256)]
        # In flight from the first read: no media read of its own.
        assert cache.read_lookup(128, 128)[1] == []
        # Continues the first read (the local pattern) and the second (a
        # sequential stream) at once.
        _, reads = cache.read_lookup(256, 128)
        assert cache.awaited == [(256, 128)]
        assert reads == [op(HOST_READ, 256, 128), op(FILL_CHUNK, 384, 128), op(LOCAL_PREFETCH, 256, 1024)]
        assert cache.outstanding_fills == [(0, 256), (256, 128), (384, 128), (256, 1024)]

    def test_fill_chunk_data_starts_the_next_chunk(self):
        cache = SegmentedCache(cfg(read_prefetch=ReadPrefetch.SEQUENTIAL_FILL))
        cache.read_lookup(0, 128)
        cache.read_lookup(128, 128)
        assert cache.on_media_data(128, 128, HOST_READ) == ()
        assert cache.on_media_data(256, 128, FILL_CHUNK) == (op(FILL_CHUNK, 384, 128),)
        assert cache.on_media_data(384, 128, FILL_CHUNK) == (op(FILL_CHUNK, 512, 128),)
        assert cache.on_media_data(512, 128, FILL_CHUNK) == (op(FILL_CHUNK, 640, 128),)
        # The segment's 512 sectors past the request are read: the queue is empty.
        assert cache.on_media_data(640, 128, FILL_CHUNK) == ()
        assert not cache.fill_ranges
        assert cache.outstanding_fills == [(0, 128)]

    def test_delivery_not_residency_settles_the_held_read(self):
        cache = SegmentedCache(cfg(segment_bytes=64 * 1024))  # 128-sector segments
        cache.read_lookup(0, 64)
        _, reads = cache.read_lookup(32, 224)  # [0, 64) is in flight
        assert cache.awaited == [(32, 224)]
        assert reads == [op(HOST_READ, 32, 224)]
        cache.on_media_data(0, 64, HOST_READ)
        assert cache.awaited == [(64, 192)]
        cache.on_media_data(32, 224, HOST_READ)
        # The segment slid past [32, 128) while the data arrived.
        assert not cache.awaited
        assert not cache.resident(32, 224)

    def test_run_covered_by_a_fill_gets_no_host_read(self):
        cache = SegmentedCache(cfg(read_prefetch=ReadPrefetch.SEQUENTIAL_FILL))
        cache.read_lookup(0, 128)
        cache.read_lookup(128, 128)  # chunk [256, 384) in flight, [384, 768) queued
        kind, reads = cache.read_lookup(256, 128)  # queues [768, 896) too
        assert (kind, cache.awaited, reads) == (Lookup.MISS, [(256, 128)], [])
        assert list(cache.fill_ranges) == [(384, 768), (768, 896)]
        kind, reads = cache.read_lookup(512, 128)
        assert (kind, cache.awaited, reads) == (Lookup.MISS, [(512, 128)], [])
        # Half in the queue, half past it.
        _, reads = cache.read_lookup(832, 128)
        assert cache.awaited == [(832, 128)] and reads == [op(HOST_READ, 832, 128)]

    @given(
        fills=st.lists(st.tuples(st.integers(0, 60), st.integers(1, 20)), max_size=4),
        ranges=st.lists(
            st.tuples(st.integers(0, 60), st.integers(0, 20)).map(lambda t: (t[0], t[0] + t[1])),
            max_size=4,
        ),
        lba=st.integers(0, 100),
        sectors=st.integers(1, 40),
    )
    @example(fills=[(0, 10)], ranges=[(10, 20)], lba=5, sectors=10)  # abutting: covered only together
    @example(fills=[(0, 10)], ranges=[(20, 30)], lba=12, sectors=4)  # the run starts in a gap
    @example(fills=[], ranges=[(10, 10)], lba=10, sectors=1)  # an empty range
    @example(fills=[(20, 10), (0, 25)], ranges=[(40, 50), (30, 40)], lba=10, sectors=38)  # out of start order
    @example(fills=[], ranges=[], lba=0, sectors=1)  # no fill at all
    def test_covered_by_fill_is_union_coverage(self, fills, ranges, lba, sectors):
        cache = SegmentedCache(cfg())
        cache.outstanding_fills = list(fills)
        cache.fill_ranges = deque(ranges)
        extents = [(start, start + n) for start, n in fills] + ranges
        want = not uncovered_runs(lba, sectors, extents)
        assert cache._covered_by_fill(lba, sectors) is want

    def test_no_read_passes_the_disk_end(self):
        cache = SegmentedCache(
            cfg(segment_count=16, segment_bytes=512 * 1024, read_prefetch=ReadPrefetch.LOCAL_512K),
            usable_sectors=1000,
        )
        cache.read_lookup(0, 256)
        cache.read_lookup(128, 128)
        # A 64KB block overhanging the end is read up to the end only.
        kind, reads = cache.read_lookup(256, 800)
        assert kind is Lookup.MISS and cache.awaited == [(256, 744)]
        assert reads == [op(HOST_READ, 256, 744), op(LOCAL_PREFETCH, 256, 744)]
        assert not cache.fill_ranges
        with pytest.raises(ValueError):
            cache.read_lookup(1000, 8)


class TestLocalPattern:
    """The A, B, A-adjacent pattern, read through ``read_lookup`` on a LOCAL_512K cache."""

    @staticmethod
    def local_prefetches(reads: list) -> list:
        cache = SegmentedCache(
            cfg(segment_count=16, segment_bytes=512 * 1024, read_prefetch=ReadPrefetch.LOCAL_512K)
        )
        return [
            [r for r in cache.read_lookup(lba, sectors)[1] if r.role is LOCAL_PREFETCH]
            for lba, sectors in reads
        ]

    def test_detector_fires_on_a_b_a_adjacent(self):
        # A = block 3, B = block 8 (a gap of 4 blocks), then the block after A.
        blocks = (3, 8, 4)
        fired = self.local_prefetches([(b * BLOCK_SECTORS, BLOCK_SECTORS) for b in blocks])
        assert fired == [[], [], [op(LOCAL_PREFETCH, 4 * BLOCK_SECTORS, 1024)]]

    def test_detector_ignores_pure_sequential(self):
        fired = self.local_prefetches([(i * BLOCK_SECTORS, BLOCK_SECTORS) for i in range(6)])
        assert not any(fired)

    def test_detector_respects_radius(self):
        # B starts 640 sectors (5 blocks) past A's end: beyond the radius.
        blocks = (0, 6, 1)
        assert not any(self.local_prefetches([(b * BLOCK_SECTORS, BLOCK_SECTORS) for b in blocks]))

    @pytest.mark.parametrize("gap, fires", [(512, True), (513, False)])
    def test_radius_boundary(self, gap, fires):
        # B starts ``gap`` sectors past A's end, where the third read starts.
        a_end = BLOCK_SECTORS
        fired = self.local_prefetches([(0, BLOCK_SECTORS), (a_end + gap, 8), (a_end, BLOCK_SECTORS)])
        assert fired[:2] == [[], []]
        assert fired[2] == ([op(LOCAL_PREFETCH, a_end, 1024)] if fires else [])

    def test_local_directive_from_third_request_start(self):
        cache = SegmentedCache(
            cfg(
                segment_count=16,
                segment_bytes=512 * 1024,
                read_prefetch=ReadPrefetch.LOCAL_512K,
            )
        )
        cache.read_lookup(3 * BLOCK_SECTORS, BLOCK_SECTORS)
        cache.read_lookup(8 * BLOCK_SECTORS, BLOCK_SECTORS)
        _, reads = cache.read_lookup(4 * BLOCK_SECTORS, BLOCK_SECTORS)
        # 512KB from the third request's start.
        assert [r for r in reads if r.role is LOCAL_PREFETCH] == [op(LOCAL_PREFETCH, 4 * BLOCK_SECTORS, 1024)]
        assert cache.local_prefetch_count == 1


class TestWrites:
    def test_write_back_acks_now(self):
        cache = SegmentedCache(cfg())
        ack, writes = cache.write_accept(0, 128, ((0, 128, 1),))
        assert ack is Ack.ACK_NOW
        assert writes == (op(DESTAGE, 0, 128, ((0, 128, 1),)),)
        assert cache.destage_inflight and dirty_records(cache) == []
        # The slot is taken: the next write waits in its segment.
        ack, writes = cache.write_accept(128, 128, ((128, 256, 2),))
        assert ack is Ack.ACK_NOW and writes == ()
        assert dirty_records(cache) == [(128, 128, ((128, 256, 2),))]

    def test_write_through_acks_after_media(self):
        cache = SegmentedCache(cfg(write_policy=WritePolicy.WRITE_THROUGH))
        ack, writes = cache.write_accept(0, 128, ((0, 128, 1),))
        assert ack is Ack.ACK_AFTER_MEDIA
        assert writes == (op(HOST_WRITE, 0, 128, ((0, 128, 1),)),)
        assert dirty_records(cache) == [] and not cache.destage_inflight

    def test_forced_media_overrides_write_back(self):
        cache = SegmentedCache(cfg())
        cache.write_accept(0, 64, ((0, 64, 1),))
        cache.write_accept(64, 64, ((64, 128, 2),))
        ack, writes = cache.write_accept(0, 128, None, force_media=True)
        assert ack is Ack.ACK_AFTER_MEDIA
        assert writes == (op(HOST_WRITE, 0, 128),)
        assert dirty_records(cache) == [(64, 64, ((64, 128, 2),))]

    def test_destage_preserves_write_order_per_segment(self):
        # Global arrival order: an older record in another segment goes
        # before the first segment's second record.
        cache = SegmentedCache(cfg())
        far = 100 * cache.config.segment_sectors
        cache.write_accept(0, 64, ((0, 64, 1),))  # destaged at once
        cache.write_accept(far, 64, ((far, far + 64, 2),))
        cache.write_accept(64, 64, ((64, 128, 3),))
        assert cache.on_media_data(0, 64, DESTAGE) == (op(DESTAGE, far, 64, ((far, far + 64, 2),)),)
        assert cache.on_media_data(far, 64, DESTAGE) == (op(DESTAGE, 64, 64, ((64, 128, 3),)),)
        assert cache.on_media_data(64, 64, DESTAGE) == ()
        assert not cache.destage_inflight and dirty_records(cache) == []

    def test_defer_when_destage_enabled(self):
        config = cfg(segment_count=2, segment_bytes=64 * 1024)
        cache = SegmentedCache(config)

        def write(i: int):
            lba = 10 * i * config.segment_sectors
            return cache.write_accept(lba, 8, ((lba, lba + 1, i),))

        # The first write's destage leaves its segment clean for the third.
        assert [write(i)[0] for i in range(3)] == [Ack.ACK_NOW] * 3
        assert write(3) == (Ack.DEFER, ())
        # The destage's data starts the next one, which cleans the other segment.
        (destage,) = cache.on_media_data(0, 8, DESTAGE)
        assert (destage.role, destage.lba, destage.sectors) == (DESTAGE, 10 * config.segment_sectors, 8)
        assert write(3) == (Ack.ACK_NOW, ())


class TestCoherence:
    def test_read_after_write_hits_cached_data(self):
        cache = SegmentedCache(cfg())
        cache.write_accept(100, 64, ((100, 164, 9),))
        kind, _ = cache.read_lookup(100, 64)
        assert kind is Lookup.HIT and not cache.awaited

    def test_read_after_destaged_write_still_hits(self):
        cache = SegmentedCache(cfg())
        cache.write_accept(100, 64, ((100, 164, 9),))
        cache.destage_next()
        kind, _ = cache.read_lookup(100, 64)
        assert kind is Lookup.HIT


class TestReplacement:
    def test_prefetch_lands_in_lru_victim(self):
        # Reference LRU oracle: victim is the least recently touched clean
        # segment.
        cache = SegmentedCache(cfg(segment_count=2, segment_bytes=64 * 1024))
        step = cache.config.segment_sectors
        fill(cache, 0 * step * 10, 8)          # segment A
        fill(cache, 10 * step, 8)              # segment B
        cache.read_lookup(0, 8)                # touch A: B becomes LRU
        fill(cache, 20 * step, 8)              # must evict B
        assert cache.resident(0, 8)
        assert not cache.resident(10 * step, 8)
        assert cache.resident(20 * step, 8)

    def test_sliding_window_on_long_sequential_fill(self):
        cache = SegmentedCache(cfg(segment_count=2, segment_bytes=64 * 1024))
        capacity = cache.config.segment_sectors
        fill(cache, 0, capacity)
        fill(cache, capacity, capacity // 2)  # extends and slides
        assert cache.resident(capacity, capacity // 2)
        assert not cache.resident(0, 1)

    def test_capacity_invariant(self):
        cache = SegmentedCache(cfg())
        for i in range(20):
            fill(cache, i * 1000, 128)
            valid_bytes = sum((s.end - s.start) * SECTOR_BYTES for s in cache.segments)
            assert valid_bytes <= cache.config.segment_count * cache.config.segment_bytes


class TestRepositionPenalty:
    def test_penalty_after_draining_local_prefetch_in_128k_slices(self):
        cache = SegmentedCache(
            cfg(
                segment_count=16,
                segment_bytes=512 * 1024,
                read_prefetch=ReadPrefetch.LOCAL_512K,
            )
        )
        fill(cache, 0, 1024, local=True)  # one 512KB local prefetch
        for i in range(4):  # drain it in 4 x 128KB hits
            kind, _ = cache.read_lookup(i * 256, 256)
            assert kind is Lookup.HIT
        assert cache.take_penalty_rotations() == 1
        assert cache.take_penalty_rotations() == 0

    def test_local_512k_owes_the_penalty_on_any_drive(self):
        # The Hitachi profile has sequential fill only; LOCAL_512K set from
        # the INI brings the penalty with it.
        spec = load_config(
            "[disk]\nprofile = hitachi_travelstar_80gn\n"
            "[disk_cache]\nread_prefetch = LOCAL_512K\n"
        )
        cache = SegmentedCache(spec.stack.cache)
        fill(cache, 0, 1024, local=True)
        for i in range(4):
            kind, _ = cache.read_lookup(i * 256, 256)
            assert kind is Lookup.HIT
        assert cache.take_penalty_rotations() == 1

    def test_a_reused_segment_owes_nothing_for_its_old_prefetch(self):
        # One segment: a host fill elsewhere takes it over from the local
        # prefetch, so 128KB hits on the new data count toward no penalty.
        cache = SegmentedCache(
            cfg(segment_count=1, segment_bytes=512 * 1024, read_prefetch=ReadPrefetch.LOCAL_512K)
        )
        fill(cache, 0, 1024, local=True)
        fill(cache, 4096, 1024)
        owed = 0
        for i in range(4):
            kind, reads = cache.read_lookup(4096 + i * 256, 256)
            assert kind is Lookup.HIT
            owed += sum(media.penalty_rotations for media in reads)
        assert owed + cache.take_penalty_rotations() == 0


class TestSegmentPicks:
    """The one-pass victim pick, the destage order and the run arithmetic against their definitions."""

    @staticmethod
    def check_picks(cache: SegmentedCache, queries, accepted: list, seen: dict) -> int:
        """Check the picks; ``accepted`` holds the acknowledged writes not yet destaged.

        Returns how many queries the in-flight and queued fills cover.
        """

        segments = cache.segments
        clean = [(s.last_touch, i) for i, s in enumerate(segments) if not s.dirty]
        probe = copy.deepcopy(cache)
        far = max(s.end for s in segments) + 1  # a run no segment holds or abuts
        for lba, sectors in (*queries, (far, 8)):
            holders = [
                i
                for i, s in enumerate(segments)
                if s.start < s.end and (lba < s.end and s.start < lba + sectors or s.end == lba)
            ]
            if holders:
                want, want_held = probe.segments[holders[0]], True
            else:
                want, want_held = probe.segments[min(clean)[1]] if clean else None, False
            seg, held = probe._segment_for(lba, sectors)
            assert seg is want and held == want_held
            seen["held"] += held
        assert probe.segments == segments  # picking changes no segment
        # Every write the cache acknowledged reaches the media, in arrival order.
        assert dirty_records(cache) == accepted
        extents = [(s.start, s.end) for s in segments if s.start < s.end]
        filled = {lba for start, n in cache.outstanding_fills for lba in range(start, start + n)}
        filled.update(lba for start, end in cache.fill_ranges for lba in range(start, end))
        covered = 0
        for lba, sectors in queries:
            assert cache.missing_runs(lba, sectors)[0] == uncovered_runs(lba, sectors, extents)
            want = filled.issuperset(range(lba, lba + sectors))
            assert cache._covered_by_fill(lba, sectors) == want
            covered += want
        return covered

    def test_random_steps_match_the_definitions(self):
        seen = dict.fromkeys(
            ("tie", "all dirty", "held", "overlap", "covered", "cut", "gap left", "gap right"), 0
        )
        for seed in range(40):
            rng = random.Random(seed)
            cache = SegmentedCache(
                cfg(
                    segment_count=rng.randint(2, 4),
                    segment_bytes=rng.choice((16, 32, 64)) * SECTOR_BYTES,
                    read_prefetch=rng.choice(list(ReadPrefetch)),
                )
            )
            inflight = []  # media ops that have not completed
            accepted = []  # acknowledged writes not yet destaged, oldest first

            def issue(ops) -> None:
                for media in ops:
                    if media.role is DESTAGE:
                        assert (media.lba, media.sectors, media.sector_tags) == accepted.pop(0)
                inflight.extend(ops)

            for step in range(150):
                lba, sectors = rng.randrange(256), rng.randint(1, 24)
                step_kind = rng.randrange(4)
                destages = [i for i, media in enumerate(inflight) if media.role is DESTAGE]
                if step_kind == 0:
                    issue(cache.read_lookup(lba, sectors)[1])
                elif step_kind == 1 and inflight or step_kind == 3 and destages:
                    done = inflight.pop(rng.randrange(len(inflight)) if step_kind == 1 else destages[0])
                    awaited = list(cache.awaited)
                    issue(cache.on_media_data(done.lba, done.sectors, done.role))
                    if done.role is not DESTAGE:
                        # Delivered data leaves the gaps of each awaited run around it.
                        start, end = done.lba, done.lba + done.sectors
                        for run_lba, run_sectors in awaited:
                            if start < run_lba + run_sectors and run_lba < end:
                                seen["cut"] += 1
                                seen["gap left"] += run_lba < start
                                seen["gap right"] += end < run_lba + run_sectors
                        delivered = ((start, end),)
                        awaited = [gap for run in awaited for gap in uncovered_runs(*run, delivered)]
                    assert cache.awaited == awaited
                elif step_kind == 2:
                    tags = ((lba, lba + sectors, step),)
                    ack, writes = cache.write_accept(lba, sectors, tags)
                    if ack is Ack.ACK_NOW:
                        accepted.append((lba, sectors, tags))
                    issue(writes)
                destages = [media for media in inflight if media.role is DESTAGE]
                assert len(destages) == cache.destage_inflight <= 1
                queries = [(rng.randrange(256), rng.randint(1, 48)) for _ in range(3)]
                seen["covered"] += self.check_picks(cache, queries, accepted, seen)
                touches = [s.last_touch for s in cache.segments if not s.dirty]
                seen["tie"] += len(touches) != len(set(touches))
                seen["all dirty"] += not touches
                extents = sorted((s.start, s.end) for s in cache.segments if s.start < s.end)
                seen["overlap"] += any(a[1] > b[0] for a, b in zip(extents, extents[1:]))
        assert min(seen.values()) >= 20, seen

    @given(
        extents=st.lists(st.tuples(st.integers(0, 60), st.integers(0, 20)), min_size=1, max_size=4),
        lba=st.integers(0, 120),
        sectors=st.integers(-2, 40),
    )
    @example(extents=[(0, 0)], lba=5, sectors=3)  # every segment empty
    @example(extents=[(10, 5)], lba=20, sectors=4)  # one segment, wholly below the run
    @example(extents=[(10, 5)], lba=0, sectors=-2)
    @example(extents=[(10, 5)], lba=12, sectors=0)
    @example(extents=[(10, 0), (0, 30)], lba=5, sectors=10)  # an empty segment inside the run
    @example(extents=[(20, 10), (0, 25)], lba=22, sectors=4)  # list order, not start order
    def test_missing_runs_over_overlapping_segments(self, extents, lba, sectors):
        cache = SegmentedCache(cfg(segment_count=len(extents)))
        for seg, (start, length) in zip(cache.segments, extents):
            seg.start, seg.end = start, start + length
        want = uncovered_runs(lba, sectors, [(a, a + n) for a, n in extents if n])
        # The segment a hit touches: the first in list order holding a sector of the run.
        holders = [
            seg for seg in cache.segments if max(seg.start, lba) < min(seg.end, lba + sectors)
        ]
        first, holder = cache.missing_runs(lba, sectors)
        # ``read_lookup`` keeps the list as ``awaited``: each call returns a new one.
        second, _ = cache.missing_runs(lba, sectors)
        assert first == second == want
        assert first is not second
        assert holder is (holders[0] if holders else None)


def expand(runs) -> dict[int, int]:
    """Sector -> tag map of (start, end, tag) runs, later runs winning."""

    sectors: dict[int, int] = {}
    for start, end, tag in runs:
        sectors.update(dict.fromkeys(range(start, end), tag))
    return sectors


def tag_map(*runs) -> TagMap:
    tags = TagMap()
    tags.overlay(runs)
    return tags


# Few sectors and few tags, so runs overlap, touch and repeat tags often.
TAG_RUNS = st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 12), st.integers(0, 3)).map(
        lambda t: (t[0], t[0] + t[1], t[2])
    ),
    max_size=16,
)


class TestTagMap:
    @given(writes=TAG_RUNS, clips=st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60))))
    def test_matches_per_sector_reference(self, writes, clips):
        tags, reference = TagMap(), {}
        for run in writes:
            tags.overlay([run])
            reference.update(expand([run]))
            assert expand(tags.runs) == reference
            assert all(start < end for start, end, _ in tags.runs)
            for (_, end, tag), (start, _, following) in zip(tags.runs, tags.runs[1:]):
                assert end < start or (end == start and tag != following)
        for lo, hi in clips:
            clipped = tags.clip(lo, hi)
            assert isinstance(clipped, tuple)
            assert expand(clipped) == {s: t for s, t in reference.items() if lo <= s < hi}

    @given(writes=TAG_RUNS, order=st.randoms(use_true_random=False))
    def test_equal_sector_maps_compare_equal(self, writes, order):
        # The same sectors and tags, written as one batch of runs and as
        # single sectors in shuffled order, give equal maps.
        sectors = list(expand(writes).items())
        order.shuffle(sectors)
        assert tag_map(*writes) == tag_map(*((s, s + 1, t) for s, t in sectors))

    def test_overlay_orders(self):
        first = tag_map((0, 10, 1), (5, 15, 2), (15, 20, 2))
        second = tag_map((10, 20, 2), (0, 5, 1), (5, 10, 2))
        assert first == second
        assert first.runs == [(0, 5, 1), (5, 20, 2)]
        assert first != tag_map((0, 5, 1), (5, 20, 3))
        assert first != tag_map((0, 5, 1), (5, 21, 2))

    def test_empty_runs_change_nothing(self):
        assert tag_map((3, 3, 1), (7, 4, 2)) == TagMap()
