"""Segmented drive cache: lookup, media read plan, write policies, LRU."""

from __future__ import annotations

import copy
import random

import pytest
from hypothesis import given, strategies as st

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
    LocalPatternDetector,
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
    def test_detector_fires_on_a_b_a_adjacent(self):
        det = LocalPatternDetector()
        assert not det.observe(3 * BLOCK_SECTORS, BLOCK_SECTORS)  # A = block 3
        assert not det.observe(8 * BLOCK_SECTORS, BLOCK_SECTORS)  # B = block 8, gap 4 blocks
        assert det.observe(4 * BLOCK_SECTORS, BLOCK_SECTORS)  # A+adjacent fires

    def test_detector_ignores_pure_sequential(self):
        det = LocalPatternDetector()
        fired = [det.observe(i * BLOCK_SECTORS, BLOCK_SECTORS) for i in range(6)]
        assert not any(fired)

    def test_detector_respects_radius(self):
        det = LocalPatternDetector()
        det.observe(0, BLOCK_SECTORS)
        det.observe(6 * BLOCK_SECTORS, BLOCK_SECTORS)  # gap 5 blocks > radius
        assert not det.observe(BLOCK_SECTORS, BLOCK_SECTORS)

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


class TestSegmentPicks:
    """The one-pass victim pick and the destage order against their definitions."""

    @staticmethod
    def check_picks(cache: SegmentedCache, queries, accepted: list) -> None:
        """Check the picks; ``accepted`` holds the acknowledged writes not yet destaged."""

        segments = cache.segments
        clean = [(s.last_touch, i) for i, s in enumerate(segments) if not s.dirty]
        probe = copy.deepcopy(cache)
        victim = probe._allocate()
        if clean:
            assert victim is probe.segments[min(clean)[1]]
        else:
            assert victim is None
        # Every write the cache acknowledged reaches the media, in arrival order.
        assert dirty_records(cache) == accepted
        extents = [(s.start, s.end) for s in segments if s.start < s.end]
        for lba, sectors in queries:
            assert cache.missing_runs(lba, sectors) == uncovered_runs(lba, sectors, extents)

    def test_random_steps_match_the_definitions(self):
        seen = {"tie": 0, "all dirty": 0, "overlap": 0}
        for seed in range(24):
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
                    issue(cache.on_media_data(done.lba, done.sectors, done.role))
                elif step_kind == 2:
                    tags = ((lba, lba + sectors, step),)
                    ack, writes = cache.write_accept(lba, sectors, tags)
                    if ack is Ack.ACK_NOW:
                        accepted.append((lba, sectors, tags))
                    issue(writes)
                destages = [media for media in inflight if media.role is DESTAGE]
                assert len(destages) == cache.destage_inflight <= 1
                queries = [(rng.randrange(256), rng.randint(1, 48)) for _ in range(3)]
                self.check_picks(cache, queries, accepted)
                touches = [s.last_touch for s in cache.segments if not s.dirty]
                seen["tie"] += len(touches) != len(set(touches))
                seen["all dirty"] += not touches
                extents = sorted((s.start, s.end) for s in cache.segments if s.start < s.end)
                seen["overlap"] += any(a[1] > b[0] for a, b in zip(extents, extents[1:]))
        assert min(seen.values()) >= 20, seen

    @given(
        extents=st.lists(st.tuples(st.integers(0, 60), st.integers(0, 20)), min_size=1, max_size=4),
        lba=st.integers(0, 80),
        sectors=st.integers(1, 40),
    )
    def test_missing_runs_over_overlapping_segments(self, extents, lba, sectors):
        cache = SegmentedCache(cfg(segment_count=len(extents)))
        for seg, (start, length) in zip(cache.segments, extents):
            seg.start, seg.end = start, start + length
        want = uncovered_runs(lba, sectors, [(a, a + n) for a, n in extents if n])
        assert cache.missing_runs(lba, sectors) == want


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
