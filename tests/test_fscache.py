"""File-system cache planner: quantization, read-ahead, write regimes."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from iostack import AccessMode, CanonicalRequest, FsCache, FsCacheConfig, Op, Origin, WriteRegime
from iostack.fscache import (
    APP_ACTOR,
    APP_DIRECT,
    DEMAND,
    FLUSH,
    METADATA,
    PASSTHROUGH,
    PREFETCH,
    READAHEAD_WINDOW_FACTOR,
    RESERVE_CONSTANT_BYTES,
    SYSTEM_ACTOR,
    WT_DATA,
    Purpose,
    Signal,
    classify_write_regime,
    periodic_block_count,
    periodic_period_length,
    periodic_split,
    split_into_blocks,
)
from iostack.replay import RequestMsg

KB = 1024
BLOCK = 64 * KB


def read(addr: int, size: int, mode=AccessMode.NORMAL, t=0, file_id=0) -> CanonicalRequest:
    return CanonicalRequest(t, Origin.APP, Op.READ, file_id, addr, size, addr, mode)


def write(addr: int, size: int, mode=AccessMode.NORMAL, t=0, file_id=0) -> CanonicalRequest:
    return CanonicalRequest(t, Origin.APP, Op.WRITE, file_id, addr, size, addr, mode)


def test_purpose_decides_an_ios_duties():
    assert {p for p in Purpose if not p.required} == {PREFETCH, FLUSH}
    assert {p for p in Purpose if p.force_media} == {WT_DATA, METADATA}


class TestSplitIntoBlocks:
    def test_exact_multiple(self):
        assert list(split_into_blocks(0, 196_608)) == [0, BLOCK, 2 * BLOCK]

    def test_sub_block_request_loads_full_block(self):
        assert list(split_into_blocks(0, 12)) == [0]

    def test_straddling_boundary(self):
        assert list(split_into_blocks(65_000, 2_000)) == [0, BLOCK]

    def test_empty(self):
        assert list(split_into_blocks(0, 0)) == []

    @given(offset=st.integers(0, 2**30), length=st.integers(1, 2**22))
    def test_cover_property(self, offset, length):
        blocks = split_into_blocks(offset, length)
        assert blocks[0] == offset - offset % BLOCK
        assert blocks[-1] + BLOCK >= offset + length
        for a, b in zip(blocks, blocks[1:]):
            assert b == a + BLOCK  # contiguous, aligned, exactly covering


class TestWriteRegime:
    @pytest.mark.parametrize("size", [32 * KB, 64 * KB, 96 * KB, 128 * KB, 256 * KB])
    def test_progressive_sizes(self, size):
        assert classify_write_regime(size) is WriteRegime.PROGRESSIVE

    @pytest.mark.parametrize("size", [160 * KB, 192 * KB, 320 * KB, 512 * KB])
    def test_periodic_sizes(self, size):
        assert classify_write_regime(size) is WriteRegime.PERIODIC

    def test_boundary_at_96k(self):
        assert classify_write_regime(98_304) is WriteRegime.PROGRESSIVE
        assert classify_write_regime(98_305) is WriteRegime.PERIODIC

    def test_320k_accounting_override(self):
        # Observed behavior counts six blocks for a 320KB request even
        # though 320/64 is five; the override table pins it.
        assert periodic_block_count(320 * KB) == 6
        assert periodic_block_count(384 * KB) == 6
        assert periodic_block_count(512 * KB) == 8

    def test_periodic_split_sequence_for_six_blocks(self):
        splits = [periodic_split(6, k) for k in range(periodic_period_length(6))]
        assert splits == [(3, 3), (4, 2), (5, 1), (6, 0)]

    @given(n=st.integers(1, 64))
    def test_split_conservation_per_position(self, n):
        for k in range(periodic_period_length(n)):
            cached, direct = periodic_split(n, k)
            assert cached + direct == n
            assert direct == n - -(-n // 2) - k  # spec'd per-position direct count


class TestPeriodicWrites:
    def test_320k_stream_splits_and_period(self):
        fs = FsCache(FsCacheConfig())
        for i in range(8):
            fs.on_write(write(i * 320 * KB, 320 * KB), tag=i)
        splits = [(c, d) for _, c, d in fs.write_splits]
        assert splits[:4] == [(3, 3), (4, 2), (5, 1), (6, 0)]
        assert splits[4:8] == [(3, 3), (4, 2), (5, 1), (6, 0)]  # period 4

    def test_flush_fires_every_seven_to_eight_320k_requests(self):
        fs = FsCache(FsCacheConfig())  # 8MB working set, 6MB reserve
        for i in range(40):
            fs.on_write(write(i * 320 * KB, 320 * KB), tag=i)
        fires = fs.flush_ordinals
        assert len(fires) >= 4
        gaps = [b - a for a, b in zip(fires, fires[1:])]
        assert all(7 <= g <= 8 for g in gaps), gaps
        assert 7 <= fires[0] + 1 <= 8

    def test_direct_ios_cover_trailing_bytes(self):
        fs = FsCache(FsCacheConfig())
        plan = fs.on_write(write(0, 320 * KB), tag=0)
        direct = [io for io in plan.ios if io.purpose == APP_DIRECT]
        # Position 0 of a 6-block period: 3 accounting blocks stay in
        # cache (192KB) and the trailing bytes go straight to disk.
        assert sum(io.nbytes for io in direct) == 320 * KB - 192 * KB
        assert all(io.actor == APP_ACTOR and io.purpose.required for io in direct)

    def test_progressive_small_writes_have_no_direct_io(self):
        fs = FsCache(FsCacheConfig())
        for i in range(30):
            plan = fs.on_write(write(i * BLOCK, BLOCK), tag=i)
            assert not [io for io in plan.ios if io.purpose == APP_DIRECT]
            assert plan.kick_progressive
        assert [(c, d) for _, c, d in fs.write_splits] == [(1, 0)] * 30

    def test_progressive_flush_drains_oldest_first(self):
        fs = FsCache(FsCacheConfig())
        fs.on_write(write(0, BLOCK), tag=0)
        fs.on_write(write(BLOCK, BLOCK), tag=1)
        first = fs.next_progressive_flush()
        assert first[0].disk_addr == 0
        second = fs.next_progressive_flush()
        assert second[0].disk_addr == BLOCK
        assert fs.next_progressive_flush() == []

    def test_direct_write_over_dirty_sector_updates_cache(self):
        # A direct write landing on sectors still dirty in cache must not
        # let the later flush resurrect stale data.
        cfg = FsCacheConfig()
        fs = FsCache(cfg)
        fs.on_write(write(0, 320 * KB), tag=0)  # dirties leading 192KB
        fs.streams[0].period_position = 0  # force a 3/3 split again
        plan = fs.on_write(write(0, 320 * KB), tag=1)
        direct = [io for io in plan.ios if io.purpose == APP_DIRECT]
        flush_ios = fs.flush_all()
        flushed_tags = {}
        for io in flush_ios:
            for start, end, tag in io.sector_tags:
                flushed_tags.update(dict.fromkeys(range(start, end), tag))
        # Every flushed sector in the first 192KB carries the newer tag.
        assert set(flushed_tags.values()) == {1}
        assert sum(io.nbytes for io in direct) == 128 * KB

    def test_write_through_plan(self):
        fs = FsCache(FsCacheConfig())
        plan = fs.on_write(write(0, 128 * KB, mode=AccessMode.WRITE_THROUGH), tag=0)
        assert fs.wt_gate == 0
        assert all(io.purpose.force_media for io in plan.ios)
        assert sum(io.nbytes for io in plan.ios) == 128 * KB
        meta = fs.metadata_io()
        assert meta.purpose is METADATA and meta.purpose.force_media

    def test_no_buffer_write_passthrough(self):
        fs = FsCache(FsCacheConfig())
        plan = fs.on_write(write(0, 128 * KB, mode=AccessMode.NO_BUFFER), tag=0)
        assert [io.purpose for io in plan.ios] == [PASSTHROUGH]
        assert plan.ios[0].nbytes == 128 * KB
        assert not fs.views


class TestReads:
    def test_no_buffer_read_passthrough_untouched_cache(self):
        fs = FsCache(FsCacheConfig(), {0: 10 * BLOCK})
        plan = fs.on_read(read(0, 128 * KB, mode=AccessMode.NO_BUFFER), 0)
        assert [io.purpose for io in plan.ios] == [PASSTHROUGH]
        assert plan.ios[0].nbytes == 128 * KB
        assert not fs.views

    def test_window_algorithm_interleaves_system_first(self):
        # 256KB requests: request 1 loads blocks 0-3 via the system
        # process; request 2 interleaves the next window's prefetch with
        # the application's demand loads, system block first.
        size = 256 * KB
        fs = FsCache(FsCacheConfig(), {0: 12 * BLOCK})
        plan1 = fs.on_read(read(0, size), 0)
        assert [io.disk_addr // BLOCK for io in plan1.ios] == [0, 1, 2, 3]
        assert all(io.actor == SYSTEM_ACTOR and io.purpose == DEMAND for io in plan1.ios)

        plan2 = fs.on_read(read(size, size), 1)
        assert [io.disk_addr // BLOCK for io in plan2.ios] == [8, 4, 9, 5, 10, 6, 11, 7]
        kinds = [(io.purpose, io.actor) for io in plan2.ios]
        assert kinds[::2] == [(PREFETCH, SYSTEM_ACTOR)] * 4
        assert kinds[1::2] == [(DEMAND, APP_ACTOR)] * 4

    def test_window_algorithm_third_request_hits(self):
        size = 256 * KB
        fs = FsCache(FsCacheConfig(), {0: 12 * BLOCK})
        for plan in (fs.on_read(read(0, size), 0), fs.on_read(read(size, size), 1)):
            for io in plan.ios:
                fs.on_block_loaded(io.block_key)
        plan3 = fs.on_read(read(2 * size, size), 2)
        assert plan3.hit
        # End of file: the next window would start past 768KB, nothing
        # gets prefetched.
        assert plan3.ios == []

    def test_window_reset_on_random_jump(self):
        size = 256 * KB
        fs = FsCache(FsCacheConfig(), {0: 100 * BLOCK})
        fs.on_read(read(0, size), 0)
        plan = fs.on_read(read(40 * BLOCK, size), 1)  # not a continuation
        assert all(io.purpose == DEMAND and io.actor == SYSTEM_ACTOR for io in plan.ios)

    def test_sequential_mode_trigger_then_prefetch(self):
        cfg = FsCacheConfig()  # trigger 3, window factor 2
        fs = FsCache(cfg, {0: 40 * BLOCK})
        plans = [fs.on_read(read(i * BLOCK, BLOCK, mode=AccessMode.SEQUENTIAL), i) for i in range(3)]
        assert all(
            [io.purpose for io in p.ios] == [DEMAND] for p in plans[:2]
        )
        # Third sequential request reaches the trigger: prefetch starts,
        # bounded by two request sizes past the demand end.
        third = plans[2]
        purposes = [io.purpose for io in third.ios]
        assert purposes == [DEMAND, PREFETCH, PREFETCH]
        assert [io.disk_addr // BLOCK for io in third.ios] == [2, 3, 4]

    def test_sequential_prefetch_stops_at_eof(self):
        cfg = FsCacheConfig()
        fs = FsCache(cfg, {0: 4 * BLOCK})
        for i in range(3):
            fs.on_read(read(i * BLOCK, BLOCK, mode=AccessMode.SEQUENTIAL), i)
        stream = fs.streams[0]
        assert stream.prefetch_cursor <= 4 * BLOCK

    def test_prefetch_cursor_bounded_by_window(self):
        cfg = FsCacheConfig()
        fs = FsCache(cfg, {0: 1000 * BLOCK})
        for i in range(10):
            fs.on_read(read(i * BLOCK, BLOCK, mode=AccessMode.SEQUENTIAL), i)
        stream = fs.streams[0]
        last_demand_end = 10 * BLOCK
        assert stream.prefetch_cursor - last_demand_end <= READAHEAD_WINDOW_FACTOR * BLOCK

    def test_hit_after_load(self):
        fs = FsCache(FsCacheConfig(), {0: 10 * BLOCK})
        plan = fs.on_read(read(0, BLOCK), 0)
        for io in plan.ios:
            fs.on_block_loaded(io.block_key)
        again = fs.on_read(read(0, BLOCK), 1)
        assert again.hit and not again.ios

    def test_inflight_block_not_reissued(self):
        fs = FsCache(FsCacheConfig(), {0: 10 * BLOCK})
        first = fs.on_read(read(0, BLOCK), 0)
        assert len(first.ios) == 1
        second = fs.on_read(read(0, BLOCK), 1)
        assert second.ios == [] and not second.hit
        # The second read waits for the first one's load, as its waiter.
        assert second.waits == 1
        assert fs.on_block_loaded((0, 0)) == [1]


class TestEviction:
    def test_clean_views_evicted_lru(self):
        cfg = FsCacheConfig(cache_capacity_bytes=3 * 256 * KB)
        fs = FsCache(cfg, {0: 1000 * BLOCK})
        # View 0 is the oldest: one block resident, one still loading.
        assert [io.block_key for io in fs.on_read(read(0, BLOCK), 0).ios] == [(0, 0)]
        fs.mark_resident(0, BLOCK)
        for view in range(1, 5):
            for slot in range(4):
                fs.mark_resident(0, view * 256 * KB + slot * BLOCK)
        assert fs.resident_bytes <= cfg.cache_capacity_bytes
        # Views 1 and 2 went, oldest first; view 0 was skipped, not evicted,
        # because its loading block pins it.
        assert list(fs.views) == [(0, view * 256 * KB) for view in (0, 3, 4)]
        assert fs.resident_bytes == sum(map(len, fs.views.values())) * BLOCK == 9 * BLOCK

    def test_dirty_views_pinned(self):
        cfg = FsCacheConfig(cache_capacity_bytes=256 * KB)
        fs = FsCache(cfg, {0: 1000 * BLOCK})
        fs.on_write(write(0, 256 * KB), tag=0)  # progressive: all dirty
        fs.on_write(write(512 * KB, 256 * KB), tag=1)
        # Dirty views survive even over capacity.
        assert fs.resident_bytes >= 256 * KB

    def test_eviction_retried_when_the_block_is_already_resident(self):
        cfg = FsCacheConfig(cache_capacity_bytes=256 * KB)
        fs = FsCache(cfg, {0: 1000 * BLOCK})
        fs.on_write(write(0, 256 * KB), tag=0)  # progressive: all dirty
        fs.on_write(write(512 * KB, 256 * KB), tag=1)
        # Every view is pinned, so the cache stays over capacity.
        assert fs.resident_bytes == 8 * BLOCK > cfg.cache_capacity_bytes
        fs.flush_all()
        # No block is new, yet the call evicts the oldest view, now clean.
        fs.mark_resident(0, 512 * KB)
        assert list(fs.views) == [(0, 512 * KB)]
        assert fs.resident_bytes == 4 * BLOCK

    def test_no_buffer_leaves_views_empty(self):
        fs = FsCache(FsCacheConfig(), {0: 100 * BLOCK})
        for i in range(10):
            fs.on_read(read(i * BLOCK, BLOCK, mode=AccessMode.NO_BUFFER), i)
            fs.on_write(write(i * BLOCK, BLOCK, mode=AccessMode.NO_BUFFER), tag=i)
        assert not fs.views


def done(io):
    """``io`` in the done form the scheduler returns to FS_CACHE."""

    io.done = True
    return io


class TestRequestProgress:
    """``FsCache.receive`` driven directly: each input's sends and their delays."""

    def test_request_behind_the_gate_follows_the_metadata_completion(self):
        fs = FsCache(FsCacheConfig())
        wt = RequestMsg(0, write(0, BLOCK, mode=AccessMode.WRITE_THROUGH))
        [(_, data)] = fs.receive(wt)
        assert data.purpose is WT_DATA and fs.wt_gate == 0
        later = RequestMsg(1, read(4 * BLOCK, BLOCK, mode=AccessMode.NO_BUFFER))
        assert fs.receive(later) == []
        assert list(fs.deferred) == [later]
        [(_, metadata)] = fs.receive(done(data))
        assert list(fs.deferred) == [later]
        sends = fs.receive(done(metadata))
        # The write-through request completes first; the deferred read is
        # admitted behind it, in the same sends.
        assert sends[0] == (fs.config.copy_us(BLOCK), wt)
        assert [(d, io.purpose, io.request_id) for d, io in sends[1:]] == [
            (fs.config.miss_path_cost_us, PASSTHROUGH, 1)
        ]
        assert fs.wt_gate is None and not fs.deferred and list(fs.pending) == [1]

    def test_metadata_io_waits_for_the_last_data_io(self):
        fs = FsCache(FsCacheConfig())
        wt = RequestMsg(0, write(BLOCK // 2, 2 * BLOCK, mode=AccessMode.WRITE_THROUGH))
        data = [io for _, io in fs.receive(wt)]
        assert [io.purpose for io in data] == [WT_DATA] * 3
        assert fs.receive(done(data[2])) == []
        assert fs.receive(done(data[0])) == []
        [(delay, metadata)] = fs.receive(done(data[1]))
        assert (delay, metadata.purpose, metadata.request_id) == (0, METADATA, 0)
        assert fs.pending[0].awaited == 1

    def test_progressive_chain_starts_with_one_tick(self):
        fs = FsCache(FsCacheConfig())
        first = fs.receive(RequestMsg(0, write(0, BLOCK)))
        assert [m for _, m in first if m is Signal.FLUSH_TICK] == [Signal.FLUSH_TICK]
        assert fs.progressive_running
        second = fs.receive(RequestMsg(1, write(BLOCK, BLOCK)))
        assert Signal.FLUSH_TICK not in [m for _, m in second]
        # Each tick sends one dirty block's flush at once, oldest first.
        assert [(d, io.disk_addr) for d, io in fs.receive(Signal.FLUSH_TICK)] == [(0, 0)]

    def test_tick_after_the_chain_stops_flushes_without_restarting_it(self):
        fs = FsCache(FsCacheConfig())
        fs.receive(RequestMsg(0, write(0, BLOCK)))
        fs.receive(Signal.FLUSH_TICK)
        assert fs.receive(Signal.FLUSH_TICK) == [] and not fs.progressive_running
        # A periodic write dirties blocks without starting the chain.
        sends = fs.receive(RequestMsg(1, write(BLOCK, 320 * KB)))
        assert Signal.FLUSH_TICK not in [m for _, m in sends]
        flush = fs.receive(Signal.FLUSH_TICK)
        assert flush and all(io.purpose is FLUSH for _, io in flush)
        assert not fs.progressive_running

    def test_open_and_close_complete_at_once(self):
        fs = FsCache(FsCacheConfig())
        for op in (Op.OPEN, Op.CLOSE):
            msg = RequestMsg(0, CanonicalRequest(0, Origin.APP, op, 0, 0, 0, 0, AccessMode.NORMAL))
            assert fs.receive(msg) == [(0, msg)]

    def test_zero_length_request_takes_the_fastio_cost(self):
        fs = FsCache(FsCacheConfig(fastio_hit_cost_us=7))
        msg = RequestMsg(0, read(0, 0))
        assert fs.receive(msg) == [(7, msg)]

    def test_hit_takes_fastio_and_copy(self):
        cfg = FsCacheConfig(fastio_hit_cost_us=7, memcopy_bytes_per_us=1024)
        fs = FsCache(cfg, {0: BLOCK})
        fs.mark_resident(0, 0)
        msg = RequestMsg(0, read(0, BLOCK))
        assert fs.receive(msg) == [(7 + 64, msg)]

    def test_read_miss_completes_after_its_copy(self):
        cfg = FsCacheConfig(miss_path_cost_us=30, memcopy_bytes_per_us=1024)
        fs = FsCache(cfg, {0: BLOCK})
        msg = RequestMsg(0, read(0, BLOCK))
        [(delay, io)] = fs.receive(msg)
        assert (delay, io.purpose, io.request_id) == (30, DEMAND, 0)
        assert fs.receive(done(io)) == [(64, msg)]
        assert not fs.pending

    def test_miss_sends_required_ios_after_the_miss_path_and_flush_ios_at_once(self):
        # A 64 KB threshold: the first periodic write flushes what it cached.
        cfg = FsCacheConfig(working_set_bytes=RESERVE_CONSTANT_BYTES + BLOCK, miss_path_cost_us=30)
        fs = FsCache(cfg)
        sends = fs.receive(RequestMsg(0, write(0, 320 * KB)))
        delays = {(io.purpose, d) for d, io in sends}
        assert delays == {(APP_DIRECT, 30), (FLUSH, 0)}
        assert all((io.request_id == 0) is io.purpose.required for _, io in sends)
