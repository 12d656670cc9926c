"""Full-stack replay: stage traversal, speculative read order, write
regimes on the wire, conservation, pacing policies and the response-time
tolerance."""

from __future__ import annotations

import pytest

from iostack import (
    AccessMode,
    CanonicalRequest,
    DiskCacheConfig,
    HeadState,
    Op,
    Origin,
    ReadPrefetch,
    ReplayMode,
    ReplayPolicy,
    SegmentedCache,
    StageId,
    StallError,
    TraceReplayError,
    WritePolicy,
    reference_media_image,
    replay,
    service,
)
from iostack.fscache import APP_DIRECT, FLUSH, METADATA, PASSTHROUGH, WT_DATA
from iostack.replay import DiskCacheStage, MediaRole
from iostack.profiles import FUJITSU_MAN3184MP, TOSHIBA_MK6012MAP
from iostack.workload import DistSpec, GeneratorSpec, generate

from conftest import observed, plain_stack, tiny_geometry, zero_cost_fs
from test_golden_log import mixed_read_write, stack as golden_stack

KB = 1024
BLOCK = 64 * KB


def request(op, addr, size, mode=AccessMode.NORMAL, t=0, file_id=0):
    return CanonicalRequest(t, Origin.APP, op, file_id, addr, size, addr, mode)


def stream(ios, mode, gap_us=0, file_id=0):
    """OPEN + I/O list + CLOSE with uniform gaps."""

    out = [request(Op.OPEN, 0, 0, mode, 0, file_id)]
    t = 0
    for op, addr, size in ios:
        out.append(request(op, addr, size, mode, t, file_id))
        t += gap_us
    out.append(request(Op.CLOSE, 0, 0, mode, t, file_id))
    return out


def select(events, stage=None, kind=None):
    """The events delivered to ``stage`` (any if None) of ``kind`` (any if None)."""

    return [
        e
        for e in events
        if (stage is None or e.target is stage) and (kind is None or e.payload.kind == kind)
    ]


def disk_read_blocks(events):
    """64KB block indexes of reads in drive arrival order."""

    ingress = select(events, StageId.DISK_CACHE, "io")
    return [e.payload.disk_addr // BLOCK for e in ingress if not e.payload.write]


class TestStageTraversal:
    def test_single_read_walks_stack_and_back(self):
        # spt 100, rpm 6000: 100us per sector, 10_000us per revolution.
        # Request: one 64KB no-buffer read at address 0, issued at t=0.
        #   miss path: +50us -> reaches the disk at t=50
        #   rotation: head drifted 0.5 sectors, waits 9_950us for sector 0
        #   transfer: track 0 fully (10_000us), switch 0, track 1 wait 0,
        #             28 more sectors = 2_800us
        #   latency = 50 + 9_950 + 10_000 + 2_800 = 22_800us
        stack = plain_stack(
            geometry=tiny_geometry(spt=100, cylinders=60, heads=2, rpm=6000),
            fs=zero_cost_fs(miss_path_cost_us=50),
        )
        trace = stream([(Op.READ, 0, BLOCK)], AccessMode.NO_BUFFER)
        result, events = observed(trace, stack)
        read_record = result.records[1]
        assert read_record.latency_us == 22_800

        stages = [e.target for e in events]
        order = [stages.index(s) for s in (
            StageId.APP, StageId.FS_CACHE, StageId.SCHEDULER, StageId.DISK_CACHE, StageId.DISK
        )]
        assert order == sorted(order)  # request path in stack order
        # Completion path for the read comes back in reverse stage order
        # (the zero-length OPEN/CLOSE completions are not part of it).
        done_kinds = [
            (e.target, e.payload.kind)
            for e in events
            if e.payload.kind in ("media-done", "io-done")
            or (e.payload.kind == "request-done" and e.payload.request_id == 1)
        ]
        assert [t for t, _ in done_kinds] == [
            StageId.DISK_CACHE, StageId.SCHEDULER, StageId.FS_CACHE, StageId.APP
        ]

    def test_every_request_completes_exactly_once(self):
        stack = plain_stack()
        trace = stream([(Op.READ, i * BLOCK, BLOCK) for i in range(8)], AccessMode.NORMAL)
        result, events = observed(trace, stack)
        done = select(events, StageId.APP, "request-done")
        ids = [e.payload.request_id for e in done]
        assert sorted(ids) == list(range(len(trace)))
        assert len(result.records) == len(trace)


class TestWindowReadOrder:
    def test_disk_visible_block_order_for_256k_normal_reads(self):
        # Three sequential 256KB normal-mode reads of a 768KB file: the
        # system process loads the first window, then leapfrogs one window
        # while the application fills it, so the drive sees
        # 0,1,2,3, 8,4, 9,5, 10,6, 11,7 and nothing else.
        stack = plain_stack()
        trace = stream([(Op.READ, i * 256 * KB, 256 * KB) for i in range(3)], AccessMode.NORMAL)
        _, events = observed(trace, stack)
        assert disk_read_blocks(events) == [0, 1, 2, 3, 8, 4, 9, 5, 10, 6, 11, 7]

    def test_third_request_serves_from_cache(self):
        stack = plain_stack()
        trace = stream([(Op.READ, i * 256 * KB, 256 * KB) for i in range(3)], AccessMode.NORMAL)
        result = replay(trace, stack)
        # Request 3 (ordinal 3 after OPEN) finishes without any disk help:
        # only the memcopy, which costs at least one microsecond.
        assert result.records[3].latency_us == 1


class TestSequentialReadAhead:
    def test_trigger_then_hits_when_disk_keeps_up(self):
        stack = plain_stack(fs=zero_cost_fs(fastio_hit_cost_us=10, memcopy_bytes_per_us=2048))
        ios = [(Op.READ, i * BLOCK, BLOCK) for i in range(12)]
        trace = stream(ios, AccessMode.SEQUENTIAL, gap_us=50_000)
        result = replay(trace, stack, ReplayPolicy(mode=ReplayMode.OPEN_LOOP_TIMED))
        latencies = {r.request_id: r.latency_us for r in result.records}
        hit_latency = 10 + -(-BLOCK // 2048)  # fastio + copy
        for ordinal in (1, 2, 3):  # first three sequential reads miss
            assert latencies[ordinal] > hit_latency
        for ordinal in range(5, 13):  # read-ahead stays ahead from then on
            assert latencies[ordinal] == hit_latency


class TestWriteRegimesOnTheWire:
    def test_periodic_320k_wire_splits(self):
        stack = plain_stack()
        ios = [(Op.WRITE, i * 320 * KB, 320 * KB) for i in range(8)]
        result = replay(stream(ios, AccessMode.NORMAL), stack)
        splits = [(c, d) for _, c, d in result.fs.write_splits]
        assert splits == [(3, 3), (4, 2), (5, 1), (6, 0)] * 2

    def test_flush_cadence_through_replay(self):
        stack = plain_stack()
        ios = [(Op.WRITE, i * 320 * KB, 320 * KB) for i in range(24)]
        result = replay(stream(ios, AccessMode.NORMAL), stack)
        fires = result.fs.flush_ordinals
        gaps = [b - a for a, b in zip(fires, fires[1:])]
        assert fires and all(7 <= g <= 8 for g in gaps)

    def test_64k_normal_writes_never_write_direct(self):
        stack = plain_stack()
        ios = [(Op.WRITE, i * BLOCK, BLOCK) for i in range(10)]
        _, events = observed(stream(ios, AccessMode.NORMAL), stack)
        purposes = {e.payload.purpose for e in select(events, StageId.DISK_CACHE, "io")}
        assert APP_DIRECT not in purposes
        assert FLUSH in purposes  # media writes all come from the system flush

    def test_write_through_ordering(self):
        stack = plain_stack()
        ios = [(Op.WRITE, i * 128 * KB, 128 * KB) for i in range(3)]
        _, events = observed(stream(ios, AccessMode.WRITE_THROUGH), stack)
        media = [
            e.payload.host.purpose
            for e in select(events, StageId.DISK, "media")
            if e.payload.write
        ]
        # Per request: both data blocks reach media, then the metadata
        # write, strictly before the next request's first action.
        assert media == [WT_DATA, WT_DATA, METADATA] * 3

    def test_read_larger_than_a_cache_segment_completes(self):
        # 1MB no-buffer read vs 256KB drive segments: the transfer outlives
        # its staging window and must complete off its own media read.
        stack = plain_stack(
            cache=DiskCacheConfig(
                segment_count=4, segment_bytes=256 * KB, read_prefetch=ReadPrefetch.NONE
            )
        )
        result = replay(stream([(Op.READ, 0, 1024 * KB)], AccessMode.NO_BUFFER), stack)
        assert len(result.records) == 3
        assert result.records[1].latency_us > 0

    def test_no_buffer_write_is_passthrough_size(self):
        stack = plain_stack()
        ios = [(Op.WRITE, 0, 192 * KB)]
        result, events = observed(stream(ios, AccessMode.NO_BUFFER), stack)
        wire = select(events, StageId.DISK_CACHE, "io")
        assert [e.payload.nbytes for e in wire] == [192 * KB]
        assert not result.fs.views


class TestQuantization:
    def test_cache_mediated_reads_are_exactly_64k(self):
        # Mixed buffered read workload: every disk read the cache issues is
        # one full block; only no-buffer passthroughs keep original sizes.
        stack = plain_stack()
        ios = [(Op.READ, i * 100 * KB, 100 * KB) for i in range(6)]
        _, events = observed(stream(ios, AccessMode.NORMAL), stack)
        for e in select(events, StageId.DISK_CACHE, "io"):
            io = e.payload
            if not io.write and io.purpose is not PASSTHROUGH:
                assert io.nbytes == BLOCK


class TestConservation:
    @pytest.mark.parametrize(
        "mode,size,address",
        [
            (AccessMode.NORMAL, 320 * KB, "sequential"),
            (AccessMode.NORMAL, 64 * KB, "sequential"),
            (AccessMode.SEQUENTIAL, 512 * KB, "sequential"),
            (AccessMode.NO_BUFFER, 128 * KB, "random"),
            (AccessMode.WRITE_THROUGH, 128 * KB, "sequential"),
            (AccessMode.NORMAL, 320 * KB, "random"),  # overlapping writes
        ],
    )
    def test_media_image_matches_reference(self, mode, size, address):
        spec = GeneratorSpec(
            count=40,
            seed=11,
            read_weight=0,
            write_weight=1,
            mode=mode,
            size_bytes=DistSpec.constant(size),
            address=(
                "SEQUENTIAL" if address == "sequential" else DistSpec.uniform(0, 4 * 1024 * KB)
            ),
            size_granularity_bytes=512,
        )
        trace = generate(spec)
        result = replay(trace, plain_stack())
        assert result.media_image == reference_media_image(result.effective_requests)

    def test_media_image_holds_runs_not_sectors(self):
        # A write splits at most one run in three, so it adds at most two.
        result = replay(mixed_read_write(), golden_stack())
        writes = sum(r.op is Op.WRITE for r in result.effective_requests)
        assert result.media_image == reference_media_image(result.effective_requests)
        assert 0 < len(result.media_image.runs) <= 2 * writes

    def test_fs_cache_drained_after_run(self):
        ios = [(Op.WRITE, i * 320 * KB, 320 * KB) for i in range(10)]
        result = replay(stream(ios, AccessMode.NORMAL), plain_stack())
        assert result.fs.dirty_accounted_bytes == 0
        assert not result.fs.dirty_blocks
        assert not any(s.dirty for s in result.disk_cache.segments)


class TestPacing:
    def test_open_loop_issues_at_trace_times(self):
        stack = plain_stack()
        trace = stream([(Op.READ, i * BLOCK, BLOCK) for i in range(3)], AccessMode.NO_BUFFER, gap_us=10_000)
        result = replay(trace, stack, ReplayPolicy(mode=ReplayMode.OPEN_LOOP_TIMED))
        issues = {r.request_id: r.issue_us for r in result.records}
        assert issues[1] == 0 and issues[2] == 10_000 and issues[3] == 20_000

    def test_closed_loop_waits_for_completion(self):
        stack = plain_stack()
        trace = stream([(Op.READ, i * BLOCK, BLOCK) for i in range(3)], AccessMode.NO_BUFFER)
        result = replay(trace, stack)
        records = {r.request_id: r for r in result.records}
        assert records[2].issue_us == records[1].complete_us
        assert records[3].issue_us == records[2].complete_us

    def test_closed_loop_honors_positive_gaps(self):
        stack = plain_stack()
        trace = stream(
            [(Op.READ, i * BLOCK, BLOCK) for i in range(2)], AccessMode.NO_BUFFER, gap_us=10**6
        )
        result = replay(trace, stack)
        records = {r.request_id: r for r in result.records}
        assert records[2].issue_us == max(records[1].complete_us, 10**6)

    def test_system_requests_excluded_by_default(self):
        app = request(Op.OPEN, 0, 0)
        system = CanonicalRequest(0, Origin.SYSTEM, Op.READ, 0, 0, BLOCK, 0, AccessMode.NORMAL)
        result = replay([app, system], plain_stack())
        assert len(result.records) == 1
        assert result.records[0].op is Op.OPEN

    def test_empty_trace_rejected(self):
        with pytest.raises(TraceReplayError):
            replay([], plain_stack())

    def test_stall_raises_with_stuck_state(self, monkeypatch):
        # A drive cache that loses the first host read's media reply leaves
        # that read, and the request behind it, waiting for good.
        dropped = []
        media_done = DiskCacheStage._media_done

        def lose_first_host_read(stage, msg):
            if msg.role is MediaRole.HOST_READ and not dropped:
                dropped.append(msg)
                return
            media_done(stage, msg)

        monkeypatch.setattr(DiskCacheStage, "_media_done", lose_first_host_read)
        trace = stream([(Op.READ, i * BLOCK, BLOCK) for i in range(4)], AccessMode.NORMAL)
        with pytest.raises(StallError) as info:
            replay(trace, plain_stack())
        message = str(info.value)
        assert "after 1 of 6 requests" in message
        assert "fs cache still holds requests [1]" in message
        assert "drive cache still holds host read ios [1]" in message

    def test_leftover_destage_raises_after_every_request_completed(self, monkeypatch):
        # A write-back drive that never destages acknowledges every write,
        # so each request completes, but the written data never reaches the
        # media: the run must not end as if it had.
        monkeypatch.setattr(SegmentedCache, "destage_next", lambda cache: None)
        trace = stream([(Op.WRITE, i * BLOCK, BLOCK) for i in range(2)], AccessMode.NORMAL)
        with pytest.raises(StallError) as info:
            replay(trace, plain_stack())
        message = str(info.value)
        assert "after 4 of 4 requests completed" in message
        assert message.endswith("; drive cache still holds dirty segments [0]")

    def test_read_settles_on_delivered_data(self):
        # On the Toshiba drive (128 KB segments) this stream once left io 178
        # waiting on fills for [332288, 332416): the fills delivered it, but
        # no one segment held all of it when the read was checked.
        result = replay(mixed_read_write(), golden_stack(drive=TOSHIBA_MK6012MAP))
        assert len(result.records) == len(result.effective_requests) == 258
        assert result.media_image == reference_media_image(result.effective_requests)


class TestTolerance:
    """Closed-loop response-time tolerance against a measured baseline.

    Zero-cost stack, 50-sector requests on one 200-sector track at rpm
    6000 (50us per sector): each request transfers in exactly 2_500us and,
    issued back to back, starts right at the head, so the clean latency is
    2_500us flat and nothing crosses a track boundary.
    """

    EPSILON = 300
    PERIOD = 10_000
    CLEAN = 2_500

    def _trace(self):
        ios = [(Op.READ, i * 50 * 512, 50 * 512) for i in range(3)]
        return stream(ios, AccessMode.NO_BUFFER)

    def _stack(self):
        return plain_stack(
            geometry=tiny_geometry(spt=200, cylinders=4, heads=1, rpm=6000),
            fs=zero_cost_fs(),
        )

    def test_clean_run_latencies(self):
        result = replay(self._trace(), self._stack())
        assert [r.latency_us for r in result.records] == [0, 2500, 2500, 2500, 0]

    def test_zero_tolerance_inflates_by_rotation_minus_gap(self):
        baseline = {1: self.CLEAN + self.EPSILON, 2: self.CLEAN + self.EPSILON}
        result = replay(
            self._trace(),
            self._stack(),
            ReplayPolicy(tolerance_us=0, baseline_us=baseline),
        )
        latencies = {r.request_id: r.latency_us for r in result.records}
        inflation = latencies[2] - self.CLEAN
        expected = self.PERIOD - self.EPSILON  # one revolution minus the idle gap
        sector_time = self.PERIOD // 200
        assert abs(inflation - expected) <= sector_time

    def test_tolerance_above_epsilon_removes_inflation(self):
        baseline = {1: self.CLEAN + self.EPSILON, 2: self.CLEAN + self.EPSILON}
        result = replay(
            self._trace(),
            self._stack(),
            ReplayPolicy(tolerance_us=self.EPSILON + 1, baseline_us=baseline),
        )
        assert [r.latency_us for r in result.records] == [0, 2500, 2500, 2500, 0]

    def test_no_baseline_zero_tolerance_is_plain_closed_loop(self):
        _, plain = observed(self._trace(), self._stack())
        _, toler = observed(self._trace(), self._stack(), ReplayPolicy(tolerance_us=0))
        assert [e.describe() for e in plain] == [e.describe() for e in toler]


class TestDeterminism:
    def test_two_runs_byte_identical(self):
        spec = GeneratorSpec(
            count=60,
            seed=5,
            read_weight=2,
            write_weight=1,
            size_bytes=DistSpec.choice((64 * KB, 256 * KB, 320 * KB)),
            inter_arrival_us=DistSpec.exponential(300),
            address=DistSpec.uniform(0, 8 * 1024 * KB),
        )
        trace = generate(spec)

        def run():
            stack = plain_stack(cache=DiskCacheConfig(read_prefetch=ReadPrefetch.SEQUENTIAL_FILL))
            result, events = observed(trace, stack)
            return result, [e.describe() for e in events]

        (a, a_log), (b, b_log) = run(), run()
        assert a_log == b_log
        assert [(r.request_id, r.issue_us, r.complete_us) for r in a.records] == [
            (r.request_id, r.issue_us, r.complete_us) for r in b.records
        ]


class TestDriveWriteBack:
    def test_write_back_ack_precedes_destage(self):
        stack = plain_stack(
            cache=DiskCacheConfig(read_prefetch=ReadPrefetch.NONE, write_policy=WritePolicy.WRITE_BACK)
        )
        ios = [(Op.WRITE, 0, 64 * KB)]
        _, log = observed(stream(ios, AccessMode.NO_BUFFER), stack)
        ack_at = next(
            e.fire_at_us for e in log if e.target is StageId.SCHEDULER and e.payload.kind == "io-done"
        )
        destage_done = max(
            e.fire_at_us
            for e in log
            if e.payload.kind == "media-done" and e.payload.role is MediaRole.DESTAGE
        )
        assert ack_at < destage_done  # host sees the ack while media work continues

    def test_drive_write_through_acks_after_media(self):
        stack = plain_stack(
            cache=DiskCacheConfig(read_prefetch=ReadPrefetch.NONE, write_policy=WritePolicy.WRITE_THROUGH)
        )
        ios = [(Op.WRITE, 0, 64 * KB)]
        _, log = observed(stream(ios, AccessMode.NO_BUFFER), stack)
        media_done = next(e.fire_at_us for e in log if e.payload.kind == "media-done")
        ack_at = next(
            e.fire_at_us for e in log if e.target is StageId.SCHEDULER and e.payload.kind == "io-done"
        )
        assert ack_at >= media_done


class TestLocalPrefetchPenalty:
    def test_drained_local_prefetch_delays_the_next_media_op_one_revolution(self, monkeypatch):
        # LOCAL_512K: 64KB reads at A, B nearby, then A-adjacent start the
        # 512KB local prefetch; four 128KB reads drain it from the cache, so
        # the drive owes one revolution of repositioning to its next media
        # op, here the read of the last request.  The 128KB reads run
        # backwards, so no sequential fill-ahead issues a media op between.
        geometry = tiny_geometry(spt=128, cylinders=3000, heads=4)
        cache = DiskCacheConfig(read_prefetch=ReadPrefetch.LOCAL_512K)
        stack = plain_stack(geometry=geometry, cache=cache)
        sectors = BLOCK // 512
        ios = [(Op.READ, lba * 512, BLOCK) for lba in (0, 3 * sectors, sectors)]
        ios += [(Op.READ, BLOCK + i * 128 * KB, 128 * KB) for i in reversed(range(4))]
        ios.append((Op.READ, 1000 * BLOCK, BLOCK))
        trace = stream(ios, AccessMode.NO_BUFFER, gap_us=500_000)

        def media(log):
            issued = [e.payload for e in log if e.target is StageId.DISK and e.payload.kind == "media"]
            finish = {e.payload.media_id: e.fire_at_us for e in log if e.payload.kind == "media-finish"}
            return issued, finish

        issued, finish = media(observed(trace, stack)[1])
        owed = [m for m in issued if m.penalty_rotations]
        assert [(m.role, m.lba, m.penalty_rotations) for m in owed] == [
            (MediaRole.HOST_READ, 1000 * sectors, 1)
        ]
        # The four 128KB reads hit the cache: no media op between.
        H, L = MediaRole.HOST_READ, MediaRole.LOCAL_PREFETCH
        assert [m.role for m in issued] == [H, H, H, L, H] and issued[-1] is owed[0]
        monkeypatch.setattr(SegmentedCache, "take_penalty_rotations", lambda cache: 0)
        issued_free, finish_free = media(observed(trace, stack)[1])
        assert [m.lba for m in issued_free] == [m.lba for m in issued]
        op = owed[0].media_id
        assert finish[op] - finish_free[op] == geometry.rotation_period_us
        assert {i: t for i, t in finish.items() if i != op} == {
            i: t for i, t in finish_free.items() if i != op
        }


class TestZoneCrossing:
    def test_read_across_a_zone_boundary_is_timed_by_service(self):
        # A NO_BUFFER read of the last 8 sectors of the Fujitsu drive's first
        # zone and the first 8 of its second: one media op whose timing
        # steps into the next zone inside ``service``.
        geometry = FUJITSU_MAN3184MP.geometry
        first, second = geometry.zones[:2]
        boundary = (
            (second.first_cylinder - first.first_cylinder) * geometry.heads * first.sectors_per_track
            - geometry.spares_per_zone_tail
        )
        lba, sectors = boundary - 8, 16
        stack = plain_stack(geometry=geometry)
        trace = stream([(Op.READ, lba * 512, sectors * 512)], AccessMode.NO_BUFFER)
        _, events = observed(trace, stack)
        (start,) = select(events, StageId.DISK, "media")
        (finish,) = select(events, StageId.DISK, "media-finish")
        assert (start.payload.lba, start.payload.sectors) == (lba, sectors)
        # The first media op of the run finds the head in its initial state.
        delay, _ = service(lba, sectors, HeadState(), geometry, stack.seek, start.fire_at_us)
        assert finish.fire_at_us - start.fire_at_us == max(1, round(delay))
        # Timed as its two halves, each inside one zone, back to back.
        head_delay, head = service(lba, 8, HeadState(), geometry, stack.seek, start.fire_at_us)
        tail_delay, _ = service(boundary, 8, head, geometry, stack.seek, head.time_us)
        assert round(head_delay + tail_delay) == round(delay)
