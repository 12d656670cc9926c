"""Edge cases across modules that the mainline tests don't reach."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from iostack import (
    AccessMode,
    DiskGeometry,
    Op,
    ReplayMode,
    ReplayPolicy,
    StackConfig,
    Zone,
    parse_trace_line,
    replay,
    service,
)
from iostack.diskcache import DiskCacheConfig, MediaRole, ReadPrefetch
from iostack.fscache import DEMAND, FsCache, FsCacheConfig
from iostack.profiles import PROFILES
from iostack.replay import file_extents
from iostack.requests import CanonicalRequest, Origin
from iostack.scheduler import Policy
from iostack.trace import ingest_text
from iostack.workload import DistSpec, GeneratorSpec, generate

from conftest import flat_seek, observed, plain_stack, tiny_geometry
from test_replay import select, stream

KB = 1024
BLOCK = 64 * KB


class TestTraceFlags:
    def test_write_through_flag(self):
        raw = parse_trace_line(
            "5  9:0:0.000  app.exe:1  OPEN  C:\\f  SUCCESS Options: Open WriteThrough Access: All"
        )
        assert raw.mode is AccessMode.WRITE_THROUGH

    def test_sequential_scan_flag(self):
        raw = parse_trace_line(
            "5  9:0:0.000  app.exe:1  OPEN  C:\\f  SUCCESS Options: Open SequentialScan"
        )
        assert raw.mode is AccessMode.SEQUENTIAL

    def test_no_buffer_beats_other_flags(self):
        text = (
            "1  9:0:0.000  a.exe:1  OPEN  C:\\f  SUCCESS Options: Open NoBuffer SequentialScan\n"
            "2  9:0:0.010  a.exe:1  READ  C:\\f  LCN: 1 Offset: 0 Length: 512\n"
        )
        requests, _ = ingest_text(text, system_processes=())
        assert requests[1].mode is AccessMode.NO_BUFFER

    @pytest.mark.parametrize(
        "options, mode",
        [
            ("Open WriteThrough", AccessMode.WRITE_THROUGH),
            ("Open SequentialScan", AccessMode.SEQUENTIAL),
            ("Open NoBuffer WriteThrough", AccessMode.NO_BUFFER),
            ("Open WriteThrough NoBuffer SequentialScan", AccessMode.NO_BUFFER),
        ],
    )
    def test_open_options_set_the_session_mode(self, options, mode):
        text = (
            f"1  9:0:0.000  a.exe:1  OPEN  C:\\f  SUCCESS Options: {options} Access: All\n"
            "2  9:0:0.010  a.exe:1  READ  C:\\f  LCN: 1 Offset: 0 Length: 512\n"
            "3  9:0:0.020  a.exe:1  WRITE  C:\\f  LCN: 1 Offset: 0 Length: 512\n"
        )
        requests, report = ingest_text(text, system_processes=())
        assert not report.dropped_lines
        assert [(r.op, r.mode) for r in requests] == [(op, mode) for op in (Op.OPEN, Op.READ, Op.WRITE)]

    def test_path_with_single_spaces_survives(self):
        raw = parse_trace_line(
            "9  9:0:0.000  word.exe:4  OPEN  C:\\Program Files\\doc.txt  SUCCESS Options: Open"
        )
        assert raw.path == "C:\\Program Files\\doc.txt"


class TestWorkloadEdges:
    def test_choice_address_mode(self):
        spec = GeneratorSpec(
            count=20,
            seed=9,
            address=DistSpec.choice((0, BLOCK, 2 * BLOCK)),
            size_bytes=DistSpec.constant(BLOCK),
        )
        for r in generate(spec):
            if r.op in (Op.READ, Op.WRITE):
                assert r.file_offset_bytes in (0, BLOCK, 2 * BLOCK)

    def test_no_bracket_mode(self):
        out = generate(GeneratorSpec(count=3, seed=1, emit_open_close=False))
        assert len(out) == 3
        assert all(r.op in (Op.READ, Op.WRITE) for r in out)

    def test_binomial_and_poisson_draw_integers(self):
        import numpy as np

        from iostack import sample

        rng = np.random.Generator(np.random.PCG64(5))
        for spec in (DistSpec.binomial(100, 0.5), DistSpec.poisson(30)):
            value = sample(spec, rng)
            assert value == int(value) and value >= 0


class TestFsCacheEdges:
    def test_write_through_reads_use_buffered_algorithms(self):
        fs = FsCache(FsCacheConfig(), {0: 100 * BLOCK})
        req = CanonicalRequest(0, Origin.APP, Op.READ, 0, 0, BLOCK, 0, AccessMode.WRITE_THROUGH)
        plan = fs.on_read(req, 0)
        # Cached path, not passthrough: one quantized demand block.
        assert [io.purpose for io in plan.ios] == [DEMAND]
        assert plan.ios[0].nbytes == BLOCK

    def test_open_resets_stream_state(self):
        stack = plain_stack()
        size = 256 * KB
        # Two OPEN..CLOSE sessions on one file: the second session starts a
        # fresh stream (system demand load of a cold region), never a
        # continuation of the old one.  Cached blocks themselves survive
        # the close, so the second session must touch a cold region.
        requests = stream([(Op.READ, 0, size), (Op.READ, size, size)], AccessMode.NORMAL)
        requests += stream([(Op.READ, 8 * size, size)], AccessMode.NORMAL)
        _, events = observed(requests, stack)
        demands = [e.payload for e in select(events, kind="io") if e.payload.purpose is DEMAND]
        last_four = demands[-4:]
        assert [io.disk_addr // BLOCK for io in last_four] == [32, 33, 34, 35]
        assert all(io.actor == "system" for io in last_four)

    def test_progressive_dirty_drains_to_zero(self):
        fs = FsCache(FsCacheConfig())
        req = CanonicalRequest(0, Origin.APP, Op.WRITE, 0, 0, BLOCK, 0, AccessMode.NORMAL)
        fs.on_write(req, tag=0)
        assert fs.dirty_accounted_bytes > 0
        while fs.next_progressive_flush():
            pass
        assert fs.dirty_accounted_bytes == 0


class TestReplayEdges:
    def test_include_system_requests(self):
        app = CanonicalRequest(0, Origin.APP, Op.OPEN, 0, 0, 0, 0)
        system = CanonicalRequest(
            0, Origin.SYSTEM, Op.READ, 0, 0, BLOCK, 0, AccessMode.NO_BUFFER
        )
        stack = plain_stack(include_system_requests=True)
        result = replay([app, system], stack)
        assert len(result.records) == 2
        # System-origin work replays but stays out of the summary metrics.
        assert result.summary.total_requests == 1

    def test_trace_derived_extents_never_clip(self):
        # Replay derives the file extents from the trace's own accesses, so
        # no read ends past its file's extent and the fs cache needs no
        # end-of-file clip.
        stack = plain_stack()
        requests = [
            CanonicalRequest(0, Origin.APP, Op.OPEN, 0, 0, 0, 0),
            CanonicalRequest(0, Origin.APP, Op.READ, 0, 0, BLOCK, 0),
            CanonicalRequest(0, Origin.APP, Op.READ, 0, 0, 4 * BLOCK, 0),
            CanonicalRequest(0, Origin.APP, Op.READ, 1, 0, 3 * BLOCK, 8 * BLOCK),
            CanonicalRequest(0, Origin.APP, Op.WRITE, 1, 0, 5 * BLOCK, 8 * BLOCK),
            CanonicalRequest(0, Origin.APP, Op.CLOSE, 0, 0, 0, 0),
        ]
        result = replay(requests, stack)
        extents = result.fs.extents
        assert extents == file_extents(requests) == {0: 4 * BLOCK, 1: 13 * BLOCK}
        reads = [r for r in result.effective_requests if r.op is Op.READ]
        assert len(reads) == 3
        assert all(r.disk_byte_addr + r.length_bytes <= extents[r.file_id] for r in reads)

    def test_look_policy_full_run(self):
        stack = plain_stack(scheduler_policy=Policy.LOOK)
        ios = [(Op.READ, i * 256 * KB, 256 * KB) for i in range(4)]
        result = replay(stream(ios, AccessMode.NORMAL, gap_us=1000), stack,
                        ReplayPolicy(mode=ReplayMode.OPEN_LOOP_TIMED))
        assert len(result.records) == 6

    def test_c_look_policy_full_run(self):
        stack = plain_stack(scheduler_policy=Policy.C_LOOK)
        ios = [(Op.WRITE, i * 320 * KB, 320 * KB) for i in range(6)]
        result = replay(stream(ios, AccessMode.NORMAL), stack)
        assert result.fs.dirty_accounted_bytes == 0

    def test_request_beyond_capacity_rejected_upfront(self):
        from iostack import TraceReplayError

        stack = plain_stack(geometry=tiny_geometry(spt=16, cylinders=2, heads=1))
        huge = CanonicalRequest(0, Origin.APP, Op.READ, 0, 0, BLOCK, 10**12, AccessMode.NO_BUFFER)
        with pytest.raises(TraceReplayError, match="^request 0 at disk byte .* capacity"):
            replay([huge], stack)
        # The error names the request's position in the whole trace, system
        # requests included, though only replayed requests are checked.
        system = dataclasses.replace(huge, origin=Origin.SYSTEM)
        with pytest.raises(TraceReplayError, match="^request 2 at disk byte"):
            replay([system, dataclasses.replace(huge, disk_byte_addr=0, length_bytes=512), huge], stack)

    def test_zero_length_io_completes_without_disk(self):
        stack = plain_stack()
        requests = [
            CanonicalRequest(0, Origin.APP, Op.OPEN, 0, 0, 0, 0),
            CanonicalRequest(0, Origin.APP, Op.READ, 0, 0, 0, 0),
            CanonicalRequest(0, Origin.APP, Op.WRITE, 0, 0, 0, 0),
            CanonicalRequest(0, Origin.APP, Op.CLOSE, 0, 0, 0, 0),
        ]
        result, events = observed(requests, stack)
        assert len(result.records) == 4
        assert not select(events, kind="media")

    def test_sequential_fill_profileless_drive(self):
        stack = plain_stack(
            cache=DiskCacheConfig(read_prefetch=ReadPrefetch.SEQUENTIAL_FILL)
        )
        ios = [(Op.READ, i * BLOCK, BLOCK) for i in range(20)]
        _, events = observed(stream(ios, AccessMode.NO_BUFFER), stack)
        roles = {e.payload.role for e in select(events, kind="media")}
        assert MediaRole.FILL_CHUNK in roles


def assert_media_within_disk(run, geometry: DiskGeometry) -> None:
    result, events = run
    assert len(result.records) == len(result.effective_requests)
    media = select(events, kind="media")
    assert media
    assert all(e.payload.lba + e.payload.sectors <= geometry.usable_sectors for e in media)


class TestDiskEnd:
    """Reads that reach the disk end: no media read may pass it."""

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_last_4kb_normal_read(self, profile):
        # The fs cache reads the whole 64KB block, which overhangs the end
        # of a disk whose sector count is no multiple of 128.
        drive = PROFILES[profile]
        stack = StackConfig(geometry=drive.geometry, seek=drive.seek, cache=drive.cache)
        last = drive.geometry.usable_bytes - 4 * KB
        run = observed(stream([(Op.READ, last, 4 * KB)], AccessMode.NORMAL), stack)
        assert_media_within_disk(run, drive.geometry)

    @pytest.mark.parametrize("prefetch", [ReadPrefetch.SEQUENTIAL_FILL, ReadPrefetch.LOCAL_512K])
    @pytest.mark.parametrize("mode", [AccessMode.NO_BUFFER, AccessMode.NORMAL])
    def test_sequential_reads_up_to_the_end(self, mode, prefetch):
        geometry = tiny_geometry()  # 12000 sectors
        stack = plain_stack(geometry=geometry, cache=DiskCacheConfig(read_prefetch=prefetch))
        first = geometry.usable_bytes - 8 * BLOCK
        ios = [(Op.READ, first + i * BLOCK, BLOCK) for i in range(8)]
        run = observed(stream(ios, mode), stack)
        assert_media_within_disk(run, geometry)
        roles = {e.payload.role for e in select(run[1], kind="media")}
        assert MediaRole.FILL_CHUNK in roles

    def test_local_prefetch_stops_at_the_end(self):
        geometry = tiny_geometry()
        stack = plain_stack(geometry=geometry, cache=DiskCacheConfig(read_prefetch=ReadPrefetch.LOCAL_512K))
        first = geometry.usable_bytes - 8 * BLOCK
        # Blocks 0, 4, 1 of the last eight: a 512KB prefetch from block 1
        # would pass the end by 128 sectors.
        ios = [(Op.READ, first + b * BLOCK, BLOCK) for b in (0, 4, 1)]
        run = observed(stream(ios, AccessMode.NO_BUFFER), stack)
        assert_media_within_disk(run, geometry)
        local = [e.payload for e in select(run[1], kind="media")
                 if e.payload.role is MediaRole.LOCAL_PREFETCH]
        assert [(m.lba, m.sectors) for m in local] == [(first // 512 + 128, 7 * 128)]


@settings(max_examples=60, deadline=None)
@given(
    spt=st.integers(8, 64),
    heads=st.integers(1, 4),
    cylinders=st.integers(2, 20),
    lba_frac=st.floats(0, 0.9),
    sectors=st.integers(1, 100),
    angle=st.floats(0, 0.999),
)
def test_service_time_never_beats_transfer_bound(spt, heads, cylinders, lba_frac, sectors, angle):
    geometry = DiskGeometry(cylinders=cylinders, heads=heads, zones=(Zone(0, spt),), rpm=7200)
    total = geometry.usable_sectors
    lba = int(lba_frac * total)
    sectors = min(sectors, total - lba)
    if sectors <= 0:
        return
    delay, (_, _, end_angle, _) = service(
        lba, sectors, (0, 0, angle, 0.0), geometry, flat_seek(), arrival_us=100
    )
    transfer = sectors / spt * geometry.rotation_period_us
    assert delay >= transfer - 1e-6
    assert 0 <= end_angle < 1
