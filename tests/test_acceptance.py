"""Acceptance suite: one test per release criterion.

Each test exercises its criterion end to end at the stated tolerance and
prints one PASS line on success (run with -s or check the pytest report).
Criteria with stated runtime budgets assert them with a wall clock.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

from iostack import (
    AccessMode,
    DiskGeometry,
    Op,
    ReplayPolicy,
    StackConfig,
    StageId,
    WriteRegime,
    Zone,
    classify_write_regime,
    emit_reports,
    error_percent,
    ingest_text,
    lba_to_phys,
    read_canonical,
    reference_media_image,
    replay,
    seek_time,
    write_canonical,
)
from iostack.diskcache import LOCALITY_RADIUS_SECTORS, SegmentedCache
from iostack.profiles import FUJITSU_MAN3184MP, HITACHI_TRAVELSTAR_80GN, PROFILES, TOSHIBA_MK6012MAP
from iostack.requests import Origin
from iostack.workload import DistSpec, GeneratorSpec, generate

from conftest import observed, plain_stack, tiny_geometry, zero_cost_fs
from test_disk import enumerate_mapping
from test_golden_log import log_text
from test_replay import disk_read_blocks, stream

KB = 1024
BLOCK = 64 * KB


def ok(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


def test_disk_visible_read_order_golden_sequence():
    """Normal-mode 256KB reads produce the leapfrog block order at the drive."""

    start = time.perf_counter()
    trace = stream([(Op.READ, i * 256 * KB, 256 * KB) for i in range(3)], AccessMode.NORMAL)
    _, events = observed(trace, plain_stack())
    assert disk_read_blocks(events) == [0, 1, 2, 3, 8, 4, 9, 5, 10, 6, 11, 7]
    assert time.perf_counter() - start < 1.0
    ok("disk-visible read order (golden sequence)")


def test_periodic_write_pattern_and_flush_cadence():
    """320KB writes split 3/3, 4/2, 5/1, 6/0 per period; 8MB working set
    flushes every 7-8 requests."""

    start = time.perf_counter()
    ios = [(Op.WRITE, i * 320 * KB, 320 * KB) for i in range(32)]
    result = replay(stream(ios, AccessMode.NORMAL), plain_stack())
    splits = [(c, d) for _, c, d in result.fs.write_splits]
    assert splits == [(3, 3), (4, 2), (5, 1), (6, 0)] * 8
    fires = result.fs.flush_ordinals
    assert fires, "working-set flush never fired"
    gaps = [b - a for a, b in zip(fires, fires[1:])]
    assert all(7 <= g <= 8 for g in gaps), gaps
    # Tags are request ordinals; the OPEN is ordinal 0, so the first write
    # is tag 1 and the first flush lands on the 7th or 8th write.
    assert 7 <= fires[0] <= 8
    assert time.perf_counter() - start < 1.0
    ok("periodic write split sequence and flush cadence")


def test_write_regime_classification():
    for size in (32 * KB, 64 * KB, 96 * KB, 128 * KB, 256 * KB):
        assert classify_write_regime(size) is WriteRegime.PROGRESSIVE, size
    for size in (160 * KB, 192 * KB, 320 * KB, 512 * KB):
        assert classify_write_regime(size) is WriteRegime.PERIODIC, size
    ok("write regime classification")


def test_local_512k_prefetch_per_pattern_instance():
    """The drive-profile quirk fires exactly once per A,B,A-adjacent triple
    in the golden read order."""

    order = [0, 1, 2, 3, 8, 4, 9, 5, 10, 6, 11, 7]
    requests = [(b * BLOCK // 512, BLOCK // 512) for b in order]

    # Independent oracle: enumerate sliding triples with the pattern shape.
    radius = LOCALITY_RADIUS_SECTORS
    expected = 0
    for (a, alen), (b, _), (c, _) in zip(requests, requests[1:], requests[2:]):
        if c == a + alen and b != c and abs(b - (a + alen)) <= radius:
            expected += 1
    assert expected == 4  # frozen from the enumeration above

    cache = SegmentedCache(FUJITSU_MAN3184MP.cache)
    for lba, sectors in requests:
        # Deliver every media read the lookup starts, fill chunks included.
        todo = cache.read_lookup(lba, sectors)[2]
        while todo:
            role, run_lba, run_sectors = todo.pop(0)
            todo += cache.on_media_data(run_lba, run_sectors, role)
    assert cache.local_prefetch_count == expected
    assert not cache.outstanding_fills and not cache.fill_ranges
    ok("local 512KB prefetch count per pattern instance")


def test_lba_mapping_bijective_on_randomized_geometries():
    """>=100 random small geometries, exhaustively enumerated, zero violations."""

    start = time.perf_counter()
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(120):
        cylinders = int(rng.integers(1, 5))
        heads = int(rng.integers(1, 5))
        zone_count = int(rng.integers(1, min(cylinders, 2) + 1))
        firsts = sorted(rng.choice(cylinders, size=zone_count, replace=False).tolist())
        firsts[0] = 0
        spts = [int(rng.integers(4, 17)) for _ in range(zone_count)]
        geometry = DiskGeometry(
            cylinders=cylinders,
            heads=heads,
            zones=tuple(Zone(f, s) for f, s in zip(firsts, spts)),
            rpm=4200,
            track_skew_sectors=int(rng.integers(0, min(spts))),
            cylinder_skew_sectors=int(rng.integers(0, min(spts))),
            spares_per_zone_tail=int(rng.integers(0, 3)),
        )
        oracle = enumerate_mapping(geometry)
        seen = set()
        for lba in range(geometry.usable_sectors):
            phys = lba_to_phys(lba, geometry)
            assert phys == oracle[lba], (geometry, lba)
            seen.add(phys)
        assert len(seen) == geometry.usable_sectors
        checked += 1
    assert checked >= 100
    assert time.perf_counter() - start < 5.0
    ok("lba mapping bijectivity vs exhaustive enumeration")


def test_seek_anchor_points_and_monotonicity():
    """Each shipped profile reproduces its (min, avg, max) seek points
    exactly and stays monotone over a 1000-point sweep."""

    for profile in (FUJITSU_MAN3184MP, TOSHIBA_MK6012MAP, HITACHI_TRAVELSTAR_80GN):
        cylinders = profile.geometry.cylinders
        for write in (False, True):
            lo, mid, hi = profile.seek.triple(write)
            assert seek_time(1, profile.seek, cylinders, write) == pytest.approx(lo, abs=1e-9)
            assert seek_time(cylinders // 3, profile.seek, cylinders, write) == pytest.approx(
                mid, abs=1e-9
            )
            assert seek_time(cylinders - 1, profile.seek, cylinders, write) == pytest.approx(
                hi, abs=1e-9
            )
            sweep = np.linspace(0, cylinders - 1, 1000).astype(int)
            values = [seek_time(int(d), profile.seek, cylinders, write) for d in sweep]
            assert all(b >= a for a, b in zip(values, values[1:]))
    # The published numbers for the first profile, spelled out.
    c = FUJITSU_MAN3184MP.geometry.cylinders
    assert seek_time(1, FUJITSU_MAN3184MP.seek, c) == 400.0
    assert seek_time(c // 3, FUJITSU_MAN3184MP.seek, c) == pytest.approx(4500.0)
    assert seek_time(c - 1, FUJITSU_MAN3184MP.seek, c) == pytest.approx(11000.0)
    ok("seek curve anchor points and monotonicity")


def test_sequential_media_rate_bound_and_floor():
    """Long sequential no-buffer reads never beat the outer-track media
    rate and reach at least 75% of it with correct skews."""

    profile = FUJITSU_MAN3184MP
    stack = StackConfig(geometry=profile.geometry, seek=profile.seek, cache=profile.cache)
    ios = [(Op.READ, i * 256 * KB, 256 * KB) for i in range(128)]
    result = replay(stream(ios, AccessMode.NO_BUFFER), stack)
    throughput = result.summary.throughput_bytes_per_s
    bound = 377_000 / 0.006  # outer track bytes per revolution time
    assert throughput <= bound
    assert throughput >= 0.75 * bound
    ok("sequential media-rate bound and skew floor")


def test_write_conservation_media_image():
    """Post-drain media image equals the writes applied directly in order."""

    cases = [
        dict(mode=AccessMode.NORMAL, size=320 * KB, address="SEQUENTIAL"),
        dict(mode=AccessMode.SEQUENTIAL, size=512 * KB, address="SEQUENTIAL"),
        dict(mode=AccessMode.NORMAL, size=64 * KB, address="SEQUENTIAL"),
        dict(mode=AccessMode.NO_BUFFER, size=128 * KB, address=DistSpec.uniform(0, 4 * 1024 * KB)),
        dict(mode=AccessMode.NORMAL, size=320 * KB, address=DistSpec.uniform(0, 4 * 1024 * KB)),
        dict(mode=AccessMode.WRITE_THROUGH, size=128 * KB, address="SEQUENTIAL"),
    ]
    for i, case in enumerate(cases):
        spec = GeneratorSpec(
            count=40,
            seed=100 + i,
            read_weight=0,
            write_weight=1,
            mode=case["mode"],
            size_bytes=DistSpec.constant(case["size"]),
            address=case["address"],
        )
        trace = generate(spec)
        result = replay(trace, plain_stack())
        assert result.media_image == reference_media_image(result.effective_requests), case
    ok("write conservation against the reference media image")


def test_replay_determinism_byte_identical(tmp_path):
    """Same (trace, config, seed) twice: identical event log and reports.

    The cross-platform claim rests on the absence of platform-dependent
    ordering anywhere in the pipeline: integer microsecond time, explicit
    tie-breaking in the event queue, seeded PCG64 streams, insertion-ordered
    containers, and no iteration over hash-ordered sets in any output path.
    """

    spec = GeneratorSpec(
        count=80,
        seed=31,
        read_weight=2,
        write_weight=1,
        size_bytes=DistSpec.choice((64 * KB, 256 * KB, 320 * KB)),
        inter_arrival_us=DistSpec.exponential(250),
        address=DistSpec.uniform(0, 16 * 1024 * KB),
    )
    trace = generate(spec)
    profile = FUJITSU_MAN3184MP
    stack = StackConfig(geometry=profile.geometry, seek=profile.seek, cache=profile.cache)

    outputs = []
    for run in range(2):
        result, events = observed(trace, stack)
        out = tmp_path / f"run{run}"
        files = emit_reports(result.records, result.summary, out)
        outputs.append((log_text(events), tuple(f.read_bytes() for f in files)))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    ok("replay determinism (event log and reports byte-identical)")


def test_error_metric():
    assert error_percent(10_000, 10_000) == 0.0
    trace = stream([(Op.READ, 0, BLOCK)], AccessMode.NO_BUFFER)
    result = replay(trace, plain_stack())
    total = result.summary.total_response_us
    assert error_percent(total, total) == 0.0
    assert error_percent(100_000, 94_000) == 6.0
    ok("error metric formula and self-comparison")


def test_response_time_tolerance_mechanism():
    """Closed-loop tolerance: a simulated finish slightly earlier than the
    measured one inflates the next latency by about one revolution minus
    the gap at tolerance zero, and not at all above the gap."""

    epsilon = 300
    period = 10_000
    clean = 2_500
    sector_time = period // 200
    stack = plain_stack(
        geometry=tiny_geometry(spt=200, cylinders=4, heads=1, rpm=6000),
        fs=zero_cost_fs(),
    )
    ios = [(Op.READ, i * 50 * 512, 50 * 512) for i in range(3)]
    trace = stream(ios, AccessMode.NO_BUFFER)

    base = replay(trace, stack)
    assert [r.latency_us for r in base.records][1:4] == [clean] * 3
    baseline = {1: clean + epsilon, 2: clean + epsilon}

    strict = replay(trace, stack, ReplayPolicy(tolerance_us=0, baseline_us=baseline))
    lenient = replay(trace, stack, ReplayPolicy(tolerance_us=epsilon + 1, baseline_us=baseline))

    strict_lat = {r.request_id: r.latency_us for r in strict.records}
    lenient_lat = {r.request_id: r.latency_us for r in lenient.records}
    inflation = strict_lat[2] - lenient_lat[2]
    assert abs(inflation - (period - epsilon)) <= sector_time
    assert lenient_lat[2] == clean
    ok("closed-loop response-time tolerance")


def test_trace_sample_round_trip(sample_trace_text, tmp_path):
    """The reference tracer sample parses, normalizes and round-trips."""

    requests, report = ingest_text(sample_trace_text)
    assert len(requests) == 11
    assert not report.dropped_lines

    by_time_order = requests
    read_88 = by_time_order[2]
    assert read_88.op is Op.READ
    assert read_88.disk_byte_addr == 403019 * 4096
    assert read_88.length_bytes == 12
    write_190 = by_time_order[9]
    assert write_190.op is Op.WRITE
    assert write_190.length_bytes == 196_608

    app = sum(1 for r in requests if r.origin is Origin.APP)
    system = sum(1 for r in requests if r.origin is Origin.SYSTEM)
    assert (app, system) == (7, 4)

    path = tmp_path / "canonical.txt"
    write_canonical(requests, path)
    assert read_canonical(path) == requests
    ok("tracer sample parse, origin split and round trip")
