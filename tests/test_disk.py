"""Mechanical disk model: mapping, seek curve, rotation, service times."""

from __future__ import annotations

import math

import numpy as np
import pytest

from iostack import (
    DiskGeometry,
    HeadState,
    OutOfRange,
    SECTOR_BYTES,
    SeekProfile,
    Zone,
    cylinder_of_byte,
    lba_to_phys,
    rotational_wait,
    seek_time,
    service,
)
from iostack.profiles import (
    FUJITSU_MAN3184MP,
    HITACHI_TRAVELSTAR_80GN,
    PROFILES,
    TOSHIBA_MK6012MAP,
)

from conftest import flat_seek, tiny_geometry


def enumerate_mapping(geometry: DiskGeometry) -> dict[int, tuple[int, int, int]]:
    """Independent mapping oracle: walk tracks in cylinder-major order,
    placing LBAs one by one and accumulating skew at each boundary by its
    kind."""

    mapping: dict[int, tuple[int, int, int]] = {}
    lba = 0
    zones = list(geometry.zones)
    for zi, zone in enumerate(zones):
        z_end = zones[zi + 1].first_cylinder if zi + 1 < len(zones) else geometry.cylinders
        zone_cyls = z_end - zone.first_cylinder
        spt = zone.sectors_per_track
        tracks = [
            (zone.first_cylinder + c, h) for c in range(zone_cyls) for h in range(geometry.heads)
        ]
        slots = []
        skew = 0
        prev_cyl = None
        for cyl, head in tracks:
            if prev_cyl is not None:
                # A cylinder crossing is one arm step (the head returning to
                # 0 rides along); any other boundary is one head switch.
                skew += (
                    geometry.cylinder_skew_sectors
                    if cyl != prev_cyl
                    else geometry.track_skew_sectors
                )
            for s in range(spt):
                slots.append((cyl, head, (s + skew) % spt))
            prev_cyl = cyl
        usable = len(slots) - geometry.spares_per_zone_tail
        for slot in slots[:usable]:
            mapping[lba] = slot
            lba += 1
    return mapping


def random_geometries(count: int = 120):
    """Small seeded geometries over zones, skews and spares."""

    rng = np.random.default_rng(20240917)
    for _ in range(count):
        cylinders = int(rng.integers(1, 5))
        heads = int(rng.integers(1, 5))
        zone_count = int(rng.integers(1, min(cylinders, 2) + 1))
        firsts = sorted(rng.choice(cylinders, size=zone_count, replace=False).tolist())
        firsts[0] = 0
        spts = [int(rng.integers(4, 17)) for _ in range(zone_count)]
        min_spt = min(spts)
        yield DiskGeometry(
            cylinders=cylinders,
            heads=heads,
            zones=tuple(Zone(f, s) for f, s in zip(firsts, spts)),
            rpm=4200,
            track_skew_sectors=int(rng.integers(0, min_spt)),
            cylinder_skew_sectors=int(rng.integers(0, min_spt)),
            spares_per_zone_tail=int(rng.integers(0, 3)),
        )


class TestLbaMapping:
    def test_origin(self):
        g = tiny_geometry(spt=10, cylinders=2, heads=2)
        assert lba_to_phys(0, g) == (0, 0, 0)

    def test_tiny_geometry_example(self):
        g = tiny_geometry(spt=10, cylinders=2, heads=2)
        # 40 sectors total; lba 25 sits on track 2 = (cylinder 1, head 0).
        assert lba_to_phys(25, g) == (1, 0, 5)
        oracle = enumerate_mapping(g)
        assert oracle[25] == (1, 0, 5)

    def test_track_skew_rotates_origin(self):
        g = tiny_geometry(spt=10, cylinders=2, heads=2, track_skew=3)
        # lba 10 is the first sector of head 1; its physical slot is skewed.
        assert lba_to_phys(10, g) == (0, 1, 3)
        assert enumerate_mapping(g)[10] == (0, 1, 3)

    def test_out_of_range(self):
        g = tiny_geometry(spt=10, cylinders=2, heads=2)
        with pytest.raises(OutOfRange):
            lba_to_phys(40, g)
        with pytest.raises(OutOfRange):
            lba_to_phys(-1, g)

    def test_matches_enumeration_oracle(self):
        g = DiskGeometry(
            cylinders=4,
            heads=3,
            zones=(Zone(0, 12), Zone(2, 8)),
            rpm=6000,
            track_skew_sectors=3,
            cylinder_skew_sectors=5,
            spares_per_zone_tail=2,
        )
        oracle = enumerate_mapping(g)
        assert len(oracle) == g.usable_sectors
        for lba, expected in oracle.items():
            assert lba_to_phys(lba, g) == expected

    def test_randomized_geometries_bijective(self):
        for g in random_geometries():
            oracle = enumerate_mapping(g)
            seen = set()
            for lba in range(g.usable_sectors):
                phys = lba_to_phys(lba, g)
                assert phys == oracle[lba]
                seen.add(phys)
            assert len(seen) == g.usable_sectors  # injective onto non-spares


def zone_starts_by_summing(geometry: DiskGeometry) -> list[tuple[int, int]]:
    """(first LBA, usable sectors) of every zone, summed from the zone list."""

    spans = []
    start = 0
    ends = [z.first_cylinder for z in geometry.zones[1:]] + [geometry.cylinders]
    for zone, end in zip(geometry.zones, ends):
        usable = (end - zone.first_cylinder) * geometry.heads * zone.sectors_per_track
        usable -= geometry.spares_per_zone_tail
        spans.append((start, usable))
        start += usable
    return spans


@pytest.mark.parametrize(
    "geometries",
    [[p.geometry for p in PROFILES.values()], list(random_geometries())],
    ids=["profiles", "random"],
)
def test_zone_table_matches_summed_zones(geometries):
    for g in geometries:
        spans = zone_starts_by_summing(g)
        for idx, (start, usable) in enumerate(spans):
            assert g._zone_usable[idx] == usable
            assert g._zone_of_lba(start) == (idx, start)
            assert g._zone_of_lba(start + usable - 1) == (idx, start)
        assert g.usable_sectors == sum(g._zone_usable)
        assert g.usable_sectors == sum(usable for _, usable in spans)
        for lba in (-1, g.usable_sectors):
            with pytest.raises(OutOfRange):
                g._zone_of_lba(lba)


class TestSeekCurve:
    def test_zero_distance_is_free(self):
        assert seek_time(0, FUJITSU_MAN3184MP.seek, FUJITSU_MAN3184MP.geometry.cylinders) == 0

    def test_anchors_reproduced_exactly(self):
        for profile in (FUJITSU_MAN3184MP, TOSHIBA_MK6012MAP, HITACHI_TRAVELSTAR_80GN):
            cylinders = profile.geometry.cylinders
            for write in (False, True):
                lo, mid, hi = profile.seek.triple(write)
                assert seek_time(1, profile.seek, cylinders, write) == pytest.approx(lo)
                assert seek_time(cylinders // 3, profile.seek, cylinders, write) == pytest.approx(mid)
                assert seek_time(cylinders - 1, profile.seek, cylinders, write) == pytest.approx(hi)

    def test_config1_published_points(self):
        cylinders = FUJITSU_MAN3184MP.geometry.cylinders
        assert seek_time(1, FUJITSU_MAN3184MP.seek, cylinders) == pytest.approx(400)
        assert seek_time(cylinders - 1, FUJITSU_MAN3184MP.seek, cylinders) == pytest.approx(11_000)

    def test_monotone_dense_sweep(self):
        cylinders = FUJITSU_MAN3184MP.geometry.cylinders
        distances = np.linspace(0, cylinders - 1, 1000).astype(int)
        values = [seek_time(int(d), FUJITSU_MAN3184MP.seek, cylinders) for d in distances]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            SeekProfile(500, 400, 300, 500, 400, 300)


class TestRotation:
    def test_period_10k_rpm(self):
        g = tiny_geometry(rpm=10_000)
        assert g.rotation_period_us == pytest.approx(6_000)

    def test_period_4200_rpm(self):
        g = tiny_geometry(rpm=4_200)
        assert g.rotation_period_us == pytest.approx(14_285.714285714286)

    def test_target_at_head_waits_zero(self):
        # spt 100: sector 25 is exactly under the head.
        assert rotational_wait(25, 100, 0.25, 0, arrival_us=0, period_us=6000) == pytest.approx(0)

    def test_wait_bounded_by_period(self):
        wait = rotational_wait(25, 100, 0.26, 0, arrival_us=0, period_us=6000)
        assert 0 <= wait < 6000
        assert wait == pytest.approx(6000 * 0.99)

    def test_angle_advances_with_time(self):
        # After a quarter period the head sits a quarter turn later: sector
        # 25 of 100 is under it, and sector 0 is three quarters away.
        assert rotational_wait(25, 100, 0.0, 0, arrival_us=1500, period_us=6000) == pytest.approx(0)
        assert rotational_wait(0, 100, 0.0, 0, arrival_us=1500, period_us=6000) == pytest.approx(4500)
        # The phase is taken relative to the reference time.
        assert rotational_wait(25, 100, 0.0, 700, arrival_us=2200, period_us=6000) == pytest.approx(0)


class TestService:
    # rpm 6000 = one revolution per 10_000us; spt 100 = 100us per sector.

    def test_full_track_read_is_one_rotation(self):
        g = tiny_geometry(spt=100, cylinders=4, heads=2, rpm=6000)
        head = HeadState()
        delay, new_head = service(0, 100, head, g, flat_seek(), arrival_us=0)
        assert delay == pytest.approx(10_000)
        assert new_head.cylinder == 0 and new_head.head == 0
        assert new_head.angle_revs == pytest.approx(0.0)

    def test_partial_track_transfer_time(self):
        g = tiny_geometry(spt=100, cylinders=4, heads=2, rpm=6000)
        delay, _ = service(0, 50, HeadState(), g, flat_seek(), arrival_us=0)
        assert delay == pytest.approx(5_000)

    def test_matched_skew_avoids_rotation_loss(self):
        # Head switch costs 300us = 3 sectors of rotation; track skew 3
        # lines the next logical sector up right as the switch ends.
        matched = tiny_geometry(spt=100, cylinders=4, heads=2, rpm=6000, track_skew=3)
        profile = flat_seek(switch_us=300)
        delay_matched, _ = service(0, 200, HeadState(), matched, profile, arrival_us=0)
        assert delay_matched == pytest.approx(2 * 10_000 + 300)

        flat = tiny_geometry(spt=100, cylinders=4, heads=2, rpm=6000, track_skew=0)
        delay_flat, _ = service(0, 200, HeadState(), flat, profile, arrival_us=0)
        # Zero skew waits out the rest of the revolution at the boundary.
        assert delay_flat == pytest.approx(2 * 10_000 + 300 + (10_000 - 300))
        assert delay_flat - delay_matched == pytest.approx(10_000 - 300)

    def test_seek_then_rotation_composition(self):
        g = tiny_geometry(spt=100, cylinders=60, heads=1, rpm=6000)
        profile = flat_seek(min_us=400, avg_us=1500, max_us=3000)
        # Move to cylinder 1 (min seek, 400us): the platter rotates 4
        # sectors meanwhile, so sector 0 comes around period - 400us later.
        delay, _ = service(100, 10, HeadState(), g, profile, arrival_us=0)
        assert delay == pytest.approx(400 + (10_000 - 400) + 10 / 100 * 10_000)

    def test_angle_continuity_after_service(self):
        g = tiny_geometry(spt=100, cylinders=4, heads=2, rpm=6000)
        _, head = service(5, 20, HeadState(), g, flat_seek(), arrival_us=0)
        assert head.angle_revs == pytest.approx(0.25)
        # The next sector is under the head as the transfer ends, so a
        # contiguous follow-up pays transfer time only.
        delay, _ = service(25, 10, head, g, flat_seek(), arrival_us=head.time_us)
        assert delay == pytest.approx(10 / 100 * 10_000)

    def test_transfer_lower_bound(self):
        g = tiny_geometry(spt=100, cylinders=60, heads=2, rpm=6000)
        delay, _ = service(1234, 40, HeadState(), g, flat_seek(), arrival_us=77)
        assert delay >= 40 / 100 * 10_000

    def test_out_of_range_service(self):
        g = tiny_geometry(spt=10, cylinders=2, heads=2)
        with pytest.raises(OutOfRange):
            service(35, 10, HeadState(), g, flat_seek(), arrival_us=0)

    def test_zone_capacity_math(self):
        assert FUJITSU_MAN3184MP.geometry.usable_sectors == 35_937_024
        # 18.4GB drive: capacity within 1%.
        assert math.isclose(
            FUJITSU_MAN3184MP.geometry.usable_bytes, 18.4e9, rel_tol=0.01
        )


# -- exact differential check of ``service`` ---------------------------------


def reference_track_runs(lba: int, sectors: int, geometry: DiskGeometry):
    """Per-track runs of logical sectors, one zone lookup per track."""

    remaining = sectors
    while remaining > 0:
        zone_idx, zone_start = geometry._zone_of_lba(lba)
        z = geometry.zones[zone_idx]
        slot = lba - zone_start
        track = slot // z.sectors_per_track
        logical = slot % z.sectors_per_track
        run = min(remaining, z.sectors_per_track - logical)
        run = min(run, geometry._zone_usable[zone_idx] - slot)
        yield zone_idx, track, logical, run
        lba += run
        remaining -= run


def reference_track_place(geometry: DiskGeometry, zone_idx: int, track: int):
    """(cylinder, head, skew) of a zone-relative track, apart from the model's.

    The first track of the zone has skew 0.  Every later track adds the
    cylinder skew when it starts a new cylinder (head 0) and the track skew
    when it only switches heads.
    """

    cylinders_crossed = track // geometry.heads
    head_switches = track - cylinders_crossed
    skew = (
        head_switches * geometry.track_skew_sectors
        + cylinders_crossed * geometry.cylinder_skew_sectors
    )
    return geometry.zones[zone_idx].first_cylinder + cylinders_crossed, track % geometry.heads, skew


def reference_phys(lba: int, geometry: DiskGeometry) -> tuple[int, int, int]:
    """``lba_to_phys`` from the summed zone spans and ``reference_track_place``."""

    for zone_idx, (start, usable) in enumerate(zone_starts_by_summing(geometry)):
        if start <= lba < start + usable:
            spt = geometry.zones[zone_idx].sectors_per_track
            cylinder, head, skew = reference_track_place(geometry, zone_idx, (lba - start) // spt)
            return cylinder, head, ((lba - start) % spt + skew) % spt
    raise AssertionError(f"lba {lba} outside every zone")


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_lba_to_phys_and_cylinder_of_byte_equal_reference_on_profiles(name):
    g = PROFILES[name].geometry
    rng = np.random.default_rng(sum(map(ord, name)))
    lbas = [int(lba) for lba in rng.integers(0, g.usable_sectors, 300)]
    for start, usable in zone_starts_by_summing(g):
        lbas += [start, start + usable - 1]
    for lba in lbas:
        want = reference_phys(lba, g)
        assert lba_to_phys(lba, g) == want
        offset = int(rng.integers(0, SECTOR_BYTES))
        assert cylinder_of_byte(lba * SECTOR_BYTES + offset, g) == want[0]
    # A byte past the end is clipped to the last sector.
    assert cylinder_of_byte(g.usable_bytes, g) == reference_phys(g.usable_sectors - 1, g)[0]


def reference_angle_at(state: HeadState, t_us: float, period_us: float) -> float:
    return (state.angle_revs + (t_us - state.time_us) / period_us) % 1.0


def reference_rotational_wait(
    target_sector: int, spt: int, state: HeadState, arrival_us: float, period_us: float
) -> float:
    target_angle = (target_sector % spt) / spt
    current = reference_angle_at(state, arrival_us, period_us)
    wait_revs = (target_angle - current) % 1.0
    if wait_revs > 1.0 - 1e-9:
        wait_revs = 0.0
    return wait_revs * period_us


def reference_service(lba, sectors, state, geometry, profile, arrival_us, write=False):
    """``service`` as a per-track loop building one ``HeadState`` per track."""

    period = geometry.rotation_period_us
    t = float(arrival_us)
    pos = state
    for zone_idx, track, logical, run in reference_track_runs(lba, sectors, geometry):
        z = geometry.zones[zone_idx]
        cylinder, head, skew = reference_track_place(geometry, zone_idx, track)
        if cylinder != pos.cylinder:
            t += seek_time(abs(cylinder - pos.cylinder), profile, geometry.cylinders, write)
        elif head != pos.head:
            t += profile.head_switch_us
        phys_start = (logical + skew) % z.sectors_per_track
        t += reference_rotational_wait(phys_start, z.sectors_per_track, pos, t, period)
        t += run / z.sectors_per_track * period
        end_angle = ((phys_start + run) % z.sectors_per_track) / z.sectors_per_track
        pos = HeadState(cylinder, head, end_angle, t)
    return t - arrival_us, pos


def boundary_runs(geometry: DiskGeometry, rng: np.random.Generator, count: int):
    """(lba, sectors) runs, many of them crossing a track, cylinder or zone boundary."""

    spt0 = geometry.zones[0].sectors_per_track
    zone_starts = geometry._zone_starts[1:-1]
    total = geometry.usable_sectors

    def boundary(size: int) -> int:
        """A multiple of ``size`` inside the first zone, or ``size``."""

        return int(rng.integers(1, max(1, geometry._zone_usable[0] // size) + 1)) * size

    for i in range(count):
        kind = i % 4
        if kind == 0 or (kind == 3 and not zone_starts):
            lba = int(rng.integers(0, total))
        elif kind == 1:  # the end of a track of the first zone
            lba = boundary(spt0)
        elif kind == 2:  # the end of a cylinder of the first zone
            lba = boundary(geometry.heads * spt0)
        else:  # the end of a zone
            lba = int(zone_starts[int(rng.integers(0, len(zone_starts)))])
        if kind:
            lba -= int(rng.integers(1, spt0 + 1))
        lba = max(0, min(lba, total - 1))
        sectors = int(rng.integers(1, 3 * spt0 + 1))
        yield lba, min(sectors, total - lba)


def random_head(geometry: DiskGeometry, rng: np.random.Generator) -> HeadState:
    return HeadState(
        cylinder=int(rng.integers(0, geometry.cylinders)),
        head=int(rng.integers(0, geometry.heads)),
        angle_revs=float(rng.random()),
        time_us=float(rng.integers(0, 10**7)),
    )


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_service_equals_per_track_reference_on_profiles(name):
    drive = PROFILES[name]
    g = drive.geometry
    rng = np.random.default_rng(sum(map(ord, name)))
    crossed = {"track": 0, "cylinder": 0, "zone": 0}
    for i, (lba, sectors) in enumerate(boundary_runs(g, rng, 800)):
        state = random_head(g, rng)
        arrival = state.time_us + float(rng.integers(0, 50_000))
        write = bool(i % 2)
        got = service(lba, sectors, state, g, drive.seek, arrival_us=arrival, write=write)
        want = reference_service(lba, sectors, state, g, drive.seek, arrival, write)
        assert got == want
        first, last = lba_to_phys(lba, g), lba_to_phys(lba + sectors - 1, g)
        crossed["track"] += first[:2] != last[:2]
        crossed["cylinder"] += first[0] != last[0]
        crossed["zone"] += g._zone_of_lba(lba)[0] != g._zone_of_lba(lba + sectors - 1)[0]
    assert min(crossed.values()) >= 20, crossed


def test_service_equals_per_track_reference_on_random_geometries():
    rng = np.random.default_rng(7)
    profile = flat_seek(switch_us=150)
    for g in random_geometries(60):
        for i, (lba, sectors) in enumerate(boundary_runs(g, rng, 12)):
            state = random_head(g, rng)
            arrival = state.time_us + float(rng.integers(0, 20_000))
            write = bool(i % 2)
            got = service(lba, sectors, state, g, profile, arrival_us=arrival, write=write)
            assert got == reference_service(lba, sectors, state, g, profile, arrival, write)
