"""Mechanical disk model: mapping, seek curve, rotation, service times."""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from iostack import (
    DiskGeometry,
    OutOfRange,
    SECTOR_BYTES,
    SeekProfile,
    Zone,
    cylinder_of_byte,
    seek_time,
    service,
)
from iostack.profiles import (
    FUJITSU_MAN3184MP,
    HITACHI_TRAVELSTAR_80GN,
    PROFILES,
    TOSHIBA_MK6012MAP,
)

from conftest import HEAD_AT_REST, flat_seek, tiny_geometry


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
        for slot in slots:
            mapping[lba] = slot
            lba += 1
    return mapping


def random_geometries(count: int = 120):
    """Small seeded geometries over zones and skews."""

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
        )


def phys_via_service(lba: int, geometry: DiskGeometry) -> tuple[int, int, int]:
    """(cylinder, head, physical sector) of an LBA, read off a one-sector ``service``.

    The head ends on the sector's track, its phase one sector past it; the
    track's sectors per track come from the zone fields.
    """

    _, (cylinder, head, angle, _) = service(lba, 1, HEAD_AT_REST, geometry, flat_seek(), 0)
    spt = next(z.sectors_per_track for z in reversed(geometry.zones) if z.first_cylinder <= cylinder)
    return cylinder, head, (round(angle * spt) - 1) % spt


class TestLbaMapping:
    def test_origin(self):
        g = tiny_geometry(spt=10, cylinders=2, heads=2)
        assert phys_via_service(0, g) == (0, 0, 0)

    def test_tiny_geometry_example(self):
        g = tiny_geometry(spt=10, cylinders=2, heads=2)
        # 40 sectors total; lba 25 sits on track 2 = (cylinder 1, head 0).
        assert phys_via_service(25, g) == (1, 0, 5)
        oracle = enumerate_mapping(g)
        assert oracle[25] == (1, 0, 5)

    def test_track_skew_rotates_origin(self):
        g = tiny_geometry(spt=10, cylinders=2, heads=2, track_skew=3)
        # lba 10 is the first sector of head 1; its physical slot is skewed.
        assert phys_via_service(10, g) == (0, 1, 3)
        assert enumerate_mapping(g)[10] == (0, 1, 3)

    def test_out_of_range(self):
        g = tiny_geometry(spt=10, cylinders=2, heads=2)
        with pytest.raises(OutOfRange):
            phys_via_service(40, g)
        with pytest.raises(OutOfRange):
            phys_via_service(-1, g)

    def test_matches_enumeration_oracle(self):
        g = DiskGeometry(
            cylinders=4,
            heads=3,
            zones=(Zone(0, 12), Zone(2, 8)),
            rpm=6000,
            track_skew_sectors=3,
            cylinder_skew_sectors=5,
        )
        oracle = enumerate_mapping(g)
        assert len(oracle) == g.usable_sectors
        for lba, expected in oracle.items():
            assert phys_via_service(lba, g) == expected

    def test_randomized_geometries_bijective(self):
        for g in random_geometries():
            oracle = enumerate_mapping(g)
            seen = set()
            for lba in range(g.usable_sectors):
                phys = phys_via_service(lba, g)
                assert phys == oracle[lba]
                seen.add(phys)
            assert len(seen) == g.usable_sectors  # injective


def zone_starts_by_summing(geometry: DiskGeometry) -> list[tuple[int, int]]:
    """(first LBA, sectors) of every zone, summed from the zone list."""

    spans = []
    start = 0
    ends = [z.first_cylinder for z in geometry.zones[1:]] + [geometry.cylinders]
    for zone, end in zip(geometry.zones, ends):
        size = (end - zone.first_cylinder) * geometry.heads * zone.sectors_per_track
        spans.append((start, size))
        start += size
    return spans


@pytest.mark.parametrize(
    "geometries",
    [[p.geometry for p in PROFILES.values()], list(random_geometries())],
    ids=["profiles", "random"],
)
def test_zone_table_matches_summed_zones(geometries):
    for g in geometries:
        spans = zone_starts_by_summing(g)
        assert g._zone_starts == (*(start for start, _ in spans), g.usable_sectors)
        assert g.usable_sectors == sum(size for _, size in spans)
        for lba in (-1, g.usable_sectors):
            with pytest.raises(OutOfRange):
                service(lba, 1, HEAD_AT_REST, g, flat_seek(), 0)


class TestSeekCurve:
    def test_zero_distance_is_free(self):
        assert seek_time(0, FUJITSU_MAN3184MP.seek, FUJITSU_MAN3184MP.geometry.cylinders) == 0

    def test_anchors_reproduced_exactly(self):
        drives = (FUJITSU_MAN3184MP, TOSHIBA_MK6012MAP, HITACHI_TRAVELSTAR_80GN)
        cases = [(drive.seek, drive.geometry.cylinders) for drive in drives]
        # An average equal to the minimum holds the minimum up to the knee.
        cases.append((flat_seek(min_us=400, avg_us=400, max_us=3000), 3000))
        for seek, cylinders in cases:
            for write in (False, True):
                lo, mid, hi = seek.triple(write)
                assert seek_time(1, seek, cylinders, write) == pytest.approx(lo)
                assert seek_time(cylinders // 3, seek, cylinders, write) == pytest.approx(mid)
                assert seek_time(cylinders - 1, seek, cylinders, write) == pytest.approx(hi)
                values = [seek_time(d, seek, cylinders, write) for d in range(cylinders)]
                assert all(b >= a for a, b in zip(values, values[1:]))

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

    # One-sector reads of track 0 at 10,000 rpm: a 6000us revolution, spt
    # 100, so LBA n is physical sector n and one sector passes in 60us.

    @staticmethod
    def wait_us(lba: int, angle_revs: float, ref_us: float, arrival_us: float) -> float:
        g = tiny_geometry(spt=100, rpm=10_000)
        delay, _ = service(lba, 1, (0, 0, angle_revs, ref_us), g, flat_seek(), arrival_us=arrival_us)
        return delay - 60

    def test_target_at_head_waits_zero(self):
        # Sector 25 of 100 is exactly under the head.
        assert self.wait_us(25, 0.25, 0, arrival_us=0) == pytest.approx(0)

    def test_wait_bounded_by_period(self):
        wait = self.wait_us(25, 0.26, 0, arrival_us=0)
        assert 0 <= wait < 6000
        assert wait == pytest.approx(6000 * 0.99)

    def test_angle_advances_with_time(self):
        # After a quarter period the head sits a quarter turn later: sector
        # 25 of 100 is under it, and sector 0 is three quarters away.
        assert self.wait_us(25, 0.0, 0, arrival_us=1500) == pytest.approx(0)
        assert self.wait_us(0, 0.0, 0, arrival_us=1500) == pytest.approx(4500)
        # The phase is taken relative to the reference time.
        assert self.wait_us(25, 0.0, 700, arrival_us=2200) == pytest.approx(0)


class TestService:
    # rpm 6000 = one revolution per 10_000us; spt 100 = 100us per sector.

    def test_full_track_read_is_one_rotation(self):
        g = tiny_geometry(spt=100, cylinders=4, heads=2, rpm=6000)
        delay, (cylinder, head, angle, _) = service(0, 100, HEAD_AT_REST, g, flat_seek(), arrival_us=0)
        assert delay == pytest.approx(10_000)
        assert cylinder == 0 and head == 0
        assert angle == pytest.approx(0.0)

    def test_partial_track_transfer_time(self):
        g = tiny_geometry(spt=100, cylinders=4, heads=2, rpm=6000)
        delay, _ = service(0, 50, HEAD_AT_REST, g, flat_seek(), arrival_us=0)
        assert delay == pytest.approx(5_000)

    def test_matched_skew_avoids_rotation_loss(self):
        # Head switch costs 300us = 3 sectors of rotation; track skew 3
        # lines the next logical sector up right as the switch ends.
        matched = tiny_geometry(spt=100, cylinders=4, heads=2, rpm=6000, track_skew=3)
        profile = flat_seek(switch_us=300)
        delay_matched, _ = service(0, 200, HEAD_AT_REST, matched, profile, arrival_us=0)
        assert delay_matched == pytest.approx(2 * 10_000 + 300)

        flat = tiny_geometry(spt=100, cylinders=4, heads=2, rpm=6000, track_skew=0)
        delay_flat, _ = service(0, 200, HEAD_AT_REST, flat, profile, arrival_us=0)
        # Zero skew waits out the rest of the revolution at the boundary.
        assert delay_flat == pytest.approx(2 * 10_000 + 300 + (10_000 - 300))
        assert delay_flat - delay_matched == pytest.approx(10_000 - 300)

    def test_seek_then_rotation_composition(self):
        g = tiny_geometry(spt=100, cylinders=60, heads=1, rpm=6000)
        profile = flat_seek(min_us=400, avg_us=1500, max_us=3000)
        # Move to cylinder 1 (min seek, 400us): the platter rotates 4
        # sectors meanwhile, so sector 0 comes around period - 400us later.
        delay, _ = service(100, 10, HEAD_AT_REST, g, profile, arrival_us=0)
        assert delay == pytest.approx(400 + (10_000 - 400) + 10 / 100 * 10_000)

    def test_angle_continuity_after_service(self):
        g = tiny_geometry(spt=100, cylinders=4, heads=2, rpm=6000)
        _, head = service(5, 20, HEAD_AT_REST, g, flat_seek(), arrival_us=0)
        _, _, angle, end_us = head
        assert angle == pytest.approx(0.25)
        # The next sector is under the head as the transfer ends, so a
        # contiguous follow-up pays transfer time only.
        delay, _ = service(25, 10, head, g, flat_seek(), arrival_us=end_us)
        assert delay == pytest.approx(10 / 100 * 10_000)

    def test_transfer_lower_bound(self):
        g = tiny_geometry(spt=100, cylinders=60, heads=2, rpm=6000)
        delay, _ = service(1234, 40, HEAD_AT_REST, g, flat_seek(), arrival_us=77)
        assert delay >= 40 / 100 * 10_000

    def test_out_of_range_service(self):
        g = tiny_geometry(spt=10, cylinders=2, heads=2)
        with pytest.raises(OutOfRange):
            service(35, 10, HEAD_AT_REST, g, flat_seek(), arrival_us=0)
        with pytest.raises(OutOfRange, match="^sectors must be positive$"):
            service(0, 0, HEAD_AT_REST, g, flat_seek(), arrival_us=0)
        with pytest.raises(OutOfRange, match=r"^lba -1 is negative$"):
            service(-1, 10, HEAD_AT_REST, g, flat_seek(), arrival_us=0)
        # The capacity check comes first.
        with pytest.raises(OutOfRange, match=r"^range \[-1, 41\) beyond usable 40 sectors$"):
            service(-1, 42, HEAD_AT_REST, g, flat_seek(), arrival_us=0)
        with pytest.raises(OutOfRange, match=r"^lba -1 is negative$"):
            cylinder_of_byte(-1, g)

    def test_zone_capacity_math(self):
        assert FUJITSU_MAN3184MP.geometry.usable_sectors == 35_937_024
        # 18.4GB drive: capacity within 1%.
        assert math.isclose(
            FUJITSU_MAN3184MP.geometry.usable_bytes, 18.4e9, rel_tol=0.01
        )


# -- exact differential check of ``service`` ---------------------------------


def reference_zone(lba: int, geometry: DiskGeometry) -> tuple[int, int, int]:
    """(zone index, first LBA, sectors) of the zone holding ``lba``, from the summed spans."""

    for zone_idx, (start, size) in enumerate(zone_starts_by_summing(geometry)):
        if start <= lba < start + size:
            return zone_idx, start, size
    raise AssertionError(f"lba {lba} outside every zone")


def reference_track_runs(lba: int, sectors: int, geometry: DiskGeometry):
    """Per-track runs of logical sectors, one zone lookup per track."""

    remaining = sectors
    while remaining > 0:
        zone_idx, zone_start, size = reference_zone(lba, geometry)
        z = geometry.zones[zone_idx]
        slot = lba - zone_start
        track = slot // z.sectors_per_track
        logical = slot % z.sectors_per_track
        run = min(remaining, z.sectors_per_track - logical)
        run = min(run, size - slot)
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
    """(cylinder, head, physical sector) from the summed zone spans and ``reference_track_place``."""

    zone_idx, start, _ = reference_zone(lba, geometry)
    spt = geometry.zones[zone_idx].sectors_per_track
    cylinder, head, skew = reference_track_place(geometry, zone_idx, (lba - start) // spt)
    return cylinder, head, ((lba - start) % spt + skew) % spt


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_lba_to_phys_and_cylinder_of_byte_equal_reference_on_profiles(name):
    g = PROFILES[name].geometry
    rng = np.random.default_rng(sum(map(ord, name)))
    lbas = [int(lba) for lba in rng.integers(0, g.usable_sectors, 300)]
    for start, size in zone_starts_by_summing(g):
        lbas += [start, start + size - 1]
    for lba in lbas:
        want = reference_phys(lba, g)
        assert phys_via_service(lba, g) == want
        offset = int(rng.integers(0, SECTOR_BYTES))
        assert cylinder_of_byte(lba * SECTOR_BYTES + offset, g) == want[0]
    # A byte past the end is clipped to the last sector.
    assert cylinder_of_byte(g.usable_bytes, g) == reference_phys(g.usable_sectors - 1, g)[0]


def reference_angle_at(state: tuple, t_us: float, period_us: float) -> float:
    _, _, angle_revs, time_us = state
    return (angle_revs + (t_us - time_us) / period_us) % 1.0


def reference_rotational_wait(
    target_sector: int, spt: int, state: tuple, arrival_us: float, period_us: float
) -> float:
    target_angle = (target_sector % spt) / spt
    current = reference_angle_at(state, arrival_us, period_us)
    wait_revs = (target_angle - current) % 1.0
    if wait_revs > 1.0 - 1e-9:
        wait_revs = 0.0
    return wait_revs * period_us


def reference_service(lba, sectors, state, geometry, profile, arrival_us, write=False):
    """``service`` as a per-track loop building one head state per track."""

    period = 60_000_000 / geometry.rpm
    t = float(arrival_us)
    pos = state
    for zone_idx, track, logical, run in reference_track_runs(lba, sectors, geometry):
        z = geometry.zones[zone_idx]
        cylinder, head, skew = reference_track_place(geometry, zone_idx, track)
        from_cylinder, from_head, _, _ = pos
        if cylinder != from_cylinder:
            t += seek_time(abs(cylinder - from_cylinder), profile, geometry.cylinders, write)
        elif head != from_head:
            t += profile.head_switch_us
        phys_start = (logical + skew) % z.sectors_per_track
        t += reference_rotational_wait(phys_start, z.sectors_per_track, pos, t, period)
        t += run / z.sectors_per_track * period
        end_angle = ((phys_start + run) % z.sectors_per_track) / z.sectors_per_track
        pos = (cylinder, head, end_angle, t)
    return t - arrival_us, pos


def boundary_runs(geometry: DiskGeometry, rng: np.random.Generator, count: int):
    """(lba, sectors) runs, many of them crossing a track, cylinder or zone boundary."""

    spt0 = geometry.zones[0].sectors_per_track
    zone_starts = geometry._zone_starts[1:-1]
    total = geometry.usable_sectors

    def boundary(size: int) -> int:
        """A multiple of ``size`` inside the first zone, or ``size``."""

        return int(rng.integers(1, max(1, geometry._zone_starts[1] // size) + 1)) * size

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


def random_head(geometry: DiskGeometry, rng: np.random.Generator) -> tuple[int, int, float, float]:
    """(cylinder, head, angle_revs, time_us) drawn over the geometry."""

    return (
        int(rng.integers(0, geometry.cylinders)),
        int(rng.integers(0, geometry.heads)),
        float(rng.random()),
        float(rng.integers(0, 10**7)),
    )


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_service_equals_per_track_reference_on_profiles(name):
    drive = PROFILES[name]
    g = drive.geometry
    rng = np.random.default_rng(sum(map(ord, name)))
    crossed = {"track": 0, "cylinder": 0, "zone": 0}
    for i, (lba, sectors) in enumerate(boundary_runs(g, rng, 800)):
        state = random_head(g, rng)
        arrival = state[3] + float(rng.integers(0, 50_000))
        write = bool(i % 2)
        got = service(lba, sectors, state, g, drive.seek, arrival_us=arrival, write=write)
        want = reference_service(lba, sectors, state, g, drive.seek, arrival, write)
        assert got == want
        first, last = reference_phys(lba, g), reference_phys(lba + sectors - 1, g)
        crossed["track"] += first[:2] != last[:2]
        crossed["cylinder"] += first[0] != last[0]
        crossed["zone"] += reference_zone(lba, g)[0] != reference_zone(lba + sectors - 1, g)[0]
    assert min(crossed.values()) >= 20, crossed


def test_service_equals_per_track_reference_on_random_geometries():
    rng = np.random.default_rng(7)
    profile = flat_seek(switch_us=150)
    for g in random_geometries(60):
        for i, (lba, sectors) in enumerate(boundary_runs(g, rng, 12)):
            state = random_head(g, rng)
            arrival = state[3] + float(rng.integers(0, 20_000))
            write = bool(i % 2)
            got = service(lba, sectors, state, g, profile, arrival_us=arrival, write=write)
            assert got == reference_service(lba, sectors, state, g, profile, arrival, write)


def zone_tracks_by_fields(geometry: DiskGeometry) -> tuple[tuple[int, int], ...]:
    """Per zone (first cylinder, sectors per track), from the fields."""

    return tuple((z.first_cylinder, z.sectors_per_track) for z in geometry.zones)


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_zone_tables_follow_the_fields(name):
    g = PROFILES[name].geometry
    first, last = g.zones[0], g.zones[-1]
    # Two zones split at half the stroke, and a faster spindle.
    other = dataclasses.replace(
        g,
        rpm=g.rpm + 1_234,
        zones=(Zone(0, last.sectors_per_track), Zone(g.cylinders // 2, first.sectors_per_track)),
    )
    assert other._zone_tracks != g._zone_tracks
    for geometry in (g, other):
        assert geometry._zone_tracks == zone_tracks_by_fields(geometry)
        assert geometry._zone_starts == (0, *np.cumsum([u for _, u in zone_starts_by_summing(geometry)]))
        assert geometry.rotation_period_us == 60_000_000 / geometry.rpm


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_copied_geometry_serves_as_the_original(name):
    drive = PROFILES[name]
    g = drive.geometry
    rng = np.random.default_rng(sum(map(ord, name)) + 1)
    for twin in (copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert twin is not g and twin == g
        for i, (lba, sectors) in enumerate(boundary_runs(g, rng, 80)):
            state = random_head(g, rng)
            arrival = state[3] + float(rng.integers(0, 50_000))
            write = bool(i % 2)
            assert service(lba, sectors, state, twin, drive.seek, arrival, write) == service(
                lba, sectors, state, g, drive.seek, arrival, write
            )
            addr = lba * SECTOR_BYTES + int(rng.integers(0, SECTOR_BYTES))
            assert cylinder_of_byte(addr, twin) == cylinder_of_byte(addr, g)


# -- switch skews --------------------------------------------------------------

#: Revolutions the sector after a switch takes, where it takes one or more.
#: On the Fujitsu drive ``write_min_us`` (600) outlasts the cylinder skew of
#: zones 0-4 (56 sectors, 457-598 us), so a write that steps to the next
#: cylinder there waits out a revolution (ROADMAP item 13).
LOST_REVOLUTION = {
    ("fujitsu_man3184mp", 0, "cylinder", "write"): 1.077,
    ("fujitsu_man3184mp", 1, "cylinder", "write"): 1.082,
    ("fujitsu_man3184mp", 2, "cylinder", "write"): 1.088,
    ("fujitsu_man3184mp", 3, "cylinder", "write"): 1.094,
    ("fujitsu_man3184mp", 4, "cylinder", "write"): 1.101,
}


def switch_costs():
    """(profile, zone, switch, direction) and the revolutions the sector after the switch took.

    In every zone of every profile, ``service`` serves the last sector before
    the first head switch or the first cylinder step, then the next sector
    from the head state it returned, arriving as the first ends.
    """

    for name, drive in sorted(PROFILES.items()):
        g = drive.geometry
        for zone_idx, (start, _) in enumerate(zone_starts_by_summing(g)):
            spt = g.zones[zone_idx].sectors_per_track
            for switch, last in (("head", start + spt - 1), ("cylinder", start + g.heads * spt - 1)):
                (cylinder, head, _), after = reference_phys(last, g), reference_phys(last + 1, g)
                assert after[:2] == ((cylinder, head + 1) if switch == "head" else (cylinder + 1, 0))
                for direction in ("read", "write"):
                    write = direction == "write"
                    _, state = service(last, 1, HEAD_AT_REST, g, drive.seek, 0, write)
                    delay, _ = service(last + 1, 1, state, g, drive.seek, state[3], write)
                    yield (name, zone_idx, switch, direction), delay / g.rotation_period_us


def test_switch_skews_lose_a_revolution_only_on_fujitsu_cylinder_writes():
    costs = dict(switch_costs())
    assert len(costs) == sum(2 * 2 * len(p.geometry.zones) for p in PROFILES.values())
    lost = {case: round(revs, 3) for case, revs in costs.items() if revs >= 1}
    assert lost == LOST_REVOLUTION
