"""Shipped drive profiles for the three validated configurations.

Rotation speed, seek triple, capacity, track-size range and cache size come
from the drives' published characteristics.  Zone tables, head counts,
segment counts and skews are not published anywhere, so they are
interpolated or derived and should be treated as calibration data: zone
sizes interpolate linearly between the known outer and inner track sizes,
and skews are sized so a head or cylinder switch costs no extra revolution,
with one exception: on the Fujitsu drive a write that steps to the next
cylinder in zones 0-4 loses a revolution, because its ``write_min_us``
(600 us) outlasts the cylinder skew there (457-598 us; ROADMAP item 13).
The second drive's track sizes are themselves interpolated from capacity
and are non-authoritative.
"""

from __future__ import annotations

from dataclasses import dataclass

from .disk import DiskGeometry, SeekProfile, Zone
from .diskcache import DiskCacheConfig, ReadPrefetch, WritePolicy


@dataclass(frozen=True)
class DriveProfile:
    name: str
    geometry: DiskGeometry
    seek: SeekProfile
    cache: DiskCacheConfig


def _zones(spts: list[int], cylinders_per_zone: int) -> tuple[Zone, ...]:
    return tuple(
        Zone(first_cylinder=i * cylinders_per_zone, sectors_per_track=spt)
        for i, spt in enumerate(spts)
    )


# 18.4GB, 10000 rpm, Ultra160 SCSI, 8MB cache.  Outer tracks 377KB, inner
# 221KB.  This drive shows the local-pattern 512KB prefetch and loses about
# one revolution repositioning after draining such a prefetch in 128KB
# slices.
FUJITSU_MAN3184MP = DriveProfile(
    name="fujitsu_man3184mp",
    geometry=DiskGeometry(
        cylinders=15_384,
        heads=4,
        zones=_zones([736, 693, 649, 606, 562, 519, 475, 432], 1_923),
        rpm=10_000,
        track_skew_sectors=50,
        cylinder_skew_sectors=56,
    ),
    seek=SeekProfile(
        read_min_us=400,
        read_avg_us=4_500,
        read_max_us=11_000,
        write_min_us=600,
        write_avg_us=5_000,
        write_max_us=12_000,
        head_switch_us=400,
    ),
    cache=DiskCacheConfig(
        segment_count=16,
        segment_bytes=512 * 1024,
        read_prefetch=ReadPrefetch.LOCAL_512K,
        write_policy=WritePolicy.WRITE_BACK,
    ),
)

# 6GB, 4200 rpm, ATA-4, 1MB cache.  No published track sizes: the zone
# table is inferred from capacity alone.
TOSHIBA_MK6012MAP = DriveProfile(
    name="toshiba_mk6012map",
    geometry=DiskGeometry(
        cylinders=12_216,
        heads=2,
        zones=_zones([600, 566, 531, 497, 463, 429, 394, 360], 1_527),
        rpm=4_200,
        track_skew_sectors=126,
        cylinder_skew_sectors=140,
    ),
    seek=SeekProfile(
        read_min_us=3_000,
        read_avg_us=13_000,
        read_max_us=24_000,
        write_min_us=3_000,
        write_avg_us=13_000,
        write_max_us=24_000,
        head_switch_us=3_000,
    ),
    cache=DiskCacheConfig(
        segment_count=8,
        segment_bytes=128 * 1024,
        read_prefetch=ReadPrefetch.SEQUENTIAL_FILL,
        write_policy=WritePolicy.WRITE_BACK,
    ),
)

# 60GB, 4200 rpm, ATA-6, 8MB cache.  Outer tracks 434KB, inner 224KB.
HITACHI_TRAVELSTAR_80GN = DriveProfile(
    name="hitachi_travelstar_80gn",
    geometry=DiskGeometry(
        cylinders=45_576,
        heads=4,
        zones=_zones([848, 789, 731, 672, 614, 555, 497, 438], 5_697),
        rpm=4_200,
        track_skew_sectors=149,
        cylinder_skew_sectors=160,
    ),
    seek=SeekProfile(
        read_min_us=2_500,
        read_avg_us=13_000,
        read_max_us=31_000,
        write_min_us=2_500,
        write_avg_us=13_000,
        write_max_us=31_000,
        head_switch_us=2_500,
    ),
    cache=DiskCacheConfig(
        segment_count=16,
        segment_bytes=512 * 1024,
        read_prefetch=ReadPrefetch.SEQUENTIAL_FILL,
        write_policy=WritePolicy.WRITE_BACK,
    ),
)

PROFILES = {
    p.name: p
    for p in (FUJITSU_MAN3184MP, TOSHIBA_MK6012MAP, HITACHI_TRAVELSTAR_80GN)
}

