"""Mechanical disk service-time model.

Zoned geometry with track/cylinder skews and per-zone spare sectors, a
three-point seek curve, and rotational bookkeeping precise enough that a
logically sequential stream crossing a track boundary lands just behind the
head after the switch instead of losing a revolution.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

from .requests import SECTOR_BYTES


class OutOfRange(Exception):
    """An LBA or cylinder distance falls outside the geometry."""


@dataclass(frozen=True)
class Zone:
    first_cylinder: int
    sectors_per_track: int


@dataclass(frozen=True)
class DiskGeometry:
    cylinders: int
    heads: int
    zones: tuple[Zone, ...]
    rpm: int
    track_skew_sectors: int = 0
    cylinder_skew_sectors: int = 0
    #: Sectors reserved at the tail of each zone's logical order (0 = none).
    spares_per_zone_tail: int = 0

    def __post_init__(self) -> None:
        if self.cylinders <= 0 or self.heads <= 0 or self.rpm <= 0:
            raise ValueError("cylinders, heads and rpm must be positive")
        if not self.zones or self.zones[0].first_cylinder != 0:
            raise ValueError("zones must start at cylinder 0")
        for prev, cur in zip(self.zones, self.zones[1:]):
            if cur.first_cylinder <= prev.first_cylinder:
                raise ValueError("zone first_cylinder values must be strictly increasing")
        if self.zones[-1].first_cylinder >= self.cylinders:
            raise ValueError("zone starts beyond the last cylinder")
        min_spt = min(z.sectors_per_track for z in self.zones)
        if self.track_skew_sectors >= min_spt or self.cylinder_skew_sectors >= min_spt:
            raise ValueError("skews must be smaller than every zone's sectors_per_track")
        ends = [z.first_cylinder for z in self.zones[1:]] + [self.cylinders]
        usable = []
        for z, end in zip(self.zones, ends):
            total = (end - z.first_cylinder) * self.heads * z.sectors_per_track
            if self.spares_per_zone_tail >= total:
                raise ValueError("spares exceed zone capacity")
            usable.append(total - self.spares_per_zone_tail)
        # Zone tables, fixed with the frozen geometry and kept out of its
        # fields: per zone, its usable sectors and first LBA, plus the total
        # usable sectors as a final start.
        object.__setattr__(self, "_zone_usable", tuple(usable))
        object.__setattr__(self, "_zone_starts", tuple(accumulate(usable, initial=0)))

    # -- zone arithmetic ---------------------------------------------------

    @property
    def usable_sectors(self) -> int:
        return self._zone_starts[-1]

    @property
    def usable_bytes(self) -> int:
        return self.usable_sectors * SECTOR_BYTES

    @property
    def rotation_period_us(self) -> float:
        return 60_000_000 / self.rpm

    def _zone_of_lba(self, lba: int) -> tuple[int, int]:
        """Zone index and the LBA where that zone starts."""

        if lba < 0:
            raise OutOfRange(f"lba {lba} is negative")
        idx = bisect_right(self._zone_starts, lba) - 1
        if idx == len(self.zones):
            raise OutOfRange(f"lba {lba} beyond usable capacity {self.usable_sectors}")
        return idx, self._zone_starts[idx]

    def _track_place(self, zone_idx: int, track: int) -> tuple[int, int, int]:
        """(cylinder, head, skew) of the zone-relative track index.

        Tracks run in cylinder-major order (all heads of a cylinder, then the
        next cylinder).  The skew is the rotational offset of the track's
        logical sector 0, and it accumulates along that order: every head
        switch adds the track skew, every cylinder step adds the cylinder
        skew, so a sequential transfer resumes just behind the head after
        each switch.
        """

        cylinder_steps, head = divmod(track, self.heads)
        skew = (
            (track - cylinder_steps) * self.track_skew_sectors
            + cylinder_steps * self.cylinder_skew_sectors
        )
        return self.zones[zone_idx].first_cylinder + cylinder_steps, head, skew


def lba_to_phys(lba: int, geometry: DiskGeometry) -> tuple[int, int, int]:
    """Map a logical block address to (cylinder, head, physical sector).

    Bijective onto the non-spare sectors: spare slots sit at the tail of
    each zone's logical order and are never assigned an address.
    """

    zone_idx, zone_start = geometry._zone_of_lba(lba)
    spt = geometry.zones[zone_idx].sectors_per_track
    track, logical_sector = divmod(lba - zone_start, spt)
    cylinder, head, skew = geometry._track_place(zone_idx, track)
    return cylinder, head, (logical_sector + skew) % spt


@dataclass(frozen=True)
class SeekProfile:
    """(distance 1, average, full stroke) seek times per direction of use."""

    read_min_us: float
    read_avg_us: float
    read_max_us: float
    write_min_us: float
    write_avg_us: float
    write_max_us: float
    head_switch_us: float = 0.0

    def triple(self, write: bool) -> tuple[float, float, float]:
        if write:
            return self.write_min_us, self.write_avg_us, self.write_max_us
        return self.read_min_us, self.read_avg_us, self.read_max_us

    def __post_init__(self) -> None:
        for write in (False, True):
            lo, mid, hi = self.triple(write)
            if not lo <= mid <= hi:
                raise ValueError("seek profile requires min <= avg <= max")


def seek_time(
    distance_cylinders: int, profile: SeekProfile, cylinders: int, write: bool = False
) -> float:
    """Seek cost in microseconds for a cylinder distance.

    Square-root rise up to the knee, affine beyond it, monotone: the published
    min, avg and max fall at one cylinder, a third of the stroke and the full
    stroke.  The mean over uniformly random cylinder pairs is off that avg by
    +2.9 % (Fujitsu), -3.1 % (Toshiba) and +4.2 % (Hitachi): ROADMAP item 7.
    """

    if not 0 <= distance_cylinders < cylinders:
        raise OutOfRange(f"seek distance {distance_cylinders} outside [0, {cylinders})")
    if distance_cylinders == 0:
        return 0.0
    lo, mid, hi = profile.triple(write)
    full = cylinders - 1
    knee = cylinders / 3
    if knee <= 1.0 or mid <= lo:
        # Degenerate profile or tiny geometry: fall back to a straight line.
        if full <= 1:
            return lo
        return lo + (hi - lo) * (distance_cylinders - 1) / (full - 1)
    if distance_cylinders <= knee:
        b = (mid - lo) / (math.sqrt(knee) - 1.0)
        return (lo - b) + b * math.sqrt(distance_cylinders)
    return mid + (hi - mid) * (distance_cylinders - knee) / (full - knee)


class HeadState(NamedTuple):
    """Head position plus the rotational phase at a reference time."""

    cylinder: int = 0
    head: int = 0
    angle_revs: float = 0.0
    time_us: float = 0.0


def rotational_wait(
    target_sector: int,
    spt: int,
    angle_revs: float,
    ref_us: float,
    arrival_us: float,
    period_us: float,
) -> float:
    """Microseconds until the target physical sector reaches the head.

    The platter stood at ``angle_revs`` revolutions at time ``ref_us``.  A
    sector that is mathematically exactly under the head must wait zero,
    not a full revolution; the epsilon absorbs float noise from the angle
    arithmetic (1e-9 of a revolution is far below one sector).
    """

    target_angle = (target_sector % spt) / spt
    current = (angle_revs + (arrival_us - ref_us) / period_us) % 1.0
    wait_revs = (target_angle - current) % 1.0
    if wait_revs > 1.0 - 1e-9:
        wait_revs = 0.0
    return wait_revs * period_us


def service(
    lba: int,
    sectors: int,
    state: HeadState,
    geometry: DiskGeometry,
    profile: SeekProfile,
    arrival_us: float,
    write: bool = False,
) -> tuple[float, HeadState]:
    """Serve one media access; returns (completion delay, new head state).

    The delay composes seek, head-switch, rotational wait and transfer track
    by track.  The platter keeps rotating during seeks and switches, so with
    skews matched to the switch costs a sequential multi-track transfer
    incurs no extra revolution.
    """

    if sectors <= 0:
        raise OutOfRange("sectors must be positive")
    if lba + sectors > geometry.usable_sectors:
        raise OutOfRange(
            f"range [{lba}, {lba + sectors}) beyond usable {geometry.usable_sectors} sectors"
        )
    period = geometry.rotation_period_us
    t = float(arrival_us)
    # The head: its position, and the platter's phase at reference time ref.
    cylinder, head, angle, ref = state
    zone_idx, zone_start = geometry._zone_of_lba(lba)
    usable = geometry._zone_usable[zone_idx]
    spt = geometry.zones[zone_idx].sectors_per_track
    remaining = sectors
    while remaining > 0:
        slot = lba - zone_start
        if slot == usable:
            # The run continues into the next zone.
            zone_idx += 1
            zone_start = lba
            slot = 0
            usable = geometry._zone_usable[zone_idx]
            spt = geometry.zones[zone_idx].sectors_per_track
        track, logical = divmod(slot, spt)
        run = min(remaining, spt - logical, usable - slot)
        to_cylinder, to_head, skew = geometry._track_place(zone_idx, track)
        if to_cylinder != cylinder:
            # Head selection settles within the arm move.
            t += seek_time(abs(to_cylinder - cylinder), profile, geometry.cylinders, write)
        elif to_head != head:
            t += profile.head_switch_us
        phys_start = (logical + skew) % spt
        # The rotational phase does not depend on which track the head is on.
        t += rotational_wait(phys_start, spt, angle, ref, t, period)
        t += run / spt * period
        cylinder, head = to_cylinder, to_head
        angle = ((phys_start + run) % spt) / spt
        ref = t
        lba += run
        remaining -= run
    return t - arrival_us, HeadState(cylinder, head, angle, ref)


def cylinder_of_byte(disk_byte_addr: int, geometry: DiskGeometry) -> int:
    """Cylinder holding the first sector of a byte address (clipped in range)."""

    lba = min(disk_byte_addr // SECTOR_BYTES, geometry.usable_sectors - 1)
    return lba_to_phys(lba, geometry)[0]
