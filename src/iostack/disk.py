"""Mechanical disk service-time model.

Zoned geometry with track and cylinder skews, a three-point seek curve,
and rotational bookkeeping precise enough that a logically sequential
stream crossing a track boundary lands just behind the head after the
switch instead of losing a revolution.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .requests import SECTOR_BYTES


class OutOfRange(Exception):
    """An LBA or cylinder distance falls outside the geometry."""


@dataclass(frozen=True)
class Zone:
    first_cylinder: int
    sectors_per_track: int


@dataclass(frozen=True)
class DiskGeometry:
    """A zoned drive's layout: cylinders, heads, zones, spindle speed and skews.

    ``__post_init__`` checks the fields and builds, once per geometry, the
    tables every media op reads, kept out of the fields: ``_zone_starts``
    (each zone's first LBA, then the total usable sectors), ``_zone_tracks``
    (each zone's first cylinder and sectors per track) and
    ``rotation_period_us``.  ``dataclasses.replace`` rebuilds them; a copy
    or a pickle carries them.
    """

    cylinders: int
    heads: int
    zones: tuple[Zone, ...]
    rpm: int
    track_skew_sectors: int = 0
    cylinder_skew_sectors: int = 0

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
        sizes = (
            (end - z.first_cylinder) * self.heads * z.sectors_per_track
            for z, end in zip(self.zones, ends)
        )
        setfield = object.__setattr__
        setfield(self, "_zone_starts", tuple(accumulate(sizes, initial=0)))
        tracks = tuple((z.first_cylinder, z.sectors_per_track) for z in self.zones)
        setfield(self, "_zone_tracks", tracks)
        setfield(self, "rotation_period_us", 60_000_000 / self.rpm)

    # -- zone arithmetic ---------------------------------------------------

    @property
    def usable_sectors(self) -> int:
        return self._zone_starts[-1]

    @property
    def usable_bytes(self) -> int:
        return self.usable_sectors * SECTOR_BYTES


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
        if min(*self.triple(False), *self.triple(True), self.head_switch_us) < 0:
            raise ValueError("seek and head-switch times must be >= 0")
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
    if knee <= 1.0:
        # Tiny geometry: fall back to a straight line.
        if full <= 1:
            return lo
        return lo + (hi - lo) * (distance_cylinders - 1) / (full - 1)
    if distance_cylinders <= knee:
        b = (mid - lo) / (math.sqrt(knee) - 1.0)
        return (lo - b) + b * math.sqrt(distance_cylinders)
    return mid + (hi - mid) * (distance_cylinders - knee) / (full - knee)


def service(
    lba: int,
    sectors: int,
    state: tuple[int, int, float, float],
    geometry: DiskGeometry,
    profile: SeekProfile,
    arrival_us: float,
    write: bool = False,
) -> tuple[float, tuple[int, int, float, float]]:
    """Serve one media access; returns (completion delay, new head state).

    The head state is ``(cylinder, head, angle_revs, time_us)``: the head's
    position and the platter's phase, in revolutions, at ``time_us``.  The
    delay composes seek, head-switch, rotational wait and transfer track by
    track.  The platter keeps rotating during seeks and switches, so with
    skews matched to the switch costs a sequential multi-track transfer
    incurs no extra revolution.  Each track is placed from the geometry's
    tables, built once with it.
    """

    if sectors <= 0:
        raise OutOfRange("sectors must be positive")
    starts = geometry._zone_starts
    if lba + sectors > starts[-1]:
        raise OutOfRange(f"range [{lba}, {lba + sectors}) beyond usable {starts[-1]} sectors")
    if lba < 0:
        raise OutOfRange(f"lba {lba} is negative")
    period = geometry.rotation_period_us
    heads = geometry.heads
    track_skew = geometry.track_skew_sectors
    cylinder_skew = geometry.cylinder_skew_sectors
    zones = geometry._zone_tracks
    t = float(arrival_us)
    # The head: its position, and the platter's phase at reference time ref.
    cylinder, head, angle, ref = state
    zone_idx = bisect_right(starts, lba) - 1
    zone_start = starts[zone_idx]
    first_cylinder, spt = zones[zone_idx]
    remaining = sectors
    while remaining > 0:
        if lba == starts[zone_idx + 1]:
            # The run continues into the next zone.
            zone_idx += 1
            zone_start = lba
            first_cylinder, spt = zones[zone_idx]
        track, logical = divmod(lba - zone_start, spt)
        run = min(remaining, spt - logical)
        # Tracks run cylinder-major; the skew of a track's logical sector 0
        # adds the track skew per head switch and the cylinder skew per step.
        cylinder_steps, to_head = divmod(track, heads)
        to_cylinder = first_cylinder + cylinder_steps
        if to_cylinder != cylinder:
            # Head selection settles within the arm move.
            t += seek_time(abs(to_cylinder - cylinder), profile, geometry.cylinders, write)
        elif to_head != head:
            t += profile.head_switch_us
        phys_start = (
            logical + (track - cylinder_steps) * track_skew + cylinder_steps * cylinder_skew
        ) % spt
        # The rotational wait; the phase does not depend on which track the
        # head is on.  A sector exactly under the head waits zero, not a
        # revolution: 1e-9 of a revolution, far below a sector, absorbs float
        # noise from the angle arithmetic.
        wait_revs = (phys_start / spt - (angle + (t - ref) / period) % 1.0) % 1.0
        if wait_revs > 1.0 - 1e-9:
            wait_revs = 0.0
        t += wait_revs * period
        t += run / spt * period
        cylinder, head = to_cylinder, to_head
        angle = ((phys_start + run) % spt) / spt
        ref = t
        lba += run
        remaining -= run
    return t - arrival_us, (cylinder, head, angle, ref)


def cylinder_of_byte(disk_byte_addr: int, geometry: DiskGeometry) -> int:
    """Cylinder holding the first sector of a byte address (clipped in range)."""

    starts = geometry._zone_starts
    lba = min(disk_byte_addr // SECTOR_BYTES, starts[-1] - 1)
    if lba < 0:
        raise OutOfRange(f"lba {lba} is negative")
    zone_idx = bisect_right(starts, lba) - 1
    first_cylinder, spt = geometry._zone_tracks[zone_idx]
    return first_cylinder + (lba - starts[zone_idx]) // spt // geometry.heads
