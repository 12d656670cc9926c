"""The stack characterizes its own drive cache, as a drive is characterized.

On-line extraction (Worthington, Ganger, Patt & Wilkes, SIGMETRICS 1995;
DIXtrac, Schindler & Ganger, CMU-CS-99-176) reads a drive's parameters off
the timing of crafted requests.  The extractors here see only what such an
experiment sees: the requests handed to ``replay`` and the latencies of the
``RequestRecord``s it returns, with the file-system cache, the scheduler and
the drive cache all in the path.  Each checks the result against the
profile the stack declares.

The probes are NO_BUFFER 4 KB reads 64 MB apart: far enough that no two
share a segment and that no prefetch rule (sequential fill-ahead or the
local pattern) fires.  A read is a drive-cache hit when its latency is under
a tenth of a revolution; a miss pays a seek and rotation.  The rotation
period comes from back-to-back NO_BUFFER 4 KB writes to one address on a
write-through drive: each waits for the media, so the next finds its
sectors just passed and waits a whole revolution.
"""

from __future__ import annotations

import dataclasses
import statistics

import pytest

from iostack import AccessMode, Op, ReadPrefetch, ReplayPolicy, StackConfig, WritePolicy, replay
from iostack.profiles import PROFILES

from test_replay import request

MB = 1024 * 1024
#: The distance between two probe blocks.
STRIDE = 64 * MB
PROBE_BYTES = 4096

#: Each profile with prefetch off, and with the drive's own prefetch (None).
DRIVES = [(name, prefetch) for name in sorted(PROFILES) for prefetch in (ReadPrefetch.NONE, None)]


def hits(profile: str, prefetch: ReadPrefetch | None, blocks: list[int]) -> str:
    """``H`` for each probe read of ``blocks`` (indexes of STRIDE) that hits, ``m`` for each miss.

    The reads run closed loop in one NO_BUFFER session on the profile's
    drive, its prefetch replaced by ``prefetch`` unless that is None.
    """

    drive = PROFILES[profile]
    cache = drive.cache if prefetch is None else dataclasses.replace(drive.cache, read_prefetch=prefetch)
    records = session(profile, cache, [(Op.READ, b * STRIDE) for b in blocks])
    tenth_revolution_us = 60e6 / drive.geometry.rpm / 10
    return "".join("H" if r.latency_us < tenth_revolution_us else "m" for r in records)


def session(profile: str, cache, ios: list[tuple[Op, int]]) -> list:
    """The records of ``PROBE_BYTES`` ios ``(op, addr)``, run closed loop in one
    NO_BUFFER session on the profile's drive with drive cache ``cache``.
    """

    drive = PROFILES[profile]
    mode = AccessMode.NO_BUFFER
    probes = [request(op, addr, PROBE_BYTES, mode) for op, addr in ios]
    requests = [request(Op.OPEN, 0, 0, mode), *probes, request(Op.CLOSE, 0, 0, mode)]
    result = replay(requests, StackConfig(drive.geometry, drive.seek, cache=cache), ReplayPolicy())
    records = [r for r in result.records if r.op is not Op.OPEN and r.op is not Op.CLOSE]
    assert len(records) == len(ios)
    return records


@pytest.mark.parametrize("profile, prefetch", DRIVES)
def test_segment_count(profile, prefetch):
    # Read k blocks, then re-read them in order: all k stay cached while k
    # is at most the segment count; at one more, LRU evicts each block just
    # before its re-read, so none hits.
    n = PROFILES[profile].cache.segment_count
    for k, reread in ((n - 1, "H"), (n, "H"), (n + 1, "m")):
        blocks = list(range(k))
        assert hits(profile, prefetch, blocks + blocks) == "m" * k + reread * k, k


@pytest.mark.parametrize("profile, prefetch", DRIVES)
def test_replacement_is_lru_by_last_touch(profile, prefetch):
    # With every segment full, a hit on block 0 makes block 1 the least
    # recently touched: the read of block n evicts it, not block 0.
    n = PROFILES[profile].cache.segment_count
    blocks = list(range(n)) + [0, n, 0, 1]
    assert hits(profile, prefetch, blocks)[n:] == "HmHm"


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_rotation_period(profile):
    # The median gap between completions is one revolution.
    drive = PROFILES[profile]
    cache = dataclasses.replace(
        drive.cache, read_prefetch=ReadPrefetch.NONE, write_policy=WritePolicy.WRITE_THROUGH
    )
    done = [r.complete_us for r in session(profile, cache, [(Op.WRITE, STRIDE)] * 50)]
    gap_us = statistics.median(b - a for a, b in zip(done, done[1:]))
    assert gap_us == round(60e6 / drive.geometry.rpm)
