"""Seeded fuzz over the replay configuration space: liveness and conservation.

Each trial draws a drive profile, drive read prefetch and write policy, an
access mode, a scheduler policy, closed or open loop, a write share, and
either random 4 KB-aligned or sequential addresses, then replays one file's
stream of 96 requests.  Every replay must complete every request.  Closed
loop, every write reaches the media in issue order, so the media image must
equal the directly applied reference.  Open loop, overlapping writes in
flight together may reach the media in either order, so each sector's media
tag must be the trace's last write to that sector, or an earlier write whose
request completed after that last write was issued.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from iostack import (
    AccessMode,
    CanonicalRequest,
    Op,
    Origin,
    ReadPrefetch,
    ReplayMode,
    ReplayPolicy,
    StackConfig,
    StageId,
    WritePolicy,
    reference_media_image,
    replay,
)
from iostack.diskcache import HOST_READ, MediaMsg
from iostack.fscache import APP_DIRECT, FLUSH, FsCache, IoMsg
from iostack.profiles import PROFILES

from conftest import SEEDED_POLICIES

KB = 1024
MB = 1024 * KB
TRIALS = 100
REQUESTS = 96
SIZES = (4 * KB, 64 * KB, 96 * KB, 128 * KB, 256 * KB, 320 * KB, 384 * KB, 512 * KB)
#: Random addresses fall in this span, so writes overlap now and then.
SPAN = 32 * MB
MEAN_GAP_US = 2_000


def trial(seed: int) -> tuple[list[CanonicalRequest], StackConfig, ReplayPolicy]:
    rng = random.Random(seed)
    drive = PROFILES[rng.choice(sorted(PROFILES))]
    cache = dataclasses.replace(
        drive.cache,
        read_prefetch=rng.choice(list(ReadPrefetch)),
        write_policy=rng.choice(list(WritePolicy)),
    )
    stack = StackConfig(
        geometry=drive.geometry,
        seek=drive.seek,
        cache=cache,
        scheduler_policy=rng.choice(SEEDED_POLICIES),
    )
    mode = rng.choice(list(AccessMode))
    policy = ReplayPolicy(mode=rng.choice(list(ReplayMode)))
    sequential = rng.random() < 0.5
    write_share = rng.random()

    requests = [CanonicalRequest(0, Origin.APP, Op.OPEN, 0, 0, 0, 0, mode)]
    t = addr = 0
    for _ in range(REQUESTS):
        size = rng.choice(SIZES)
        if not sequential:
            addr = rng.randrange(SPAN // (4 * KB)) * 4 * KB
        op = Op.WRITE if rng.random() < write_share else Op.READ
        requests.append(CanonicalRequest(t, Origin.APP, op, 0, addr, size, addr, mode))
        if sequential:
            addr += size
        t += round(rng.expovariate(1 / MEAN_GAP_US))
    requests.append(CanonicalRequest(t, Origin.APP, Op.CLOSE, 0, 0, 0, 0, mode))
    return requests, stack, policy


def misplaced_runs(result, exact: bool = False):
    """Runs (lo, hi, media tag) whose tag no order of the writes in flight explains.

    A sector may hold its last write's tag or, unless ``exact``, the tag of
    an earlier write whose request completed after that last write was
    issued.  A sector the media never received comes with tag None.
    """

    records = result.records
    for start, end, last in reference_media_image(result.effective_requests).runs:
        held = start
        for lo, hi, tag in result.media_image.clip(start, end):
            if held < lo:
                yield held, lo, None
            held = hi
            if tag != last and (
                exact or not (tag < last and records[tag].complete_us > records[last].issue_us)
            ):
                yield lo, hi, tag
        if held < end:
            yield held, end, None


def misplaced_sectors(result) -> int:
    return sum(hi - lo for lo, hi, _ in misplaced_runs(result))


def check_trial(seed: int) -> None:
    requests, stack, policy = trial(seed)
    result = replay(requests, stack, policy)
    assert len(result.records) == len(result.effective_requests)
    if policy.mode is ReplayMode.CLOSED_LOOP:
        assert result.media_image == reference_media_image(result.effective_requests)
    else:
        assert misplaced_sectors(result) == 0


@pytest.mark.parametrize("seed", range(TRIALS))
def test_replay_completes_and_conserves_writes(seed):
    check_trial(seed)


#: The two ways seeds 0–1499 misplace a sector (ROADMAP item 1): the
#: scheduler serves an fs flush after a newer write to the same sector that
#: was queued after it, and that newer write is an app-direct write or a
#: later flush of the re-dirtied sector.  Each is (stale io, newer io).
FLUSH_BEHIND_DIRECT_WRITE = (FLUSH, APP_DIRECT)
FLUSH_BEHIND_FLUSH = (FLUSH, FLUSH)
#: The classes of each failing seed's misplaced sectors.
MISPLACING_SEEDS = {
    163: {FLUSH_BEHIND_DIRECT_WRITE},
    477: {FLUSH_BEHIND_FLUSH},
    646: {FLUSH_BEHIND_FLUSH},
    682: {FLUSH_BEHIND_DIRECT_WRITE, FLUSH_BEHIND_FLUSH},
    740: {FLUSH_BEHIND_DIRECT_WRITE},
    835: {FLUSH_BEHIND_FLUSH},
    1271: {FLUSH_BEHIND_FLUSH},
    1291: {FLUSH_BEHIND_FLUSH},
}


def misplacing_reorders(seed: int) -> set[tuple]:
    """The (stale io, newer io) purposes that explain each misplaced sector of a trial.

    A sector is explained when the last write io the scheduler served to it
    left its media tag, and a write io with a newer tag for it was queued
    after that one and served before it.  An unexplained sector fails.
    """

    requests, stack, policy = trial(seed)
    queued: dict[int, int] = {}
    served: list[IoMsg] = []

    def watch(event) -> None:
        io = event.payload
        if isinstance(io, IoMsg) and io.sector_tags and not io.done:
            if event.target is StageId.SCHEDULER:
                queued[io.io_id] = len(queued)
            elif event.target is StageId.DISK_CACHE:
                served.append(io)

    result = replay(requests, stack, policy, observe=watch)
    found = set()
    for lo, hi, tag in misplaced_runs(result, exact=policy.mode is ReplayMode.CLOSED_LOOP):
        for sector in range(lo, hi):
            writers = [(io, t) for io in served for a, b, t in io.sector_tags if a <= sector < b]
            stale, stale_tag = writers[-1]
            assert stale_tag == tag, f"sector {sector}: the media does not hold the last served write"
            newer = [
                io
                for io, t in writers[:-1]
                if t > tag and queued[io.io_id] > queued[stale.io_id]
            ]
            assert newer, f"sector {sector}: no newer write overtook the stale one"
            found |= {(stale.purpose, io.purpose) for io in newer}
    return found


@pytest.mark.parametrize("seed, classes", sorted(MISPLACING_SEEDS.items()))
def test_misplaced_sectors_fall_in_the_known_classes(seed, classes):
    # Passes vacuously once item 1 is fixed and no sector is misplaced.
    assert misplacing_reorders(seed) <= classes


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: a queued fs flush lands after a later direct write under LOOK",
)
def test_stale_flush_known_defect():
    # Closed loop, LOOK, a write-through drive and SEQUENTIAL access: the
    # in-order image is the oracle, and a stall would still fail the test.
    check_trial(740)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: a queued fs flush lands after a later direct write under C-LOOK",
)
def test_stale_flush_open_loop_known_defect():
    # Open loop under C-LOOK: 8 sectors end with a tag no order of the
    # writes in flight together explains.
    check_trial(163)


#: Open-loop seeds whose misplaced sectors are all flushes served after a
#: later flush of the same re-dirtied sectors: 104, 16, 24, 8 and 64.
FLUSH_BEHIND_FLUSH_SEEDS = (477, 646, 835, 1271, 1291)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: a queued fs flush lands after a later flush of the same "
    "re-dirtied sectors under LOOK or C-LOOK",
)
@pytest.mark.parametrize("seed", FLUSH_BEHIND_FLUSH_SEEDS)
def test_flush_behind_later_flush_known_defect(seed):
    check_trial(seed)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: queued fs flushes land after a later direct write and after "
    "a later flush of the same sectors under C-LOOK",
)
def test_flush_behind_direct_write_and_flush_known_defect():
    # Open loop: 88 sectors hold a flush served after a later app-direct
    # write, 32 a flush served after a later flush, so the direct-write rule
    # alone leaves it failing.
    check_trial(682)


def progressive_steps_started_early(seed: int, monkeypatch) -> list[list[int]]:
    """For each progressive write-back step of a trial that starts while an io
    of an earlier step is in flight, the ids of those ios.

    An io is in flight from its step until FS_CACHE receives its completion.
    """

    steps: list[list[IoMsg]] = []
    delivered: set[int] = set()
    early: list[list[int]] = []
    next_step = FsCache.next_progressive_flush

    def step(fs):
        ios = next_step(fs)
        if ios:
            busy = [io.io_id for s in steps for io in s if io.io_id not in delivered]
            if busy:
                early.append(busy)
            steps.append(ios)
        return ios

    def watch(event) -> None:
        io = event.payload
        if event.target is StageId.FS_CACHE and isinstance(io, IoMsg) and io.done:
            delivered.add(io.io_id)

    monkeypatch.setattr(FsCache, "next_progressive_flush", step)
    replay(*trial(seed), observe=watch)
    return early


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 11: every FLUSH io's completion ticks the progressive chain, "
    "so bulk-flush and multi-io step completions start extra steps",
)
@pytest.mark.parametrize("seed", (1, 37))
def test_progressive_write_back_runs_one_step_at_a_time(seed, monkeypatch):
    # Seed 1 peaks at 26 chain ios in flight together, seed 37 at 33.
    assert progressive_steps_started_early(seed, monkeypatch) == []


def host_read_sectors_in_flight(seed: int) -> list[int]:
    """For each HOST_READ media op of a trial that overlaps a media read in
    flight, the number of its sectors that read already covers.

    A media read is in flight from its ``media`` event at DISK until DISK_CACHE
    receives its ``media-done``.
    """

    inflight: dict[int, range] = {}
    overlaps: list[int] = []

    def watch(event) -> None:
        op = event.payload
        if not isinstance(op, MediaMsg) or op.write:
            return
        if event.target is StageId.DISK_CACHE:
            del inflight[op.media_id]
        else:
            sectors = range(op.lba, op.lba + op.sectors)
            if op.role is HOST_READ:
                covered = {s for r in inflight.values() for s in r if s in sectors}
                if covered:
                    overlaps.append(len(covered))
            inflight[op.media_id] = sectors

    replay(*trial(seed), observe=watch)
    return overlaps


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 8, Step 2b: a host run that a fill covers only in part is read "
    "whole, so the media reads the covered sectors twice",
)
@pytest.mark.parametrize("seed", (43, 76, 89))
def test_host_reads_skip_sectors_already_in_flight(seed):
    # Seed 43 reads 128 such sectors, seed 76 576 and seed 89 256.
    assert host_read_sectors_in_flight(seed) == []
