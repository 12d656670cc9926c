"""Pinned digests of the replay configuration matrix.

For each drive profile and access mode, one SHA-256 covers 40 replays of a
32-request stream: every drive write policy, each ``SEEDED_POLICIES`` entry
and every replay mode, over sequential addresses with the default fs cache
and over random addresses with a 512 KB fs cache, which evicts views on
nearly every miss.
Each replay adds its event-log text, request table, summary and media-image
runs; a replay that stalls raises.  Each replay runs once, observed: the
observer hashes each event as it is dispatched.  It also checks the drive's
traffic contract: the scheduler hands the drive one io at a time, the drive
cache holds back no io but that one, and it holds a read exactly while it
still needs media data.  It checks that each pending-work fact agrees with
its one owner, too: the fs requests waiting for a loading block, the drive's
queued writes, the ios in the scheduler queue and the media op the disk
serves.  The digests must not move unless the modelled behaviour changes on
purpose; a failure names the (profile, access mode) slice that moved.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import random
from collections import Counter
from itertools import chain
from unittest import mock

import pytest

from iostack import (
    AccessMode,
    CanonicalRequest,
    FsCacheConfig,
    Op,
    Origin,
    ReplayMode,
    ReplayPolicy,
    StackConfig,
    StageId,
    WritePolicy,
)
from iostack.profiles import PROFILES
from iostack.reports import format_request_table, format_summary

from conftest import SEEDED_POLICIES

KB = 1024
MB = 1024 * KB
REQUESTS = 32
SIZES = (4 * KB, 16 * KB, 64 * KB, 96 * KB, 128 * KB, 256 * KB, 320 * KB)
#: Random addresses fall in this span, so writes overlap now and then and
#: reads come back to blocks that are still dirty.
SPAN = 8 * MB
MEAN_GAP_US = 2_000
SMALL_FS = FsCacheConfig(cache_capacity_bytes=512 * KB)
REPLAY_MODULE = importlib.import_module("iostack.replay")


def stream(mode: AccessMode, sequential: bool) -> list[CanonicalRequest]:
    """One file's stream: half reads, half writes, of mixed sizes."""

    rng = random.Random(1)
    requests = [CanonicalRequest(0, Origin.APP, Op.OPEN, 0, 0, 0, 0, mode)]
    t = addr = 0
    for _ in range(REQUESTS):
        size = rng.choice(SIZES)
        if not sequential:
            addr = rng.randrange(SPAN // (4 * KB)) * 4 * KB
        op = Op.WRITE if rng.random() < 0.5 else Op.READ
        requests.append(CanonicalRequest(t, Origin.APP, op, 0, addr, size, addr, mode))
        if sequential:
            addr += size
        t += round(rng.expovariate(1 / MEAN_GAP_US))
    requests.append(CanonicalRequest(t, Origin.APP, Op.CLOSE, 0, 0, 0, 0, mode))
    return requests


def watched(stage: type) -> type:
    """``stage`` keeping its latest instance as ``current``, where the observer reads it."""

    class Watched(stage):
        current = None

        def __init__(self, *args) -> None:
            super().__init__(*args)
            Watched.current = self

    return Watched


WatchedFsStage = watched(REPLAY_MODULE.FsStage)
WatchedScheduler = watched(REPLAY_MODULE.SchedulerStage)
WatchedDriveCache = watched(REPLAY_MODULE.DiskCacheStage)
WatchedDisk = watched(REPLAY_MODULE.DiskStage)


def observer(log):
    """Hash each event into ``log``, checking the drive's traffic contract.

    Between an io's DISK_CACHE ``io`` event and its SCHEDULER ``io-done``, no
    other io reaches DISK_CACHE.  At every event the io the drive cache holds
    is the scheduler's in-flight io, and it is a read if and only if the cache
    still awaits media data for it.  Every request waiting for a loading
    fs block is pending and still awaits at least those blocks, a shut
    write-through gate names a pending request, and no request is deferred
    while the gate is open; each segment counts its queued writes, and a
    queued write's segment is dirty.  The scheduler queue holds the very ios
    that have reached SCHEDULER and not yet DISK_CACHE, but for the one it
    has just handed on, and each ``media-finish`` is the op at the head of
    the disk's FIFO.
    """

    at_drive = []
    #: io id -> the ios handled at SCHEDULER and not yet dispatched at DISK_CACHE.
    at_scheduler = {}

    def observe(event) -> None:
        log.update(f"{event.describe()}\n".encode())
        # The previous event's handler has run; this one's has not.
        sched = WatchedScheduler.current
        handed_on = sched.inflight.io_id if sched.inflight is not None else None
        queued = {m.io_id: m for m in sched.queue}
        assert len(queued) == len(sched.queue), event.describe()
        expected = {i: m for i, m in at_scheduler.items() if i != handed_on}
        assert queued.keys() == expected.keys(), event.describe()
        assert all(m is expected[i] for i, m in queued.items()), event.describe()
        stage = WatchedDriveCache.current
        held = stage.cache.held
        assert held is None or held is sched.inflight, event.describe()
        assert (held is not None and not held.write) == bool(stage.cache.awaited), event.describe()
        fs = WatchedFsStage.current.fs
        waits = Counter(chain.from_iterable(fs.inflight.values()))
        for rid, blocks in waits.items():
            assert fs.pending[rid].awaited >= blocks, event.describe()
        assert fs.wt_gate is None or fs.wt_gate in fs.pending, event.describe()
        assert fs.wt_gate is not None or not fs.deferred, event.describe()
        writes = stage.cache.writes
        assert sum(s.pending_writes for s in stage.cache.segments) == len(writes)
        assert all(seg.dirty for seg, *_ in writes), event.describe()
        kind = event.payload.kind
        if kind == "io" and event.target is StageId.SCHEDULER:
            at_scheduler[event.payload.io_id] = event.payload
        elif kind == "io" and event.target is StageId.DISK_CACHE:
            assert not at_drive, f"{event.describe()} while io {at_drive} is at the drive"
            at_drive.append(event.payload.io_id)
            del at_scheduler[event.payload.io_id]
        elif kind == "media-finish":
            assert WatchedDisk.current.queue[0] is event.payload, event.describe()
        elif kind == "io-done" and event.target is StageId.SCHEDULER:
            assert at_drive == [event.payload.io_id], event.describe()
            at_drive.clear()

    return observe


def slice_digest(profile: str, mode: AccessMode) -> str:
    drive = PROFILES[profile]
    digest = hashlib.sha256()
    for sequential in (True, False):
        requests = stream(mode, sequential)
        fs = FsCacheConfig() if sequential else SMALL_FS
        for write_policy in WritePolicy:
            cache = dataclasses.replace(drive.cache, write_policy=write_policy)
            for scheduler in SEEDED_POLICIES:
                stack = StackConfig(drive.geometry, drive.seek, fs, cache, scheduler)
                for replay_mode in ReplayMode:
                    log = hashlib.sha256()
                    with (
                        mock.patch.object(REPLAY_MODULE, "FsStage", WatchedFsStage),
                        mock.patch.object(REPLAY_MODULE, "SchedulerStage", WatchedScheduler),
                        mock.patch.object(REPLAY_MODULE, "DiskCacheStage", WatchedDriveCache),
                        mock.patch.object(REPLAY_MODULE, "DiskStage", WatchedDisk),
                    ):
                        result = REPLAY_MODULE.replay(
                            requests,
                            stack,
                            ReplayPolicy(mode=replay_mode),
                            observer(log),
                        )
                    for text in (
                        log.hexdigest(),
                        format_request_table(result.records),
                        format_summary(result.summary),
                        repr(result.media_image.runs),
                    ):
                        digest.update(text.encode())
    return digest.hexdigest()


#: (profile, access mode) -> SHA-256 of its 40 replays.
MATRIX_SHA256 = {
    ('fujitsu_man3184mp', AccessMode.NORMAL): '94cadca5c065b895123b23d621caf47b01b10eab64f713a4cdff02741e56002f',
    ('fujitsu_man3184mp', AccessMode.SEQUENTIAL): '47bfc436e4169eecd38981ba4df473a14e33ca83872c66f8b8694894205cb9d9',
    ('fujitsu_man3184mp', AccessMode.NO_BUFFER): 'ade58632e2cb1555cd9954fff1880b2b82b03d5896f3c15b428554df6d71d871',
    ('fujitsu_man3184mp', AccessMode.WRITE_THROUGH): '790df9cfabd890e280191b86cfc683fe7476cd36179f3b76731250d02dfd0979',
    ('hitachi_travelstar_80gn', AccessMode.NORMAL): '818563536b7b77c17a4eec33203e0409dc41f0c65d62764f8eaac8cd1cc8e0bf',
    ('hitachi_travelstar_80gn', AccessMode.SEQUENTIAL): '512d2c1f9592b5b3d1bad728a0365bb253eecac0eee79da1a7a16faf2f64c6b2',
    ('hitachi_travelstar_80gn', AccessMode.NO_BUFFER): '02b06e72468ada4162b373f2e3bc738c114751e65d78525c243502124a02c7ea',
    ('hitachi_travelstar_80gn', AccessMode.WRITE_THROUGH): '033ac82da91ed330d886a44dbada8ac35b24b79fb2947f9e26aaaa699c2674eb',
    ('toshiba_mk6012map', AccessMode.NORMAL): 'cfdc50a44f3a2876e878588b5fea4ca01b11cce4fc48e84fc6f62a4cc03abc08',
    ('toshiba_mk6012map', AccessMode.SEQUENTIAL): '2bac1d31765af4a50b9fde9f4a0e59e0417934871d42b4dae369b41ee7e2a8d1',
    ('toshiba_mk6012map', AccessMode.NO_BUFFER): '60e79172a315c1900a425e7282aac8cfb57f73433426a69acabe50173bb10047',
    ('toshiba_mk6012map', AccessMode.WRITE_THROUGH): '6996c9eb73d7fd7a3f62be02e411ebbb34e746e9d117af5c12dc4de60232778c',
}


@pytest.mark.parametrize("profile, mode", sorted(MATRIX_SHA256, key=str))
def test_matrix_slice_pinned(profile, mode):
    assert slice_digest(profile, mode) == MATRIX_SHA256[profile, mode]
