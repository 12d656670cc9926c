"""Pinned digests of the replay configuration matrix.

For each drive profile and access mode, two SHA-256 digests cover 40 replays
of a 32-request stream: every drive write policy, each ``SEEDED_POLICIES``
entry and every replay mode, over sequential addresses with the default fs
cache and over random addresses with a 512 KB fs cache, which evicts views on
nearly every miss.  Each replay adds the hash of its event-log text to the
log digest, and its request table, summary and media-image runs to the
report digest, so a change to the log format leaves the report digest
standing; a replay that stalls raises.  Each replay runs once, observed: the
observer hashes each event as it is dispatched.  It also checks the drive's
traffic contract: the scheduler hands the drive one io at a time, the drive
cache holds back no io but that one, and it holds a read exactly while it
still needs media data.  It checks that each pending-work fact agrees with
its one owner, too: the fs requests waiting for a loading block, the drive's
queued writes, the ios in the scheduler queue and the finish the disk sets
for each media op.  The digests must not move unless the modelled behaviour
or the log format changes on purpose; a failure names the (profile, access
mode) slice that moved, and the report digest is checked first.
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
    has just handed on.  Media ops come back to DISK_CACHE in increasing id
    order, each at the ``free_at`` the disk set when it handled the op's
    ``media`` event.
    """

    at_drive = []
    #: io id -> the ios handled at SCHEDULER and not yet dispatched at DISK_CACHE.
    at_scheduler = {}
    #: media id -> the finish the disk set for it.
    finish_at = {}
    #: The media op of the last event dispatched, if it went to DISK.
    taken = None
    last_done = 0

    def observe(event) -> None:
        nonlocal taken, last_done
        log.update(f"{event.describe()}\n".encode())
        # The previous event's handler has run; this one's has not.
        if taken is not None:
            finish_at[taken] = WatchedDisk.current.free_at
            taken = None
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
        elif kind == "media":
            taken = event.payload.media_id
        elif kind == "media-done":
            assert event.payload.media_id > last_done, event.describe()
            assert event.fire_at_us == finish_at.pop(event.payload.media_id), event.describe()
            last_done = event.payload.media_id
        elif kind == "io-done" and event.target is StageId.SCHEDULER:
            assert at_drive == [event.payload.io_id], event.describe()
            at_drive.clear()

    return observe


def slice_digests(profile: str, mode: AccessMode) -> tuple[str, str]:
    """(log digest, report digest) of the slice's 40 replays."""

    drive = PROFILES[profile]
    logs, reports = hashlib.sha256(), hashlib.sha256()
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
                    logs.update(log.hexdigest().encode())
                    for text in (
                        format_request_table(result.records),
                        format_summary(result.summary),
                        repr(result.media_image.runs),
                    ):
                        reports.update(text.encode())
    return logs.hexdigest(), reports.hexdigest()


#: (profile, access mode) -> SHA-256 of its 40 replays' event-log hashes.
MATRIX_LOG_SHA256 = {
    ('fujitsu_man3184mp', AccessMode.NORMAL): '5e48b8829ec80e41ac2d17fa92c7e8be64179e5eacce64917a3ff31aa481460b',
    ('fujitsu_man3184mp', AccessMode.SEQUENTIAL): '5d94c7bec39444b1acb2970fe3119914003b42bad54a6e457330f34f080c54d5',
    ('fujitsu_man3184mp', AccessMode.NO_BUFFER): 'e34d58709661ae0945160c2c4f8e3ca6e0a420b7e8fadbd15be928cc680da165',
    ('fujitsu_man3184mp', AccessMode.WRITE_THROUGH): '917b8df6445e49e602ccd41063641cf27fdd5d1da769ddef151fe7969165db42',
    ('hitachi_travelstar_80gn', AccessMode.NORMAL): '75aab7cf49b1cafc0f904a08ca2b644640d7483c4a6592780fd34d3791ea97e1',
    ('hitachi_travelstar_80gn', AccessMode.SEQUENTIAL): '064f5dc4c257789d517627153d0ca2ff535bb5813b4f2ba6ed545a4524447e78',
    ('hitachi_travelstar_80gn', AccessMode.NO_BUFFER): 'f42c39da9165b7e12fa3a2ac4082a6ad504c4328f88c3f18881558d637fb7b40',
    ('hitachi_travelstar_80gn', AccessMode.WRITE_THROUGH): '9351f9995d2fcf72919bb049066c3cce8faff6dba7609f82fd17e06694642c56',
    ('toshiba_mk6012map', AccessMode.NORMAL): '1d72cb13327a8a73bc917162ac5270ef3debffc863a0312134e4a84bf56547d8',
    ('toshiba_mk6012map', AccessMode.SEQUENTIAL): 'fe7ceabcab2f726189c94e632238cfddbb55c241c6068b684ab88ee668bf512f',
    ('toshiba_mk6012map', AccessMode.NO_BUFFER): 'a6e0a3ac9f5a62b9ab759f14c46be03f86ab45f62894905c86c7989c0c72e2d6',
    ('toshiba_mk6012map', AccessMode.WRITE_THROUGH): '66fbcb78fc21f8c004238e0f93884455fe20779745c9abd41e793b42f386361f',
}

#: (profile, access mode) -> SHA-256 of its 40 replays' reports and media images.
MATRIX_REPORT_SHA256 = {
    ('fujitsu_man3184mp', AccessMode.NORMAL): 'a939ca881a648784cfed6feeab24b62f0f0bf30613c09d3a8b7e1d71724d6333',
    ('fujitsu_man3184mp', AccessMode.SEQUENTIAL): '746f1108652a787ef14fe70de85ed3f7985b9e05455240e45f1c06d46323a80a',
    ('fujitsu_man3184mp', AccessMode.NO_BUFFER): '4831c5d4125727a0cd2206b35d335ca89088650147f566e923cb6d70b6a7c99d',
    ('fujitsu_man3184mp', AccessMode.WRITE_THROUGH): '2ba88b4868ac7b5a159a1392feba33c08f00b1f742429924782b52b22f4f83f5',
    ('hitachi_travelstar_80gn', AccessMode.NORMAL): '0c13d3e86431f9165ab0fd6bf7ac801f597df96866b72a97dced978f720dae7a',
    ('hitachi_travelstar_80gn', AccessMode.SEQUENTIAL): 'ee278babd3d71ab1b2b0b236a03fa898806e34563cecb7214df3d4de7e8ae176',
    ('hitachi_travelstar_80gn', AccessMode.NO_BUFFER): '6f69d30e4ca61fdb9f2c1d74ce7f3062d41062a47193dd86add316f9ca114c06',
    ('hitachi_travelstar_80gn', AccessMode.WRITE_THROUGH): 'dd190804814e2aa0f65ea382fcaf0804718f19085f5d3967ddac806f776fddc7',
    ('toshiba_mk6012map', AccessMode.NORMAL): '6d63ced152ff0105761a0b438f1d644f29b0165c40c199e3649a30468119789a',
    ('toshiba_mk6012map', AccessMode.SEQUENTIAL): '917cdaea496426e9ab9b7406908c9348201113a23ede634fb7364ae32fd86fdf',
    ('toshiba_mk6012map', AccessMode.NO_BUFFER): '529670db7d303def3a09b2b7ac5fbff885e7fc96e95a2fa3cd90da87a7764d55',
    ('toshiba_mk6012map', AccessMode.WRITE_THROUGH): 'a3236c9c9cb4bcd7c0d6f3c824ee2a94c506ad974aaa2fc17a0267791c0b6c6a',
}


@pytest.mark.parametrize("profile, mode", sorted(MATRIX_REPORT_SHA256, key=str))
def test_matrix_slice_pinned(profile, mode):
    logs, reports = slice_digests(profile, mode)
    assert reports == MATRIX_REPORT_SHA256[profile, mode]
    assert logs == MATRIX_LOG_SHA256[profile, mode]
