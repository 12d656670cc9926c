"""Golden event logs: pinned SHA-256 of three full-stack replays.

The determinism tests compare two runs of the same code, so they cannot see
a change to the log text itself.  These hashes were taken before the message
protocol was reworked and must not move unless the log format or the
modelled behaviour changes on purpose.  Together the three replays reach
every event kind and every drive-cache media role, so a change to any of
them shows up here.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from iostack import AccessMode, ReplayPolicy, StackConfig, WritePolicy, replay
from iostack.profiles import FUJITSU_MAN3184MP
from iostack.workload import DistSpec, GeneratorSpec, aligned_choices, generate

KB = 1024
MB = 1024 * KB
COUNT = 256
SEED = 1

EVENT_KINDS = {
    "request",
    "request-done",
    "io",
    "io-done",
    "media",
    "media-finish",
    "media-done",
    "flush-tick",
    "drain",
}
MEDIA_ROLES = {"host-read", "local-prefetch", "fill-chunk", "host-write", "destage"}


def sequential_reads():
    return generate(
        GeneratorSpec(
            count=COUNT,
            seed=SEED,
            mode=AccessMode.NORMAL,
            size_bytes=DistSpec.choice([64 * KB, 128 * KB, 256 * KB, 512 * KB]),
        )
    )


def mixed_read_write():
    return generate(
        GeneratorSpec(
            count=COUNT,
            seed=SEED,
            mode=AccessMode.NORMAL,
            size_bytes=DistSpec.choice([64 * KB, 256 * KB, 384 * KB]),
            read_weight=0.7,
            write_weight=0.3,
            address=aligned_choices(512 * MB, 64 * KB),
        )
    )


def stack(write_policy: WritePolicy) -> StackConfig:
    drive = FUJITSU_MAN3184MP
    cache = dataclasses.replace(drive.cache, write_policy=write_policy)
    return StackConfig(geometry=drive.geometry, seek=drive.seek, cache=cache)


SCENARIOS = {
    "sequential_read_write_back": (
        sequential_reads,
        WritePolicy.WRITE_BACK,
        "2c107fec2b8652641af7a27fbc1154d7518033e8415e7c20db1737bda6082cd7",
    ),
    "mixed_write_back": (
        mixed_read_write,
        WritePolicy.WRITE_BACK,
        "d27046e2dc67f6681fedc8ef4e95e1f4fedff018979ff7a7236fbf5ca462b64a",
    ),
    "mixed_write_through": (
        mixed_read_write,
        WritePolicy.WRITE_THROUGH,
        "565ddcc32a44b05b2bb48fa52c9290799fc08a4fc91a8c803351fd3644806c51",
    ),
}


def run(name: str):
    make, write_policy, _ = SCENARIOS[name]
    return replay(make(), stack(write_policy), ReplayPolicy())


def media_role(payload) -> str:
    """The drive-cache role of a media op, read off its logged fields."""

    if payload.write:
        return "destage" if payload.purpose == "destage" else "host-write"
    return "host-read" if payload.purpose == "host-fill" else payload.purpose


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_event_log_hash_pinned(name):
    result = run(name)
    assert len(result.records) == len(result.effective_requests)
    digest = hashlib.sha256(result.event_log.to_text().encode()).hexdigest()
    assert digest == SCENARIOS[name][2]


def test_scenarios_cover_every_kind_and_media_role():
    kinds: set[str] = set()
    roles: set[str] = set()
    for name in SCENARIOS:
        for e in run(name).event_log.entries:
            kinds.add(e.payload.kind)
            if e.payload.kind == "media":
                roles.add(media_role(e.payload))
    assert kinds == EVENT_KINDS
    assert roles == MEDIA_ROLES
