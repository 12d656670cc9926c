"""Golden event logs and reports: pinned SHA-256 of ten full-stack replays.

The determinism tests compare two runs of the same code, so they cannot see
a change to the log or report text itself.  These hashes must not move unless the log
format or the modelled behaviour changes on purpose.  Together the replays
reach every event kind, every drive-cache media role and every fs-cache io
purpose, and they run the SEQUENTIAL, NO_BUFFER and WRITE_THROUGH access
modes, open loop, the elevator policies and a second drive profile, so a
change to any of those paths shows up here.  Three saturated open-loop
replays, one per scheduler policy, hold close to a thousand requests in the
scheduler queue at once, so the queue order under deep queues is pinned too.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from iostack import (
    AccessMode,
    Policy,
    ReplayMode,
    ReplayPolicy,
    StackConfig,
    WritePolicy,
)
from iostack.fscache import Purpose
from iostack.profiles import FUJITSU_MAN3184MP, TOSHIBA_MK6012MAP
from iostack.reports import format_request_table, format_summary
from iostack.workload import DistSpec, GeneratorSpec, aligned_choices, generate

from conftest import observed

KB = 1024
MB = 1024 * KB
GB = 1024 * MB
COUNT = 256
SEED = 1

EVENT_KINDS = {
    "request",
    "request-done",
    "io",
    "io-done",
    "media",
    "media-done",
    "flush-tick",
    "drain",
}
MEDIA_ROLES = {"host-read", "local-prefetch", "fill-chunk", "host-write", "destage"}
IO_PURPOSES = set(Purpose)


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


def sequential_mode_reads():
    return generate(
        GeneratorSpec(
            count=COUNT,
            seed=SEED,
            mode=AccessMode.SEQUENTIAL,
            size_bytes=DistSpec.choice([64 * KB, 96 * KB, 128 * KB]),
        )
    )


def no_buffer_random():
    return generate(
        GeneratorSpec(
            count=COUNT,
            seed=SEED,
            mode=AccessMode.NO_BUFFER,
            inter_arrival_us=DistSpec.exponential(200),
            size_bytes=DistSpec.choice([4 * KB, 64 * KB]),
            read_weight=0.7,
            write_weight=0.3,
            address=aligned_choices(1 * GB, 4 * KB),
        )
    )


def write_through_mix():
    return generate(
        GeneratorSpec(
            count=COUNT,
            seed=SEED,
            mode=AccessMode.WRITE_THROUGH,
            inter_arrival_us=DistSpec.exponential(2000),
            size_bytes=DistSpec.choice([64 * KB, 96 * KB, 256 * KB]),
            read_weight=0.5,
            write_weight=0.5,
            address=aligned_choices(64 * MB, 64 * KB),
        )
    )


def saturated_random_reads():
    """64 KB reads arriving faster than the disk serves them: depth ~1000."""

    return generate(
        GeneratorSpec(
            count=4 * COUNT,
            seed=SEED,
            mode=AccessMode.NO_BUFFER,
            inter_arrival_us=DistSpec.exponential(200),
            size_bytes=DistSpec.constant(64 * KB),
            address=aligned_choices(8 * GB, 64 * KB),
        )
    )


def stack(
    write_policy: WritePolicy = WritePolicy.WRITE_BACK,
    scheduler: Policy = Policy.FCFS,
    drive=FUJITSU_MAN3184MP,
) -> StackConfig:
    cache = dataclasses.replace(drive.cache, write_policy=write_policy)
    return StackConfig(
        geometry=drive.geometry, seek=drive.seek, cache=cache, scheduler_policy=scheduler
    )


CLOSED = ReplayPolicy()
OPEN = ReplayPolicy(mode=ReplayMode.OPEN_LOOP_TIMED)

#: name -> (request stream, stack, replay policy, event-log SHA-256)
SCENARIOS = {
    "sequential_read_write_back": (
        sequential_reads,
        stack(WritePolicy.WRITE_BACK),
        CLOSED,
        "d8a1ed3cb1bc765a43a9d3577bd2fd0106645de09a4bc8af6e052adfafe29bc9",
    ),
    "mixed_write_back": (
        mixed_read_write,
        stack(WritePolicy.WRITE_BACK),
        CLOSED,
        "d5603593574c8082e27ffb0bd82ea75c74717d44df2c6a6aa6339685649c898a",
    ),
    "mixed_write_through": (
        mixed_read_write,
        stack(WritePolicy.WRITE_THROUGH),
        CLOSED,
        "9f4e7233815cd37da66f1abca3dba5c05b5de3f6b0bb1e19032b339aba39761f",
    ),
    "sequential_mode_fcfs": (
        sequential_mode_reads,
        stack(scheduler=Policy.FCFS),
        CLOSED,
        "3a0bab2a5c19b3600358007666dad9c2d57678c028a63ad9d1e16536154777ac",
    ),
    "no_buffer_open_look": (
        no_buffer_random,
        stack(scheduler=Policy.LOOK),
        OPEN,
        "e2fd559f1ee12bf0de8e4550ea5b12baa246c5855df0508e3c002f69b1592b37",
    ),
    "write_through_mode_open_look": (
        write_through_mix,
        stack(scheduler=Policy.LOOK),
        OPEN,
        "7ebe2b74a95fdeb018152a195d321820c4bdc1f67b3bfdb69e434255f9df1b77",
    ),
    "toshiba_sequential_read": (
        sequential_reads,
        stack(drive=TOSHIBA_MK6012MAP),
        CLOSED,
        "1e7b175a45dacbfb2a568124df9a689f738961df4c4bddef68d36ef584939270",
    ),
    "saturated_open_c_look": (
        saturated_random_reads,
        stack(scheduler=Policy.C_LOOK),
        OPEN,
        "e5a2122f967b8394a6d2b3cce955148f8bb8f2af47d29f9c8dc2cce753f337cd",
    ),
    "saturated_open_look": (
        saturated_random_reads,
        stack(scheduler=Policy.LOOK),
        OPEN,
        "a7e9be131a2d12d053a1235862a4a2b7f65e7c7d807d1dd458b634baee7de299",
    ),
    "saturated_open_fcfs": (
        saturated_random_reads,
        stack(scheduler=Policy.FCFS),
        OPEN,
        "a573e1e9299ddc62c6b70f4376c3db639b3376d7b4dc92ea4467291312ec8924",
    ),
}


#: name -> SHA-256 of (format_request_table(records), format_summary(summary))
REPORT_SHA256 = {
    "mixed_write_back": (
        "a6d40e5fa6958005bd37e2a2ecb0acab3f555f2ecbf7e1acd569ea3353789791",
        "564973a19b54b23812b4a0f8e9c2a03343244c765bdcb359b08ce900912bc805",
    ),
    "mixed_write_through": (
        "8087ddf81c801ba328f730b737d2df11ef86bcb77bdf399168771495036d072a",
        "1910207b3004ab0712689dd23115568f733a1fab154450b8d988b6b57dae820d",
    ),
    "no_buffer_open_look": (
        "ea060299a97846200fc46bedd32f8414480fbea4c0d3f0b652915efd06603b98",
        "5bd04be5fe3c7a0b4c25e24c37672a5564c2e849b6e125b68be94a4392f4fcf8",
    ),
    "saturated_open_c_look": (
        "e2083c51602af1bd734cf8e99b6ea1bf92544ce3a8fa2b732abf280755393d5d",
        "09e15c0ddb578c8d9193c57c4ad7033faf51be724be3f089e7ceaf5b0683dfeb",
    ),
    "saturated_open_fcfs": (
        "d449928141e193124642bdcf6c6e13ad4db15fbf081cc8204110b38bd5324eaa",
        "99552d349c5b451dc14aa723678c576b420fe798bed9391eb107087bc039df54",
    ),
    "saturated_open_look": (
        "8c9b114c17abd9d62a106bc938f43021041ff0e62b9c54278e40ab9de2750b9d",
        "c76c3b4673817eca498f269da4c7c86d954023353449c72e50ed849392b35cd6",
    ),
    "sequential_mode_fcfs": (
        "2d825b50d46eedb2c6ed4054ffa8f72947de6aff0227880daf1439cff02aa923",
        "8d7c9af414178b4d0731c2b086c7a861d931ffb5b1a54fcab2d09832fed292f4",
    ),
    "sequential_read_write_back": (
        "81ea379626c0f5e0a24f4c87ac6d5db6b142893fa599496ab7e0971544c40076",
        "5cc7d6a60e555497348aa64764591e47b79280f24133d99d656081534d06f83f",
    ),
    "toshiba_sequential_read": (
        "1a6615e5fe017dee3945e0adb1d771bdd5cdfe965deb677f7f02c23b000df3cc",
        "b0cfbfefa841562a9ede3356da225dd9b27dde71cd95c48d8bba8192eea04d03",
    ),
    "write_through_mode_open_look": (
        "e7b88aa27220c5cc54e719563eca454fcc955fa667325543d204a00d9474ba49",
        "3914c5d8d7ce42a5d9c10feebbd5e726b0ff2fd3f802fa6784f24f6e0923a505",
    ),
}


def run(name: str):
    """``(result, events)`` of one observed replay of scenario ``name``."""

    make, stack_config, policy, _ = SCENARIOS[name]
    return observed(make(), stack_config, policy)


def log_text(events) -> str:
    """The ``events.log`` body of ``events``: one ``describe()`` line each."""

    return "".join(e.describe() + "\n" for e in events)


def media_role(payload) -> str:
    """The drive-cache role of a media op, read off its logged fields."""

    if payload.write:
        return "destage" if payload.purpose == "destage" else "host-write"
    return "host-read" if payload.purpose == "host-fill" else payload.purpose


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_event_log_hash_pinned(name):
    result, events = run(name)
    assert len(result.records) == len(result.effective_requests)
    # The reports first: a re-pinned log hash cannot hide a report change.
    reports = (format_request_table(result.records), format_summary(result.summary))
    assert tuple(hashlib.sha256(text.encode()).hexdigest() for text in reports) == (
        REPORT_SHA256[name]
    )
    digest = hashlib.sha256(log_text(events).encode()).hexdigest()
    assert digest == SCENARIOS[name][3]
    # The count the result keeps is the number of events the run dispatched.
    assert len(result.event_log) == len(events)


def test_scenarios_cover_every_kind_and_media_role():
    kinds: set[str] = set()
    roles: set[str] = set()
    purposes: set[Purpose] = set()
    for name in SCENARIOS:
        for e in run(name)[1]:
            kinds.add(e.payload.kind)
            if e.payload.kind == "media":
                roles.add(media_role(e.payload))
            elif e.payload.kind == "io":
                purposes.add(e.payload.purpose)
    assert kinds == EVENT_KINDS
    assert roles == MEDIA_ROLES
    assert purposes == IO_PURPOSES


def test_event_log_text_is_the_observed_log():
    """``to_text()``, which the benchmark hashes, re-runs to the observed log, byte for byte."""

    result, events = run("mixed_write_back")
    text = result.event_log.to_text()
    assert text == log_text(events)
    assert hashlib.sha256(text.encode()).hexdigest() == SCENARIOS["mixed_write_back"][3]
