"""The three replay workloads: trace generation and stack configuration.

Every workload runs on the Fujitsu MAN3184MP profile (the drive with the
512 KB local-prefetch quirk) and every replay starts with all caches empty,
because ``replay()`` builds fresh cache state each time.  Traces are made
with ``iostack.workload.generate`` from the benchmark seed alone, so one seed
always gives the same trace; a shorter trace of the same seed is an exact
prefix of the longer one.
"""

from __future__ import annotations

from iostack import (
    AccessMode,
    CanonicalRequest,
    Policy,
    ReplayMode,
    ReplayPolicy,
    StackConfig,
)
from iostack.profiles import FUJITSU_MAN3184MP
from iostack.workload import DistSpec, GeneratorSpec, aligned_choices, generate

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

#: Requests per full-length trace.  Host load comes in spells of seconds, so
#: a run needs many replays short enough to fall between them: this many
#: take one to three seconds, and p99 latency keeps ~20 samples beyond it.
FULL_REQUESTS = 2048
#: Requests per trace in smoke mode, which only checks that the harness runs.
SMOKE_REQUESTS = 256
#: Simultaneous requests per burst and simulated gap between bursts.
BURST_SIZE = 128
BURST_GAP_US = 768_000

WORKLOADS = ("buffered_read", "mixed_rw", "burst_random")


def stack_config(workload: str) -> StackConfig:
    drive = FUJITSU_MAN3184MP
    policy = Policy.LOOK if workload == "burst_random" else Policy.FCFS
    return StackConfig(
        geometry=drive.geometry, seek=drive.seek, cache=drive.cache, scheduler_policy=policy
    )


def replay_policy(workload: str) -> ReplayPolicy:
    if workload == "burst_random":
        return ReplayPolicy(mode=ReplayMode.OPEN_LOOP_TIMED)
    return ReplayPolicy()


def generate_trace(workload: str, requests: int, seed: int) -> list[CanonicalRequest]:
    """The workload's trace of ``requests`` reads/writes for ``seed``."""

    if workload == "buffered_read":
        # One file read front to back: fs read-ahead, the dual-actor window,
        # drive fill-ahead and local prefetch all engage, and ~0.5 GB of data
        # runs far past the 128 MB fs cache, so eviction never stops.
        return generate(
            GeneratorSpec(
                count=requests,
                seed=seed,
                mode=AccessMode.NORMAL,
                size_bytes=DistSpec.choice([64 * KB, 128 * KB, 256 * KB, 512 * KB]),
            )
        )
    if workload == "mixed_rw":
        # 64 KB sits in the progressive write regime, 256 KB is one of its
        # exact sizes, 384 KB is periodic; 512 MB is 4x the fs cache.
        return generate(
            GeneratorSpec(
                count=requests,
                seed=seed,
                mode=AccessMode.NORMAL,
                size_bytes=DistSpec.choice([64 * KB, 256 * KB, 384 * KB]),
                read_weight=0.7,
                write_weight=0.3,
                address=aligned_choices(512 * MB, 64 * KB),
            )
        )
    if workload == "burst_random":
        # One address distribution for the whole trace: building the
        # 2M-entry choice tuple per burst would dominate generation.
        addresses = aligned_choices(8 * GB, 4 * KB)
        trace: list[CanonicalRequest] = []
        for burst in range(-(-requests // BURST_SIZE)):
            trace += generate(
                GeneratorSpec(
                    count=min(BURST_SIZE, requests - burst * BURST_SIZE),
                    seed=seed * 100_003 + burst,
                    mode=AccessMode.NO_BUFFER,
                    size_bytes=DistSpec.constant(4 * KB),
                    address=addresses,
                    start_time_us=burst * BURST_GAP_US,
                    emit_open_close=False,
                )
            )
        return trace
    raise ValueError(f"unknown workload {workload!r}")
