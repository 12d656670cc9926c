"""The benchmark's traces and tracer bindings, checked in the main suite.

``perfbench/`` replays three generated workloads and times the layers by
wrapping named functions of the program.  These tests load its workload and
tracing modules read-only: the traces must keep their pinned event logs, at
the smoke length and at the full length, and every span the per-layer split
reads must still record calls.
"""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path
from types import ModuleType

import pytest

from iostack import StageId, reference_media_image, replay

from conftest import observed
from test_golden_log import log_text
from test_replay import select

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: Event-log SHA-256 of each workload's 256-request trace at seed 1, as
#: printed by ``perfbench/run.py --smoke --seed 1``.
SMOKE_LOG_SHA256 = {
    "buffered_read": "2c107fec2b8652641af7a27fbc1154d7518033e8415e7c20db1737bda6082cd7",
    "mixed_rw": "d27046e2dc67f6681fedc8ef4e95e1f4fedff018979ff7a7236fbf5ca462b64a",
    "burst_random": "fc410480e1f71f59e67ae373042bc92ff56aeac398a80901a69f254bca8a58b0",
}

#: (event-log SHA-256, event count) of each workload's full-length trace at
#: seed 1.  Only the full length reaches a destage backlog and fs eviction.
FULL_LOG = {
    "buffered_read": ("e3aa78d9bbbf69ccb377a5f8bc60774b7e191cac1af63911cb9a17fab9b32135", 64_341),
    "mixed_rw": ("8efe12ef6117367e6db74beec1512a698ee4dcdba718cad452c89ad8e60a9ee6", 73_785),
    "burst_random": ("ae54c10a196ad65c35152a03ee775b8ec0c8b9fd8921ea6e59c664fffaa451fd", 20_505),
}

#: The same at the benchmark's held-out seed, ``perfbench/run.py``'s
#: ``HELD_OUT_SEED``, which no tuning run uses.
HELD_OUT_SEED = 7919
HELD_OUT_FULL_LOG = {
    "buffered_read": ("260f616046c7793793843193ae863c63070bfe4e0ef19c0bad9c4b61af710b8c", 65_471),
    "mixed_rw": ("1d763936089b1652c27882567e06a63ee1cc276f20d3e8255bb3c0437f67d3f3", 73_096),
    "burst_random": ("f13d44bc75751c60443e3d6482cf80ca519c9144c5bf767f1b70ce82e075899d", 20_481),
}


def load(name: str) -> ModuleType:
    """A module of ``perfbench/``, loaded from its file without touching ``sys.path``."""

    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads() -> ModuleType:
    return load("workloads")


def run(workloads: ModuleType, workload: str, requests: int):
    trace = workloads.generate_trace(workload, requests, 1)
    return observed(trace, workloads.stack_config(workload), workloads.replay_policy(workload))


@pytest.mark.parametrize("workload", sorted(SMOKE_LOG_SHA256))
def test_smoke_trace_event_log_pinned(workloads, workload):
    assert set(workloads.WORKLOADS) == set(SMOKE_LOG_SHA256)
    result, events = run(workloads, workload, workloads.SMOKE_REQUESTS)
    assert len(result.records) == len(result.effective_requests)
    digest = hashlib.sha256(log_text(events).encode()).hexdigest()
    assert digest == SMOKE_LOG_SHA256[workload]
    if workload == "mixed_rw":
        assert result.media_image == reference_media_image(result.effective_requests)


def full_log(workloads: ModuleType, workload: str, seed: int) -> tuple[str, int]:
    """(event-log SHA-256, event count) of the workload's full-length trace at ``seed``."""

    # Hashed as the run streams it: the log is never held whole.
    log = hashlib.sha256()
    events = 0

    def observe(event) -> None:
        nonlocal events
        log.update(f"{event.describe()}\n".encode())
        events += 1

    trace = workloads.generate_trace(workload, workloads.FULL_REQUESTS, seed)
    stack, policy = workloads.stack_config(workload), workloads.replay_policy(workload)
    replay(trace, stack, policy, observe)
    return log.hexdigest(), events


@pytest.mark.parametrize("workload", sorted(FULL_LOG))
def test_full_trace_event_log_pinned(workloads, workload):
    assert full_log(workloads, workload, 1) == FULL_LOG[workload]


@pytest.mark.parametrize("workload", sorted(HELD_OUT_FULL_LOG))
def test_held_out_full_trace_event_log_pinned(workloads, workload):
    assert full_log(workloads, workload, HELD_OUT_SEED) == HELD_OUT_FULL_LOG[workload]


def traced_run(workloads: ModuleType, workload: str, requests: int):
    """``(tracer, calls per span name, result, events)`` of one traced replay."""

    tracing = load("tracing")
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        result, events = run(workloads, workload, requests)
    calls = {name: len(spans) for name, spans in tracer.self_times().items()}
    return tracer, calls, result, events


def test_tracer_records_every_stage_span(workloads):
    tracer, calls, result, events = traced_run(workloads, "mixed_rw", 32)
    stages = {
        "replay.app": StageId.APP,
        "replay.fs_stage": StageId.FS_CACHE,
        "replay.scheduler_stage": StageId.SCHEDULER,
        "replay.disk_cache_stage": StageId.DISK_CACHE,
        "replay.disk_stage": StageId.DISK,
    }
    # Every event reaches its stage through the wrapped ``handle``.
    for span, stage in stages.items():
        assert calls[span] == len(select(events, stage)) > 0, span
    assert sum(calls[span] for span in stages) == len(events) == len(result.event_log)
    # The observed run is the one traced: reading its events runs nothing more.
    assert calls["engine.run"] == 1
    assert calls["disk.service"] == len(select(events, kind="media")) > 0
    # The drive cache enters every fill it plans; no stage enters one.
    names = [tracer.names[ix] for ix in tracer.span_name]
    fill_parents = [names[tracer.span_parent[i]] for i, n in enumerate(names) if n == "diskcache.expect_fill"]
    assert fill_parents
    assert set(fill_parents) <= {"diskcache.read_lookup", "diskcache.on_media_data"}
    # Each drive-cache read rule runs once per call of the step it serves.
    for workload in sorted(SMOKE_LOG_SHA256):
        _, calls, _, events = traced_run(workloads, workload, workloads.SMOKE_REQUESTS)
        media = [e.payload for e in select(events, kind="media")]
        # One segment scan answers each lookup.
        assert calls["diskcache.missing_runs"] == calls["diskcache.read_lookup"] > 0, workload
        # Every media op planned owes its penalty once and is served once.
        assert calls["diskcache.take_penalty_rotations"] == calls["disk.service"] == len(media), workload
        # Every media read, and nothing else, is entered as a fill.
        assert calls["diskcache.expect_fill"] == sum(not op.write for op in media) > 0, workload
