"""The benchmark's traces and tracer bindings, checked in the main suite.

``perfbench/`` replays three generated workloads and times the layers by
wrapping named functions of the program.  These tests load its workload and
tracing modules read-only: the traces must keep their pinned reports and
event logs, at the smoke length and at the full length, and every span the
per-layer split reads must still record calls.  Each test checks the reports
before the log, so a change to the log format cannot hide a report change.
"""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path
from types import ModuleType

import pytest

from iostack import StageId, reference_media_image, replay
from iostack.reports import format_request_table, format_summary

from conftest import observed
from test_golden_log import log_text
from test_replay import select

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: Event-log SHA-256 of each workload's 256-request trace at seed 1, as
#: printed by ``perfbench/run.py --smoke --seed 1``.
SMOKE_LOG_SHA256 = {
    "buffered_read": "d8a1ed3cb1bc765a43a9d3577bd2fd0106645de09a4bc8af6e052adfafe29bc9",
    "mixed_rw": "d5603593574c8082e27ffb0bd82ea75c74717d44df2c6a6aa6339685649c898a",
    "burst_random": "aeca72ab54d52fca7627302a19bbd39cbaa26e562581979f5fa2ef7b44ee5807",
}

#: (event-log SHA-256, event count) of each workload's full-length trace at
#: seed 1.  Only the full length reaches a destage backlog and fs eviction.
FULL_LOG = {
    "buffered_read": ("78cde13b50fb5336f8f80bc19eb45ac4974c803c970a5b51c808220ecddf1a0f", 55_059),
    "mixed_rw": ("bdabd958325088ad87604a72f994114fa7f4bbdf83bf108dfbaf4d748541df9a", 60_527),
    "burst_random": ("2d2603843697e1612125dc76d64d4a2a68aab054a1d1195f5ac5e1ec129983ba", 18_449),
}

#: The same at the benchmark's held-out seed, ``perfbench/run.py``'s
#: ``HELD_OUT_SEED``, which no tuning run uses.
HELD_OUT_SEED = 7919
HELD_OUT_FULL_LOG = {
    "buffered_read": ("53e8ba19d8d7ae343637e24ded4d9ca44cf4bf5cafd4c4ee790b84ec35f1270f", 56_007),
    "mixed_rw": ("799eeff76371699f095596704fbef355441f414a697b627e394b6e9769e74495", 60_159),
    "burst_random": ("45508c50133208568d3265d3705d2ea855309064a02f1f9feb04d603574d10f2", 18_433),
}


#: (seed, workload) -> SHA-256 of the request table, the summary and the
#: media image's runs of the workload's smoke-length and full-length traces.
SMOKE_REPORT_SHA256 = {
    (1, "buffered_read"): "0d5f30d3c59e4b73a14f8f88531ee308125bc67f87176498b58f692970ee2e4c",
    (1, "burst_random"): "af8f425d8d82e07f1b7694899935a6a5d48517efa46087023f67fa890a7e9236",
    (1, "mixed_rw"): "0b544f2975cdeb7c0c5f91ca8be4748fba27fe647207cfd8ba97361b56aa062d",
    (7919, "buffered_read"): "3a792229798c4daf96e26b8d85c1d1bc8827ec95262c718891638c8d50c6d956",
    (7919, "burst_random"): "833a0921a5bd843c9f01cadba98c0a6bba9be2ee9290ee325e638daf4e098421",
    (7919, "mixed_rw"): "a86ad4dea08935aa81286a3f1c34b962cc4e01cf14f4814296451b9327822fb9",
}
FULL_REPORT_SHA256 = {
    (1, "buffered_read"): "2a51332a7b994473e4df7fd94588798102b1436d3d49e1e637c84cb31ba1c4d4",
    (1, "burst_random"): "573138a49bc22570307630603d1fde3c17e2aea52cca43b40bbb6bd79963c630",
    (1, "mixed_rw"): "5793ffa128852e98f7a423c264a12cc321798cf02c06dab0357747e5fd767ba8",
    (7919, "buffered_read"): "2efb77add82125d963842d32eb6ab8f874fd6811b8dbfe42256e0d7795efbc2b",
    (7919, "burst_random"): "615157d3b8825256ae4d5b882d364f9d78bdd94d8d85e5cf61005c88c5484e8a",
    (7919, "mixed_rw"): "942603c22bf804b5355c1536fc10cd0b97e5045f99a682fb2f4693ea344b4f6f",
}


def report_digest(result) -> str:
    """SHA-256 of a replay's request table, summary and media-image runs."""

    digest = hashlib.sha256()
    for text in (
        format_request_table(result.records),
        format_summary(result.summary),
        repr(result.media_image.runs),
    ):
        digest.update(text.encode())
    return digest.hexdigest()


def load(name: str) -> ModuleType:
    """A module of ``perfbench/``, loaded from its file without touching ``sys.path``."""

    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads() -> ModuleType:
    return load("workloads")


def run(workloads: ModuleType, workload: str, requests: int, seed: int = 1):
    trace = workloads.generate_trace(workload, requests, seed)
    return observed(trace, workloads.stack_config(workload), workloads.replay_policy(workload))


@pytest.mark.parametrize("workload", sorted(SMOKE_LOG_SHA256))
def test_smoke_trace_event_log_pinned(workloads, workload):
    assert set(workloads.WORKLOADS) == set(SMOKE_LOG_SHA256)
    result, events = run(workloads, workload, workloads.SMOKE_REQUESTS)
    assert len(result.records) == len(result.effective_requests)
    assert report_digest(result) == SMOKE_REPORT_SHA256[1, workload]
    digest = hashlib.sha256(log_text(events).encode()).hexdigest()
    assert digest == SMOKE_LOG_SHA256[workload]
    if workload == "mixed_rw":
        assert result.media_image == reference_media_image(result.effective_requests)


@pytest.mark.parametrize("workload", sorted(SMOKE_LOG_SHA256))
def test_held_out_smoke_trace_reports_pinned(workloads, workload):
    result, _ = run(workloads, workload, workloads.SMOKE_REQUESTS, HELD_OUT_SEED)
    assert report_digest(result) == SMOKE_REPORT_SHA256[HELD_OUT_SEED, workload]


def full_log(workloads: ModuleType, workload: str, seed: int) -> tuple[str, int]:
    """(event-log SHA-256, event count) of the workload's full-length trace at
    ``seed``, after its reports are checked against ``FULL_REPORT_SHA256``."""

    # Hashed as the run streams it: the log is never held whole.
    log = hashlib.sha256()
    events = 0

    def observe(event) -> None:
        nonlocal events
        log.update(f"{event.describe()}\n".encode())
        events += 1

    trace = workloads.generate_trace(workload, workloads.FULL_REQUESTS, seed)
    stack, policy = workloads.stack_config(workload), workloads.replay_policy(workload)
    result = replay(trace, stack, policy, observe)
    assert report_digest(result) == FULL_REPORT_SHA256[seed, workload]
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
