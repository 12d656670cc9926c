"""The event log is recorded on demand: a plain replay only counts events.

Reading the events re-runs the replay once with a recorder, and checks the
re-run against the first run; these tests pin what that costs and when it
happens.
"""

from __future__ import annotations

import gc
import importlib
import io
import tracemalloc

import pytest

from iostack import (
    AccessMode,
    CanonicalRequest,
    Op,
    Origin,
    ReplayDiverged,
    ReplayPolicy,
    SimEvent,
    StackConfig,
    replay,
)
from iostack.profiles import FUJITSU_MAN3184MP
from iostack.workload import DistSpec, GeneratorSpec, generate

from conftest import plain_stack

KB = 1024
REPLAY_MODULE = importlib.import_module("iostack.replay")


def reads(count: int) -> list[CanonicalRequest]:
    """A closed-loop sequential NORMAL read stream, 64 KB to 512 KB per read."""

    return generate(
        GeneratorSpec(
            count=count,
            seed=1,
            mode=AccessMode.NORMAL,
            size_bytes=DistSpec.choice([64 * KB, 128 * KB, 256 * KB, 512 * KB]),
        )
    )


@pytest.fixture
def replay_calls(monkeypatch) -> list[int]:
    """Count the runs of the internal replay, the first one and every re-run."""

    calls = []
    inner = REPLAY_MODULE._replay

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(REPLAY_MODULE, "_replay", counted)
    return calls


class TestOnDemand:
    def test_len_does_not_rerun(self, replay_calls):
        log = replay(reads(16), plain_stack()).event_log
        assert len(replay_calls) == 1
        assert len(log) > 0
        assert len(replay_calls) == 1

    def test_first_read_reruns_once_and_keeps_the_list(self, replay_calls):
        log = replay(reads(16), plain_stack()).event_log
        entries = log.entries
        assert len(replay_calls) == 2
        assert log.entries is entries
        assert log.to_text() == "".join(e.describe() + "\n" for e in entries)
        assert log.filter(kind="request") == [e for e in entries if e.payload.kind == "request"]
        assert len(replay_calls) == 2

    def test_write_streams_each_time_without_keeping_events(self, replay_calls):
        log = replay(reads(16), plain_stack()).event_log
        first, second = io.StringIO(), io.StringIO()
        log.write(first)
        log.write(second)
        assert len(replay_calls) == 3
        assert first.getvalue() == second.getvalue() == log.to_text()
        assert len(replay_calls) == 4

    def test_plain_replay_holds_no_event(self):
        def live_events() -> int:
            gc.collect()
            return sum(isinstance(o, SimEvent) for o in gc.get_objects())

        before = live_events()
        result = replay(reads(16), plain_stack())
        assert live_events() == before
        assert live_events() + len(result.event_log.entries) == before + len(result.event_log)


class TestDivergence:
    def _result(self):
        # A measured response far above the simulated one paces the next
        # request later, so the baseline decides the issue times.
        policy = ReplayPolicy(baseline_us={0: 50_000, 1: 50_000})
        trace = [
            CanonicalRequest(0, Origin.APP, Op.READ, 0, addr, 64 * KB, addr, AccessMode.NORMAL)
            for addr in (0, 64 * KB, 128 * KB)
        ]
        return replay(trace, plain_stack(), policy), policy

    def test_changed_inputs_raise_on_read(self):
        result, policy = self._result()
        events = len(result.event_log)
        policy.baseline_us.clear()
        with pytest.raises(ReplayDiverged):
            result.event_log.entries
        with pytest.raises(ReplayDiverged):
            result.event_log.write(io.StringIO())
        assert len(result.event_log) == events

    def test_unchanged_inputs_do_not_raise(self):
        result, _ = self._result()
        assert len(result.event_log.entries) == len(result.event_log)


def test_replay_memory_flat_in_trace_length():
    """Peak traced memory grows by well under the ~7 KiB a kept event log costs per request."""

    drive = FUJITSU_MAN3184MP
    stack = StackConfig(geometry=drive.geometry, seek=drive.seek, cache=drive.cache)
    short, long = reads(256), reads(1024)

    def peak(requests) -> int:
        gc.collect()
        tracemalloc.start()
        try:
            result = replay(requests, stack)
            assert len(result.records) == len(requests)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    growth = (peak(long) - peak(short)) / (len(long) - len(short))
    assert growth < 1 * KB
