"""A replay streams its events to an observer as it runs and keeps only their count.

One observed run is both the run that reports and the run that logs.  A
result's ``event_log.to_text()`` re-runs the replay, and checks the re-run
against the first run; these tests pin what each path costs and when a
simulation runs.
"""

from __future__ import annotations

import gc
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
    Simulator,
    StackConfig,
    replay,
)
from iostack.profiles import FUJITSU_MAN3184MP
from iostack.reports import open_event_log
from iostack.workload import DistSpec, GeneratorSpec, generate

from conftest import observed, plain_stack
from test_golden_log import log_text

KB = 1024


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
def sim_runs(monkeypatch) -> list[int]:
    """Count the simulations run: each replay's own and every re-run."""

    calls = []
    inner = Simulator.run

    def counted(self):
        calls.append(1)
        return inner(self)

    monkeypatch.setattr(Simulator, "run", counted)
    return calls


class TestOnDemand:
    def test_len_does_not_rerun(self, sim_runs):
        log = replay(reads(16), plain_stack()).event_log
        assert len(sim_runs) == 1
        assert len(log) > 0
        assert len(sim_runs) == 1

    def test_observed_replay_runs_once(self, sim_runs):
        result, events = observed(reads(16), plain_stack())
        assert len(sim_runs) == 1
        assert len(events) == len(result.event_log) > 0
        assert result.records == replay(reads(16), plain_stack()).records

    def test_to_text_reruns_once_per_call(self, sim_runs):
        result, events = observed(reads(16), plain_stack())
        text = log_text(events)
        assert result.event_log.to_text() == text
        assert len(sim_runs) == 2
        assert result.event_log.to_text() == text
        assert len(sim_runs) == 3

    def test_plain_replay_holds_no_event(self):
        def live_events() -> int:
            gc.collect()
            return sum(isinstance(o, SimEvent) for o in gc.get_objects())

        before = live_events()
        result = replay(reads(16), plain_stack())
        assert live_events() == before
        assert len(result.event_log) > 0


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
            result.event_log.to_text()
        assert len(result.event_log) == events

    def test_unchanged_inputs_do_not_raise(self):
        result, _ = self._result()
        assert result.event_log.to_text().count("\n") == len(result.event_log)


def peak_growth_per_request(run) -> float:
    """Bytes of peak traced memory ``run(requests)`` adds per request, 256 to 1024 requests."""

    short, long = reads(256), reads(1024)

    def peak(requests) -> int:
        gc.collect()
        tracemalloc.start()
        try:
            result = run(requests)
            assert len(result.records) == len(requests)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return (peak(long) - peak(short)) / (len(long) - len(short))


def fujitsu() -> StackConfig:
    drive = FUJITSU_MAN3184MP
    return StackConfig(geometry=drive.geometry, seek=drive.seek, cache=drive.cache)


def test_replay_memory_flat_in_trace_length():
    """Peak traced memory grows by well under the ~7 KiB a kept event log costs per request."""

    stack = fujitsu()
    assert peak_growth_per_request(lambda requests: replay(requests, stack)) < 1 * KB


def test_streamed_replay_memory_flat_in_trace_length(tmp_path):
    """A replay writing its log to a file, as ``--dump-events`` does, keeps none of it."""

    stack = fujitsu()
    events = {}

    def streamed(requests):
        out = tmp_path / str(len(requests))
        with open_event_log(out) as fp:
            result = replay(requests, stack, observe=lambda e: fp.write(e.describe() + "\n"))
        events[out] = len(result.event_log)
        return result

    assert peak_growth_per_request(streamed) < 1 * KB
    for out, count in events.items():
        assert (out / "events.log").read_text(encoding="utf-8").count("\n") == 1 + count
