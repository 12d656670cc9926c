"""A replay streams its events to an observer as it runs and keeps only their count.

One observed run is both the run that reports and the run that logs.  A
result's ``event_log.to_text()`` re-runs the replay, and checks the re-run
against the first run; these tests pin what each path costs and when a
simulation runs.
"""

from __future__ import annotations

import gc
import sys
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
    StageFault,
    StageId,
    replay,
)
from iostack.diskcache import MediaRole
from iostack.fscache import PASSTHROUGH, Purpose
from iostack.profiles import FUJITSU_MAN3184MP
from iostack.reports import open_event_log
from iostack.workload import DistSpec, GeneratorSpec, generate

from conftest import observed, plain_stack
from test_golden_log import log_text

KB = 1024
MB = 1024 * KB
#: The module of the stages; ``iostack.replay`` names the function.
REPLAY_MODULE = sys.modules["iostack.replay"]


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


def test_each_round_trip_is_one_object():
    """A request, io or media op comes back as the very object that went out."""

    def req(op, addr, size, mode):
        return CanonicalRequest(0, Origin.APP, op, 0, addr, size, addr, mode)

    trace = [req(Op.OPEN, 0, 0, AccessMode.NORMAL)]
    trace += [req(Op.READ, i * 256 * KB, 256 * KB, AccessMode.NORMAL) for i in range(3)]
    # 384 KB writes go part to the cache, part direct to the disk.
    trace += [req(Op.WRITE, (4 + i) * MB, 384 * KB, AccessMode.NORMAL) for i in range(2)]
    trace.append(req(Op.WRITE, 8 * MB, 64 * KB, AccessMode.WRITE_THROUGH))
    sent = {"request": {}, "io": {}, "media": {}}
    back = {"request": [], "io": [], "media": []}

    def check(e) -> None:
        p = e.payload
        if e.target is StageId.APP and p.kind == "request":
            sent["request"][p.request_id] = p
        elif e.target is StageId.SCHEDULER and p.kind == "io":
            sent["io"][p.io_id] = p
        elif e.target is StageId.DISK and p.kind == "media":
            sent["media"][p.media_id] = p
        elif e.target is StageId.APP and p.kind == "request-done":
            back["request"].append(p is sent["request"][p.request_id])
        elif e.target is StageId.FS_CACHE and p.kind == "io-done":
            back["io"].append(p is sent["io"][p.io_id])
        elif e.target is StageId.DISK_CACHE and p.kind == "media-done":
            back["media"].append(p is sent["media"][p.media_id])

    replay(trace, fujitsu(), observe=check)
    for kind, same in back.items():
        assert len(same) == len(sent[kind]) > 0 and all(same), kind
    assert {io.purpose for io in sent["io"].values()} == set(Purpose) - {PASSTHROUGH}
    assert {op.role for op in sent["media"].values()} == set(MediaRole)


def test_stage_fault_names_the_event_as_dispatched(monkeypatch):
    """A fault while timing a media op that waits for the disk names that op's own ``media`` event."""

    inner = REPLAY_MODULE.service
    #: (time, log line) of each event as it was dispatched.
    seen = []

    def fails_when_queued(*args):
        # ``service`` takes the op's start sixth: later than now, the disk is busy.
        if args[5] > seen[-1][0]:
            raise ValueError("timing a queued media op")
        return inner(*args)

    monkeypatch.setattr(REPLAY_MODULE, "service", fails_when_queued)
    with pytest.raises(StageFault) as info:
        replay(reads(16), fujitsu(), observe=lambda e: seen.append((e.fire_at_us, e.describe())))
    line = seen[-1][1]
    assert info.value.event.describe() == line
    assert " stage=DISK kind=media media=" in line
