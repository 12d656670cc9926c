"""Event queue ordering, tie-breaking, the stage walk-through, and dispatch
against the heap-only reference simulator, alone and under a replay."""

from __future__ import annotations

import sys
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings, strategies as st

from iostack import (
    AccessMode,
    CanonicalRequest,
    Op,
    Origin,
    PastEvent,
    ReplayMode,
    ReplayPolicy,
    Simulator,
    StackConfig,
    StageFault,
    StageId,
    engine,
    replay,
)
from iostack.engine import UnknownStage
from iostack.fscache import BLOCK_BYTES, FsCacheConfig
from iostack.profiles import FUJITSU_MAN3184MP

from conftest import HeapOnlySimulator
from test_liveness import trial
from test_perfbench import load

#: Request path in stack order; completions travel the reverse way.
STAGE_ORDER = tuple(StageId)


@dataclass
class Token:
    kind = "token"
    label: str

    def detail(self) -> str:
        return self.label


def sink(sim, payload):
    pass


def next_down(stage: StageId) -> StageId:
    return STAGE_ORDER[STAGE_ORDER.index(stage) + 1]


def next_up(stage: StageId) -> StageId:
    return STAGE_ORDER[STAGE_ORDER.index(stage) - 1]


def make_sim(stages=(StageId.APP,)) -> tuple[Simulator, list]:
    """A simulator of sink stages and the list its observer records into."""

    seen = []
    sim = Simulator(seen.append)
    for s in stages:
        sim.register(s, sink)
    return sim, seen


class TestOrdering:
    def test_time_order(self):
        sim, seen = make_sim()
        sim.schedule(StageId.APP, Token("late"), at_us=5)
        sim.schedule(StageId.APP, Token("early"), at_us=3)
        sim.run()
        assert [e.payload.label for e in seen] == ["early", "late"]

    def test_tie_breaks_by_scheduling_order(self):
        sim, seen = make_sim()
        sim.schedule(StageId.APP, Token("first"), at_us=3)
        sim.schedule(StageId.APP, Token("second"), at_us=3)
        sim.run()
        assert [e.payload.label for e in seen] == ["first", "second"]

    def test_past_event_rejected(self):
        sim, _ = make_sim()
        sim.schedule(StageId.APP, Token("a"), at_us=10)
        sim.run()
        assert sim.now() == 10
        with pytest.raises(PastEvent):
            sim.schedule(StageId.APP, Token("b"), at_us=9)

    def test_empty_run(self):
        sim, seen = make_sim()
        sim.run()
        assert sim.now() == 0
        assert sim.dispatched == 0
        assert seen == []

    def test_unknown_stage_rejected(self):
        sim, _ = make_sim()
        with pytest.raises(UnknownStage):
            sim.schedule(StageId.DISK, Token("x"))

    def test_unobserved_run_counts_events(self):
        sim = Simulator()
        counts = []
        sim.register(StageId.APP, lambda s, payload: counts.append(s.dispatched))
        for t in (3, 1, 2):
            sim.schedule(StageId.APP, Token(str(t)), at_us=t)
        sim.run()
        # The event being handled counts as dispatched.
        assert counts == [1, 2, 3]
        assert sim.dispatched == 3

    def test_clock_monotone_in_log(self):
        sim, seen = make_sim()
        for t in (9, 2, 7, 2, 0):
            sim.schedule(StageId.APP, Token(str(t)), at_us=t)
        sim.run()
        times = [e.fire_at_us for e in seen]
        assert times == sorted(times)


class TestEventRecords:
    """A ``SimEvent`` exists only for an observer or a stage fault."""

    @pytest.fixture
    def built(self, monkeypatch) -> list:
        made = []
        real = engine.SimEvent

        class Counted(real):
            __slots__ = ()

            def __new__(cls, *fields):
                made.append(fields)
                return real.__new__(cls, *fields)

        monkeypatch.setattr(engine, "SimEvent", Counted)
        return made

    @staticmethod
    def _schedule(sim: Simulator) -> None:
        for t, label in ((4, "b"), (2, "a"), (4, "c")):
            sim.schedule(StageId.APP, Token(label), at_us=t)

    def test_unobserved_run_builds_no_event(self, built):
        sim = Simulator()
        payloads = []
        sim.register(StageId.APP, lambda s, payload: payloads.append(payload.label))
        self._schedule(sim)
        sim.run()
        assert payloads == ["a", "b", "c"]
        assert built == []

    def test_observed_run_gets_events(self, built):
        sim, seen = make_sim()
        self._schedule(sim)
        sim.run()
        assert len(built) == 3
        assert all(isinstance(e, engine.SimEvent) for e in seen)
        assert [e.describe() for e in seen] == [
            "t=2 stage=APP kind=token a",
            "t=4 stage=APP kind=token b",
            "t=4 stage=APP kind=token c",
        ]
        assert [(e.fire_at_us, e.target, e.payload.label) for e in seen] == [
            (2, StageId.APP, "a"),
            (4, StageId.APP, "b"),
            (4, StageId.APP, "c"),
        ]


class TestStageFault:
    def test_handler_error_wrapped_with_event(self):
        sim = Simulator()

        def boom(s, payload):
            raise RuntimeError("broken handler")

        sim.register(StageId.APP, boom)
        sim.schedule(StageId.APP, Token("x"), at_us=1)
        with pytest.raises(StageFault) as info:
            sim.run()
        assert str(info.value).startswith("stage APP failed on t=1 stage=APP kind=token x: ")
        assert info.value.event.fire_at_us == 1
        assert info.value.event.payload == Token("x")
        assert isinstance(info.value.original, RuntimeError)


class TestTopologyWalk:
    def test_single_token_walks_all_stages_and_back(self):
        # Hand-built walk-through: each stage forwards the token down at
        # +1us; the disk turns it around and completions travel back up.
        seen = []
        sim = Simulator(seen.append)

        def forwarder(stage):
            def handle(s, payload):
                if payload.label == "down":
                    if stage is StageId.DISK:
                        s.schedule(next_up(stage), Token("up"), s.now() + 1)
                    else:
                        s.schedule(next_down(stage), Token("down"), s.now() + 1)
                elif payload.label == "up" and stage is not StageId.APP:
                    s.schedule(next_up(stage), Token("up"), s.now() + 1)

            return handle

        for stage in STAGE_ORDER:
            sim.register(stage, forwarder(stage))
        sim.schedule(StageId.APP, Token("down"), at_us=0)
        sim.run()
        visited = [e.target for e in seen]
        assert visited == list(STAGE_ORDER) + list(reversed(STAGE_ORDER))[1:]

    def test_determinism_two_runs_identical(self):
        def run_once() -> str:
            sim, seen = make_sim((StageId.APP, StageId.FS_CACHE))
            for i in range(20):
                sim.schedule(StageId.APP, Token(f"a{i}"), at_us=i % 5)
                sim.schedule(StageId.FS_CACHE, Token(f"b{i}"), at_us=i % 3)
            sim.run()
            return "".join(e.describe() + "\n" for e in seen)

        assert run_once() == run_once()


#: How a handler schedules: at the clock two ways, later, or in the past
#: (``PastEvent``, checked before an unregistered target's ``UnknownStage``).
WHEN = ("now", "at_clock", "at_later", "past")

#: One scheduling step: target stage index, how, and the delay when later.
steps = st.tuples(st.integers(0, len(STAGE_ORDER) - 1), st.sampled_from(WHEN), st.integers(1, 4))


def run_program(make, registered: int, rounds, program, budget: int = 150):
    """Everything a run of ``program`` shows: its dispatches, counts and faults.

    The first ``registered`` stages get handlers; a target beyond them is
    unknown.  Each round schedules its ``(stage, at_us)`` list from outside
    and runs, until it ends or faults, leaving any events still queued to
    the next round; the k-th handler call performs
    ``program[k % len(program)]`` until ``budget`` events were scheduled.
    """

    trace = []
    # Labels are unique, so equal traces dispatched the same events in the
    # same order.
    sim = make(lambda e: trace.append((e.fire_at_us, e.target, e.payload.label)))
    made = [0]

    def send(stage_index: int, how: str, delay: int) -> None:
        target = STAGE_ORDER[stage_index]
        token = Token(str(made[0]))
        made[0] += 1
        now = sim.now()
        if how == "now":
            sim.schedule(target, token)
        elif how == "at_clock":
            sim.schedule(target, token, at_us=now)
        elif how == "at_later":
            sim.schedule(target, token, at_us=now + delay)
        else:
            sim.schedule(target, token, at_us=now - delay)

    calls = [0]

    def handler(s, payload) -> None:
        trace.append(("dispatched", s.dispatched, s.now()))
        actions = program[calls[0] % len(program)]
        calls[0] += 1
        for action in actions:
            if made[0] >= budget:
                return
            send(*action)

    for stage in STAGE_ORDER[:registered]:
        sim.register(stage, handler)
    faults = []
    for starts in rounds:
        for stage_index, at_us in starts:
            sim.schedule(STAGE_ORDER[stage_index % registered], Token(str(made[0])), at_us=sim.now() + at_us)
            made[0] += 1
        try:
            sim.run()
        except StageFault as exc:
            faults.append((exc.event, type(exc.original), str(exc.original)))
    return trace, sim.dispatched, sim.now(), faults


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    registered=st.integers(1, len(STAGE_ORDER)),
    rounds=st.lists(
        st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3)), min_size=1, max_size=6),
        min_size=1,
        max_size=3,
    ),
    program=st.lists(st.lists(steps, max_size=3), min_size=1, max_size=6),
)
# A batch of 60 events over four times scheduled before the run, which
# handlers' later events tie with.
@example(
    registered=3,
    rounds=[[(k % 5, k % 4) for k in range(60)]],
    program=[[(0, "at_later", 1)], [(1, "now", 1), (2, "at_later", 2)], []],
)
# A fault at the first event leaves events queued, at its time and later;
# each next round's run takes them with its own.
@example(
    registered=2,
    rounds=[[(0, 1), (1, 1), (0, 2), (1, 3), (0, 3)], [(0, 0), (1, 2), (0, 1)], [(1, 1)]],
    program=[[(4, "now", 1)], [(0, "at_later", 1)], [], [(1, "at_later", 2)]],
)
# Events scheduled before a run at the current clock: the second and third
# rounds start at the clock the round before left.
@example(
    registered=2,
    rounds=[[(0, 2), (1, 2)], [(0, 0), (1, 0), (0, 1)], [(1, 0), (0, 0)]],
    program=[[(0, "now", 1), (1, "at_later", 1)], [], [(1, "at_clock", 1)]],
)
def test_lane_dispatches_as_the_heap_only_simulator(registered, rounds, program):
    # Ties, scheduling at the clock (implicitly and explicitly) and later,
    # from several stages and from outside before each run, with unknown
    # targets and past times raising inside handlers: the same events in the
    # same order, the same ``dispatched`` count at every handler call and at
    # the end, and the same faults.
    laned = run_program(Simulator, registered, rounds, program)
    assert laned == run_program(HeapOnlySimulator, registered, rounds, program)


# -- a replay under the heap-only simulator ------------------------------------

# ``import iostack.replay`` binds the ``replay`` function re-exported by the
# package, not the module that holds the stages.
REPLAY_MODULE = sys.modules["iostack.replay"]
WORKLOADS = load("workloads")
OPEN_LOOP = ReplayPolicy(mode=ReplayMode.OPEN_LOOP_TIMED)


def event_text(requests, stack, policy) -> str:
    lines = []
    replay(requests, stack, policy, observe=lambda e: lines.append(e.describe() + "\n"))
    return "".join(lines)


def assert_dispatches_as_heap_only(monkeypatch, requests, stack, policy) -> str:
    """The replay's event text, checked equal to its text under ``HeapOnlySimulator``."""

    text = event_text(requests, stack, policy)
    with monkeypatch.context() as patched:
        patched.setattr(REPLAY_MODULE, "Simulator", HeapOnlySimulator)
        assert event_text(requests, stack, policy) == text
    return text


def smoke_burst(seed: int):
    """``(requests, stack, policy)`` of the benchmark's smoke-length ``burst_random``."""

    trace = WORKLOADS.generate_trace("burst_random", WORKLOADS.SMOKE_REQUESTS, seed)
    return trace, WORKLOADS.stack_config("burst_random"), WORKLOADS.replay_policy("burst_random")


@pytest.mark.parametrize("seed", (1, 7919))
def test_burst_replay_dispatches_as_the_heap_only_simulator(monkeypatch, seed):
    assert_dispatches_as_heap_only(monkeypatch, *smoke_burst(seed))


def tied_bursts() -> list[CanonicalRequest]:
    """Open-loop NORMAL 4 KB reads of distinct fs blocks, four per burst,
    issued out of time order.

    Bursts come ``miss_path_cost_us`` apart, the delay at which the fs cache
    sends a read miss's demand io, so each burst's arrivals tie with the
    demand ios of the burst before, which wait in the heap.
    """

    gap = FsCacheConfig().miss_path_cost_us
    requests = []
    for burst in (5, 0, 3, 7, 1, 6, 2, 4):
        for k in range(4):
            addr = (4 * burst + k) * BLOCK_BYTES
            requests.append(
                CanonicalRequest(burst * gap, Origin.APP, Op.READ, 0, addr, 4096, addr, AccessMode.NORMAL)
            )
    return requests


def test_tied_open_loop_bursts_dispatch_as_the_heap_only_simulator(monkeypatch):
    drive = FUJITSU_MAN3184MP
    stack = StackConfig(geometry=drive.geometry, seek=drive.seek, cache=drive.cache)
    text = assert_dispatches_as_heap_only(monkeypatch, tied_bursts(), stack, OPEN_LOOP)
    times = {}
    for line in text.splitlines():
        at, stage, kind = line.split()[:3]
        times.setdefault((stage, kind), set()).add(int(at[2:]))
    arrivals = times["stage=APP", "kind=request"]
    # Every later burst ties with the ios of the one before.
    assert len(arrivals) == 8
    assert arrivals - {0} <= times["stage=SCHEDULER", "kind=io"]


#: The seeds among ``test_liveness.trial``'s 0-199 whose trial is open loop,
#: and those whose trial is closed loop.
OPEN_LOOP_TRIALS = [seed for seed in range(200) if trial(seed)[2].mode is ReplayMode.OPEN_LOOP_TIMED]
CLOSED_LOOP_TRIALS = sorted(set(range(200)) - set(OPEN_LOOP_TRIALS))


@pytest.mark.parametrize("seed", OPEN_LOOP_TRIALS)
def test_open_loop_trial_dispatches_as_the_heap_only_simulator(monkeypatch, seed):
    assert_dispatches_as_heap_only(monkeypatch, *trial(seed))


@pytest.mark.parametrize("seed", CLOSED_LOOP_TRIALS)
def test_closed_loop_trial_dispatches_as_the_heap_only_simulator(monkeypatch, seed):
    assert_dispatches_as_heap_only(monkeypatch, *trial(seed))


def test_heap_holds_each_instant_once(monkeypatch):
    # Events due at one instant wait in one calendar list, so the heap
    # holds each pending instant once, and an open-loop burst's arrivals,
    # all issued at one time, wait in one list: the first burst's on the
    # lane, at the clock the run starts at.  Nothing in the suite times a
    # replay, so this keeps per-event heap entries from coming back.
    waiting, depths = [], []

    class Guarded(Simulator):
        def run(self) -> None:
            waiting.append(len(self._lane))
            waiting.extend(len(self._calendar[t]) for t in sorted(self._calendar))
            super().run()

        def register(self, stage, handler) -> None:
            def guarded(sim, payload) -> None:
                assert len(sim._instants) == len(sim._calendar)
                depths.append(len(sim._instants))
                handler(sim, payload)

            super().register(stage, guarded)

    monkeypatch.setattr(REPLAY_MODULE, "Simulator", Guarded)
    requests, stack, policy = smoke_burst(1)
    replay(requests, stack, policy)
    burst = WORKLOADS.BURST_SIZE
    assert len(requests) == 2 * burst
    assert waiting == [burst, burst]
    assert max(depths) > 1
