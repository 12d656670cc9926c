"""Event queue ordering, tie-breaking, and the stage walk-through."""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

import pytest
from hypothesis import given, settings, strategies as st

from iostack import PastEvent, SimEvent, Simulator, StageFault, StageId, engine
from iostack.engine import UnknownStage

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

            @classmethod
            def _make(cls, fields):
                return cls(*fields)

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
        assert [(e.fire_at_us, e.seq) for e in seen] == [(2, 1), (4, 0), (4, 2)]


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


class HeapOnlySimulator:
    """The simulator as it was before events due now got their own lane.

    One heap holds every event; its dispatch order is the reference the
    laned ``Simulator`` must match.
    """

    def __init__(self, observe=None) -> None:
        self._queue = []
        self._handlers = {}
        self._clock = 0
        self._seq = 0
        self._observe = observe

    def now(self) -> int:
        return self._clock

    @property
    def dispatched(self) -> int:
        return self._seq - len(self._queue)

    def register(self, stage, handler) -> None:
        self._handlers[stage] = handler

    def schedule(self, target, payload, at_us=None) -> None:
        fire_at = self._clock if at_us is None else at_us
        if fire_at < self._clock:
            raise PastEvent(f"cannot schedule at t={fire_at} when clock is t={self._clock}")
        if target not in self._handlers:
            raise UnknownStage(f"no handler registered for stage {target.value}")
        heappush(self._queue, (fire_at, self._seq, target, payload))
        self._seq += 1

    def run(self) -> None:
        queue = self._queue
        pop = heappop
        handlers = self._handlers
        observe = self._observe
        while queue:
            entry = pop(queue)
            fire_at, _, target, payload = entry
            self._clock = fire_at
            if observe is not None:
                observe(SimEvent._make(entry))
            try:
                handlers[target](self, payload)
            except Exception as exc:
                raise StageFault(SimEvent._make(entry), exc) from exc


#: How a handler schedules: at the clock two ways, later, or in the past
#: (``PastEvent``, checked before an unregistered target's ``UnknownStage``).
WHEN = ("now", "at_clock", "at_later", "past")

#: One scheduling step: target stage index, how, and the delay when later.
steps = st.tuples(st.integers(0, len(STAGE_ORDER) - 1), st.sampled_from(WHEN), st.integers(1, 4))


def run_program(make, registered: int, rounds, program, budget: int = 150):
    """Everything a run of ``program`` shows: its dispatches, counts and fault.

    The first ``registered`` stages get handlers; a target beyond them is
    unknown.  Each round schedules its ``(stage, at_us)`` list from outside
    and runs; the k-th handler call performs ``program[k % len(program)]``
    until ``budget`` events were scheduled.
    """

    trace = []
    sim = make(lambda e: trace.append((e.fire_at_us, e.seq, e.target, e.payload.label)))
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
    fault = None
    for starts in rounds:
        for stage_index, at_us in starts:
            sim.schedule(STAGE_ORDER[stage_index % registered], Token(str(made[0])), at_us=sim.now() + at_us)
            made[0] += 1
        try:
            sim.run()
        except StageFault as exc:
            fault = (exc.event, type(exc.original), str(exc.original))
            break
    return trace, sim.dispatched, sim.now(), fault


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
def test_lane_dispatches_as_the_heap_only_simulator(registered, rounds, program):
    # Ties, scheduling at the clock (implicitly and explicitly) and later,
    # from several stages, with unknown targets and past times raising
    # inside handlers: the same events in the same order, the
    # same ``dispatched`` count at every handler call and at the end, and
    # the same fault.
    laned = run_program(Simulator, registered, rounds, program)
    assert laned == run_program(HeapOnlySimulator, registered, rounds, program)
