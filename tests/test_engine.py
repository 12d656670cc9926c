"""Event queue ordering, tie-breaking, and the stage walk-through."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from iostack import PastEvent, Simulator, StageFault, StageId, engine
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
                        s.schedule_after(next_up(stage), Token("up"), 1)
                    else:
                        s.schedule_after(next_down(stage), Token("down"), 1)
                elif payload.label == "up" and stage is not StageId.APP:
                    s.schedule_after(next_up(stage), Token("up"), 1)

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
