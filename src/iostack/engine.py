"""Deterministic discrete-event core.

A single integer-microsecond clock and one event calendar deliver messages
between the stack stages.  Events at equal timestamps dispatch in the order
they were scheduled, which pins down the one detail message-passing
frameworks usually leave implicit and makes whole runs replayable
byte-for-byte.

The calendar keeps each pending instant's events in one list of plain
``(target, payload)`` pairs, appended as they are scheduled, so every list
is already in dispatch order; a heap holds each instant once (see
``Simulator``).  Each handler receives only ``(sim, payload)``: a
``SimEvent`` is built just for an observer, or for the ``StageFault`` of a
handler that raised.  An observer reads each event as it is dispatched, so
a run streams its own event log to whatever sink the observer writes to; a
run without one costs nothing more.
A payload is one object for its whole round trip, turned into its done form
by a flag, so an observer that keeps events must copy what it reads.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from heapq import heappop, heappush
from typing import Callable, NamedTuple, Protocol


class StageId(Enum):
    """The stages in request-path order; completions travel the reverse way."""

    APP = "APP"
    FS_CACHE = "FS_CACHE"
    SCHEDULER = "SCHEDULER"
    DISK_CACHE = "DISK_CACHE"
    DISK = "DISK"

    # Why hot code reads enum members from module constants, and why some
    # enums hash by identity; the other unpack sites point here.
    # - Enum's own __hash__ is a Python-level function in every CPython
    #   version.  Members compare by identity, so they may hash by it too;
    #   the handler table is looked up twice per event.  A set of members
    #   then iterates in address order, so no code may iterate one.
    # - On 3.10 and 3.11 the metaclass defines a Python-level
    #   ``EnumType.__getattr__``, so a class read such as ``StageId.DISK``
    #   takes the interpreter's slow generic path, never specialised, at
    #   several times the cost of a module global read.  3.12 drops that
    #   hook.  So each enum the replay reads per event or per request is
    #   unpacked into module constants beside its class, as below, and hot
    #   code reads those.
    __hash__ = object.__hash__


APP, FS_CACHE, SCHEDULER, DISK_CACHE, DISK = StageId


class PastEvent(Exception):
    """An event was scheduled before the current clock."""


class UnknownStage(Exception):
    """A message targets a stage that was never registered."""


class StageFault(Exception):
    """Wraps a stage handler error together with the offending event."""

    def __init__(self, event: "SimEvent", original: BaseException):
        super().__init__(f"stage {event.target.value} failed on {event.describe()}: {original!r}")
        self.event = event
        self.original = original


class Payload(Protocol):
    kind: str

    def detail(self) -> str: ...


class SimEvent(NamedTuple):
    """One delivery: the clock at dispatch, the stage and its message."""

    fire_at_us: int
    target: StageId
    payload: Payload

    def describe(self) -> str:
        return f"t={self.fire_at_us} stage={self.target.value} kind={self.payload.kind} {self.payload.detail()}"


#: Receives each event as it is dispatched, before its handler runs.
Observer = Callable[[SimEvent], None]


class EventLog:
    """The events one run dispatched: their count, and their text on demand.

    A run passes its events to the observer it was given while it runs; this
    log keeps only their count.  ``to_text()`` runs the same deterministic
    run again through ``record(observer)``, which checks the re-run against
    the first one, and returns one ``describe()`` line per event.  The
    benchmark harness (``perfbench/run.py``) hashes ``to_text()`` of a plain
    run, so the re-run stays until the harness observes its own runs.
    """

    def __init__(self, count: int, record: Callable[[Observer], None]):
        self._count = count
        self._record = record

    def to_text(self) -> str:
        lines: list[str] = []
        self._record(lambda e: lines.append(e.describe() + "\n"))
        return "".join(lines)

    def __len__(self) -> int:
        return self._count


#: Called with the simulator and the payload of each event for its stage.
Handler = Callable[["Simulator", Payload], None]


class Simulator:
    """Single-threaded event loop shared by all stages of one run.

    It records no event unless given an ``observe`` callback, which reads
    each event at dispatch, before its handler runs.

    Events dispatch by time, then in scheduling order.  An event due later
    than the clock is appended to its instant's list in the calendar, and
    only an instant new to the calendar is pushed on the heap of instants.
    An event due at the clock goes on a first-in, first-out lane.  ``run``
    dispatches from the lane; when it is empty, it pops the next instant,
    sets the clock to it and moves that instant's list onto the lane.  Those
    events were scheduled before the clock got there, so they come before
    anything scheduled at that time, which the lane puts behind them.  A run
    that stops on a ``StageFault`` leaves the lane and the calendar to the
    next ``run`` as they are.
    """

    def __init__(self, observe: Observer | None = None) -> None:
        self._lane: deque[tuple[StageId, Payload]] = deque()
        self._calendar: dict[int, list[tuple[StageId, Payload]]] = {}
        self._instants: list[int] = []
        self._handlers: dict[StageId, Handler] = {}
        self._clock = 0
        self._observe = observe
        #: Events dispatched so far, the one being handled included.
        self.dispatched = 0

    def now(self) -> int:
        return self._clock

    def register(self, stage: StageId, handler: Handler) -> None:
        self._handlers[stage] = handler

    def schedule(self, target: StageId, payload: Payload, at_us: int | None = None) -> None:
        """Enqueue a message; events at equal times dispatch in scheduling order."""

        clock = self._clock
        if at_us is None or at_us == clock:
            if target not in self._handlers:
                raise _unknown(target)
            self._lane.append((target, payload))
        elif at_us > clock:
            if target not in self._handlers:
                raise _unknown(target)
            waiting = self._calendar.get(at_us)
            if waiting is None:
                self._calendar[at_us] = [(target, payload)]
                heappush(self._instants, at_us)
            else:
                waiting.append((target, payload))
        else:
            raise PastEvent(f"cannot schedule at t={at_us} when clock is t={clock}")

    def run(self) -> None:
        """Dispatch events in order until the lane and the calendar empty."""

        lane = self._lane
        popleft = lane.popleft
        calendar = self._calendar
        instants = self._instants
        handlers = self._handlers
        observe = self._observe
        clock = self._clock
        while True:
            if lane:
                target, payload = popleft()
            elif instants:
                clock = self._clock = heappop(instants)
                lane.extend(calendar.pop(clock))
                target, payload = popleft()
            else:
                break
            self.dispatched += 1
            if observe is not None:
                observe(SimEvent(clock, target, payload))
            try:
                handlers[target](self, payload)
            except Exception as exc:
                raise StageFault(SimEvent(clock, target, payload), exc) from exc


def _unknown(target: StageId) -> UnknownStage:
    return UnknownStage(f"no handler registered for stage {target.value}")
