"""Deterministic discrete-event core.

A single integer-microsecond clock and one ordered queue deliver messages
between the stack stages.  Ties at equal timestamps break by global
scheduling sequence, which pins down the one detail message-passing
frameworks usually leave implicit and makes whole runs replayable
byte-for-byte.

The queue holds plain ``(fire_at_us, seq, target, payload)`` tuples, events
due later in a heap and events due at the current clock in a first-in,
first-out lane beside it (see ``Simulator``).  Each handler receives only
``(sim, payload)``: a ``SimEvent`` is built just for an observer, or for the
``StageFault`` of a handler that raised.  An observer reads each event as it
is dispatched, so a run streams its own event log to whatever sink the
observer writes to; a run without one costs nothing more.
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
    """One delivery, with the fields of the queue entry it was built from.

    ``seq`` is unique, so two queue entries never compare their payloads.
    """

    fire_at_us: int
    seq: int
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

    Events due later wait in a heap; an event due at the current clock goes
    on a first-in, first-out lane beside it, which costs no heap push or
    pop.  Dispatch order is still (time, seq).  ``run`` advances the clock
    only when the lane is empty, and then moves every heap entry due at the
    new time onto the lane, in seq order, before it dispatches the first of
    them.  Those entries were scheduled before the clock got there, so their
    seqs are lower than that of any entry scheduled at that time, which goes
    on the lane behind them.
    """

    def __init__(self, observe: Observer | None = None) -> None:
        self._queue: list[tuple[int, int, StageId, Payload]] = []
        self._lane: deque[tuple[int, int, StageId, Payload]] = deque()
        self._handlers: dict[StageId, Handler] = {}
        self._clock = 0
        self._seq = 0
        self._observe = observe

    def now(self) -> int:
        return self._clock

    @property
    def dispatched(self) -> int:
        """Events dispatched so far: every scheduled event not still queued."""

        return self._seq - len(self._queue) - len(self._lane)

    def register(self, stage: StageId, handler: Handler) -> None:
        self._handlers[stage] = handler

    def schedule(self, target: StageId, payload: Payload, at_us: int | None = None) -> None:
        """Enqueue a message; events at equal times dispatch in scheduling order."""

        clock = self._clock
        fire_at = clock if at_us is None else at_us
        if fire_at < clock:
            raise PastEvent(f"cannot schedule at t={fire_at} when clock is t={clock}")
        if target not in self._handlers:
            raise UnknownStage(f"no handler registered for stage {target.value}")
        entry = (fire_at, self._seq, target, payload)
        if fire_at == clock:
            self._lane.append(entry)
        else:
            heappush(self._queue, entry)
        self._seq += 1

    def run(self) -> None:
        """Dispatch events in order until the heap and the lane empty."""

        queue = self._queue
        lane = self._lane
        pop = heappop
        popleft = lane.popleft
        handlers = self._handlers
        observe = self._observe
        while True:
            if lane:
                entry = popleft()
            elif queue:
                entry = pop(queue)
                clock = self._clock = entry[0]
                while queue and queue[0][0] == clock:
                    lane.append(pop(queue))
            else:
                break
            _, _, target, payload = entry
            if observe is not None:
                observe(SimEvent._make(entry))
            try:
                handlers[target](self, payload)
            except Exception as exc:
                raise StageFault(SimEvent._make(entry), exc) from exc
