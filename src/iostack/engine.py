"""Deterministic discrete-event core.

A single integer-microsecond clock and one ordered queue deliver messages
between the stack stages.  Ties at equal timestamps break by global
scheduling sequence, which pins down the one detail message-passing
frameworks usually leave implicit and makes whole runs replayable
byte-for-byte.

The queue holds plain ``(fire_at_us, seq, target, payload)`` tuples and each
handler receives only ``(sim, payload)``: a ``SimEvent`` is built just for an
observer, or for the ``StageFault`` of a handler that raised.  An observer
sees each event as it is dispatched, so a run streams its own event log to
whatever sink the observer writes to; a run without one costs nothing more.
"""

from __future__ import annotations

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

    # Members compare by identity, so they may hash by it too; Enum's own
    # __hash__ is a Python function, and the handler table is looked up
    # twice per event.
    __hash__ = object.__hash__


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

    It records no event unless given an ``observe`` callback.
    """

    def __init__(self, observe: Observer | None = None) -> None:
        self._queue: list[tuple[int, int, StageId, Payload]] = []
        self._handlers: dict[StageId, Handler] = {}
        self._clock = 0
        self._seq = 0
        self._observe = observe

    def now(self) -> int:
        return self._clock

    @property
    def dispatched(self) -> int:
        """Events dispatched so far: every scheduled event not still queued."""

        return self._seq - len(self._queue)

    def register(self, stage: StageId, handler: Handler) -> None:
        self._handlers[stage] = handler

    def schedule(self, target: StageId, payload: Payload, at_us: int | None = None) -> None:
        """Enqueue a message; events at equal times dispatch in scheduling order."""

        fire_at = self._clock if at_us is None else at_us
        if fire_at < self._clock:
            raise PastEvent(f"cannot schedule at t={fire_at} when clock is t={self._clock}")
        if target not in self._handlers:
            raise UnknownStage(f"no handler registered for stage {target.value}")
        heappush(self._queue, (fire_at, self._seq, target, payload))
        self._seq += 1

    def schedule_after(self, target: StageId, payload: Payload, delay_us: int) -> None:
        self.schedule(target, payload, self._clock + delay_us)

    def run(self) -> None:
        """Dispatch events in order until the queue empties."""

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
