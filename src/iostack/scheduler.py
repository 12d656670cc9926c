"""Host-side I/O scheduling policies.

Requests the disk has not yet accepted wait in one queue; the policy decides
only at dispatch time.  Matters mostly under asynchronous streams, where
several requests are pending at once, but stays in-path for every run so
closed-loop and open-loop replays share one code path.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterator


class Policy(Enum):
    FCFS = "FCFS"
    LOOK = "LOOK"
    C_LOOK = "C_LOOK"


class Direction(Enum):
    UP = "UP"
    DOWN = "DOWN"


# Module constants for the hot paths: see the comment at ``StageId.__hash__``.
FCFS, LOOK, C_LOOK = Policy
UP, DOWN = Direction


@dataclass
class PendingQueue:
    """Policy-ordered queue of pending items keyed by target cylinder.

    Requests spanning multiple cylinders are keyed by their first cylinder.
    ``travel_cylinders`` accumulates the head sweep between dispatched
    cylinders, starting from ``position``.

    The queue holds each item once, in one list of ``(cylinder,
    arrival_seq, item)`` entries, where ``arrival_seq`` counts enqueues, so
    no two entries tie and items are never compared.  Under FCFS the list
    is in arrival order and ``next()`` pops its front.  Under LOOK and
    C-LOOK it is ascending, so the head position splits it into ahead and
    behind at a ``bisect`` boundary, and among items at one cylinder the
    earliest arrival always goes first.
    """

    policy: Policy = Policy.FCFS
    direction: Direction = Direction.UP
    position: int = 0
    travel_cylinders: int = 0
    _entries: list[tuple[int, int, Any]] = field(default_factory=list)
    _next_arrival: int = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Any]:
        """The pending items, in list order rather than dispatch order."""

        return (item for _, _, item in self._entries)

    def enqueue(self, item: Any, cylinder: int) -> None:
        entry = (cylinder, self._next_arrival, item)
        self._next_arrival += 1
        if self.policy is FCFS:
            self._entries.append(entry)
        else:
            insort(self._entries, entry)

    def next(self) -> Any:
        """Pop the next item per policy; None when the queue is empty."""

        if not self._entries:
            return None
        if self.policy is FCFS:
            ix = 0
        elif self.policy is LOOK:
            ix = self._next_elevator()
        else:  # C-LOOK: the nearest at or above the head, else wrap to the lowest
            ix = self._first_at(self.position) % len(self._entries)
        cylinder, _, item = self._entries.pop(ix)
        self.travel_cylinders += abs(cylinder - self.position)
        self.position = cylinder
        return item

    def _first_at(self, cylinder: int) -> int:
        """Index of the earliest arrival at ``cylinder`` or, failing that, above it."""

        return bisect_left(self._entries, (cylinder,))

    def _next_elevator(self) -> int:
        entries = self._entries
        if self.direction is UP:
            ix = self._first_at(self.position)
            if ix < len(entries):
                return ix
        else:
            above = self._first_at(self.position + 1)
            if above:
                return self._first_at(entries[above - 1][0])
        # Nothing ahead: reverse at the furthest pending item.  Every item
        # is then ahead, so the nearest one is the extreme one.
        if self.direction is UP:
            self.direction = DOWN
            return self._first_at(entries[-1][0])
        self.direction = UP
        return 0
