"""Host-side I/O scheduling policies.

Requests the disk has not yet accepted wait in one queue; the policy decides
only at dispatch time.  Matters mostly under asynchronous streams, where
several requests are pending at once, but stays in-path for every run so
closed-loop and open-loop replays share one code path.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum


class DuplicateRequest(Exception):
    pass


class Policy(Enum):
    FCFS = "FCFS"
    LOOK = "LOOK"
    C_LOOK = "C_LOOK"


class Direction(Enum):
    UP = "UP"
    DOWN = "DOWN"


@dataclass
class PendingQueue:
    """Policy-ordered queue keyed by target cylinder.

    Requests spanning multiple cylinders are keyed by their first cylinder.
    ``travel_cylinders`` accumulates the head sweep between dispatched
    cylinders, starting from ``position``.

    Every pending request has the key ``(cylinder, arrival_seq, request_id)``,
    where ``arrival_seq`` counts enqueues.  The elevator and circular
    policies keep the keys in one ascending list, so the head position
    splits it into ahead and behind at a ``bisect`` boundary, and among
    requests at one cylinder the earliest arrival always goes first.  FCFS
    needs no sorted list: it pops the oldest entry of ``_keys``, which holds
    every pending request in arrival order.
    """

    policy: Policy = Policy.FCFS
    direction: Direction = Direction.UP
    position: int = 0
    travel_cylinders: int = 0
    #: request_id -> key, in arrival order.  An OrderedDict because popping
    #: the front of a plain dict rescans the deleted slots before it.
    _keys: OrderedDict[int, tuple[int, int, int]] = field(default_factory=OrderedDict)
    #: Every key in ascending order; unused under FCFS.
    _sorted: list[tuple[int, int, int]] = field(default_factory=list)
    _next_arrival: int = 0

    def __len__(self) -> int:
        return len(self._keys)

    def enqueue(self, request_id: int, cylinder: int) -> None:
        if request_id in self._keys:
            raise DuplicateRequest(f"request {request_id} already pending")
        key = (cylinder, self._next_arrival, request_id)
        self._next_arrival += 1
        self._keys[request_id] = key
        if self.policy is not Policy.FCFS:
            insort(self._sorted, key)

    def next(self) -> int | None:
        """Pop the next request id per policy; None when the queue is empty."""

        if not self._keys:
            return None
        if self.policy is Policy.FCFS:
            request_id, (cylinder, _, _) = self._keys.popitem(last=False)
        else:
            if self.policy is Policy.LOOK:
                ix = self._next_elevator()
            else:  # C-LOOK: the nearest at or above the head, else wrap to the lowest
                ix = self._first_at(self.position) % len(self._sorted)
            cylinder, _, request_id = self._sorted.pop(ix)
            del self._keys[request_id]
        self.travel_cylinders += abs(cylinder - self.position)
        self.position = cylinder
        return request_id

    def _first_at(self, cylinder: int) -> int:
        """Index of the earliest arrival at ``cylinder`` or, failing that, above it."""

        return bisect_left(self._sorted, (cylinder,))

    def _next_elevator(self) -> int:
        keys = self._sorted
        if self.direction is Direction.UP:
            ix = self._first_at(self.position)
            if ix < len(keys):
                return ix
        else:
            above = self._first_at(self.position + 1)
            if above:
                return self._first_at(keys[above - 1][0])
        # Nothing ahead: reverse at the furthest pending request.  Every
        # request is then ahead, so the nearest one is the extreme one.
        if self.direction is Direction.UP:
            self.direction = Direction.DOWN
            return self._first_at(keys[-1][0])
        self.direction = Direction.UP
        return 0
