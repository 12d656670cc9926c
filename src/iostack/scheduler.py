"""Host-side I/O scheduling policies.

Requests the disk has not yet accepted wait in one queue; the policy decides
only at dispatch time.  Matters mostly under asynchronous streams, where
several requests are pending at once, but stays in-path for every run so
closed-loop and open-loop replays share one code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class DuplicateRequest(Exception):
    pass


class Policy(Enum):
    FCFS = "FCFS"
    SCAN = "SCAN"
    LOOK = "LOOK"
    C_SCAN = "C_SCAN"
    C_LOOK = "C_LOOK"


class Direction(Enum):
    UP = "UP"
    DOWN = "DOWN"


@dataclass
class _Entry:
    request_id: int
    cylinder: int
    arrival_seq: int


@dataclass
class PendingQueue:
    """Policy-ordered queue keyed by target cylinder.

    Requests spanning multiple cylinders are keyed by their first cylinder.
    ``travel_cylinders`` accumulates the head sweep implied by the policy
    (including boundary excursions for SCAN/C_SCAN), which is what
    distinguishes LOOK-style turnarounds in tests.
    """

    policy: Policy = Policy.FCFS
    max_cylinder: int = 0
    direction: Direction = Direction.UP
    position: int = 0
    travel_cylinders: int = 0
    _entries: list[_Entry] = field(default_factory=list)
    _next_arrival: int = 0

    def __len__(self) -> int:
        return len(self._entries)

    def enqueue(self, request_id: int, cylinder: int) -> None:
        if any(e.request_id == request_id for e in self._entries):
            raise DuplicateRequest(f"request {request_id} already pending")
        self._entries.append(_Entry(request_id, cylinder, self._next_arrival))
        self._next_arrival += 1

    def next(self) -> int | None:
        """Pop the next request id per policy; None when the queue is empty."""

        if not self._entries:
            return None
        if self.policy is Policy.FCFS:
            chosen = min(self._entries, key=lambda e: e.arrival_seq)
        elif self.policy in (Policy.SCAN, Policy.LOOK):
            chosen = self._next_elevator()
        else:
            chosen = self._next_circular()
        self._entries.remove(chosen)
        self.travel_cylinders += abs(chosen.cylinder - self.position)
        self.position = chosen.cylinder
        return chosen.request_id

    # Ties at one cylinder always break by arrival order.
    def _nearest(self, candidates: list[_Entry], ahead_up: bool) -> _Entry:
        if ahead_up:
            return min(candidates, key=lambda e: (e.cylinder, e.arrival_seq))
        return min(candidates, key=lambda e: (-e.cylinder, e.arrival_seq))

    def _split(self) -> tuple[list[_Entry], list[_Entry]]:
        if self.direction is Direction.UP:
            ahead = [e for e in self._entries if e.cylinder >= self.position]
            behind = [e for e in self._entries if e.cylinder < self.position]
        else:
            ahead = [e for e in self._entries if e.cylinder <= self.position]
            behind = [e for e in self._entries if e.cylinder > self.position]
        return ahead, behind

    def _next_elevator(self) -> _Entry:
        ahead, behind = self._split()
        if ahead:
            return self._nearest(ahead, self.direction is Direction.UP)
        # Nothing ahead: turn around.  SCAN rides to the edge first, LOOK
        # reverses at the furthest pending request.
        if self.policy is Policy.SCAN:
            edge = self.max_cylinder if self.direction is Direction.UP else 0
            self.travel_cylinders += abs(edge - self.position)
            self.position = edge
        self.direction = Direction.DOWN if self.direction is Direction.UP else Direction.UP
        return self._nearest(behind, self.direction is Direction.UP)

    def _next_circular(self) -> _Entry:
        ahead = [e for e in self._entries if e.cylinder >= self.position]
        if ahead:
            return self._nearest(ahead, True)
        # Wrap to the lowest cylinder instead of reversing.
        if self.policy is Policy.C_SCAN:
            self.travel_cylinders += (self.max_cylinder - self.position) + self.max_cylinder
            self.position = 0
        else:
            lowest = min(e.cylinder for e in self._entries)
            self.travel_cylinders += abs(self.position - lowest)
            self.position = lowest
        return self._nearest(self._entries, True)
