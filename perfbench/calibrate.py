"""A fixed pure-Python kernel that measures how fast the host runs right now.

The host this benchmark is tuned on is shared: one and the same replay runs
up to twice as slow from one second to the next, and CPU time slows with
wall time, so it is the core itself that is slower, not the scheduler
handing it out.  The kernel below is timed next to every measured call and
the benchmark divides the call's time by the kernel's, which cancels the
host's speed of the moment (see RATIONALE.md, *Host-speed normalisation*).

The kernel does what the simulator does, in the same proportions as far as a
small loop can: a heap of frozen dataclass events keyed by time and
sequence, dispatch through a dict of bound methods keyed by an Enum, dicts
of per-sector state, short list building and string formatting.  It imports
nothing from ``iostack``, so no change to the simulator changes it.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from enum import Enum


class _Target(Enum):
    UPPER = "UPPER"
    LOWER = "LOWER"


@dataclass(frozen=True)
class _Event:
    at: int
    seq: int
    target: _Target
    lba: int
    sectors: int

    def describe(self) -> str:
        return f"t={self.at} stage={self.target.value} lba={self.lba} n={self.sectors}"


class _Loop:
    def __init__(self) -> None:
        self.queue: list[tuple[int, int, _Event]] = []
        self.seq = 0
        self.now = 0
        self.resident: dict[int, int] = {}
        self.log: list[_Event] = []
        self.text = 0
        self.handlers = {_Target.UPPER: self.upper, _Target.LOWER: self.lower}

    def schedule(self, target: _Target, at: int, lba: int, sectors: int) -> None:
        event = _Event(at, self.seq, target, lba, sectors)
        self.seq += 1
        heapq.heappush(self.queue, (at, event.seq, event))

    def upper(self, event: _Event) -> None:
        missing = [s for s in range(event.lba, event.lba + event.sectors) if s not in self.resident]
        if missing:
            self.schedule(_Target.LOWER, self.now + 7 + len(missing), missing[0], len(missing))

    def lower(self, event: _Event) -> None:
        for s in range(event.lba, event.lba + event.sectors):
            self.resident[s] = self.now
        if len(self.resident) > 4096:
            for s in sorted(self.resident, key=self.resident.__getitem__)[:1024]:
                del self.resident[s]

    def run(self) -> None:
        while self.queue:
            at, _, event = heapq.heappop(self.queue)
            self.now = at
            self.log.append(event)
            self.handlers[event.target](event)
        self.text = len("".join(e.describe() + "\n" for e in self.log))


def kernel(requests: int = 600) -> int:
    """Run the fixed kernel once; returns a checksum so the work cannot be skipped."""

    loop = _Loop()
    lba = 0
    for i in range(requests):
        # A fixed mix of sequential and scattered addresses, no randomness.
        lba = lba + 16 if i % 3 else (i * 7919) % 65536
        loop.schedule(_Target.UPPER, i * 11, lba, 8 + (i % 4) * 8)
    loop.run()
    return loop.text + loop.seq


def seconds() -> float:
    """Wall seconds of one run of the kernel."""

    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started
