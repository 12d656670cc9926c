"""Dispatch policies: ordering oracles, turnaround accounting, properties."""

from __future__ import annotations

from dataclasses import dataclass, field

from hypothesis import given, settings, strategies as st

from iostack import Direction, PendingQueue, Policy


def drain(queue: PendingQueue) -> list[int]:
    order = []
    while True:
        rid = queue.next()
        if rid is None:
            return order
        order.append(rid)


def load(queue: PendingQueue, cylinders: dict[int, int]) -> None:
    for rid, cyl in cylinders.items():
        queue.enqueue(rid, cyl)


class TestBasics:
    def test_enqueue_grows_queue(self):
        q = PendingQueue()
        q.enqueue(1, 10)
        q.enqueue(2, 20)
        assert len(q) == 2

    def test_empty_returns_none(self):
        assert PendingQueue().next() is None

    def test_same_contents_any_policy_until_dispatch(self):
        # Ordering is decided only at next(): queues hold identical sets.
        for policy in Policy:
            q = PendingQueue(policy=policy)
            load(q, {1: 50, 2: 120, 3: 150})
            assert len(q) == 3


class TestFcfs:
    def test_dispatch_equals_arrival(self):
        q = PendingQueue(policy=Policy.FCFS)
        load(q, {10: 500, 11: 3, 12: 77})
        assert drain(q) == [10, 11, 12]


class TestElevator:
    def test_scan_order_matches_sort_oracle(self):
        # Oracle for the elevator sweep: ascending cylinders at/above the
        # head, then the rest descending.
        pending = {1: 50, 2: 120, 3: 150}
        q = PendingQueue(policy=Policy.LOOK, position=100, direction=Direction.UP)
        load(q, pending)
        ahead = sorted((c, r) for r, c in pending.items() if c >= 100)
        behind = sorted(((c, r) for r, c in pending.items() if c < 100), reverse=True)
        oracle = [r for _, r in ahead + behind]
        assert drain(q) == oracle == [2, 3, 1]

    def test_look_same_order_but_early_turnaround(self):
        q = PendingQueue(policy=Policy.LOOK, position=100)
        load(q, {1: 50, 2: 120, 3: 150})
        assert drain(q) == [2, 3, 1]
        # LOOK reverses at the furthest pending request (150).
        assert q.travel_cylinders == (150 - 100) + (150 - 50)

    def test_look_direction_persists_while_work_ahead(self):
        q = PendingQueue(policy=Policy.LOOK, position=10)
        load(q, {1: 20, 2: 15, 3: 90})
        assert drain(q) == [2, 1, 3]
        assert q.direction is Direction.UP

    def test_ties_break_by_arrival(self):
        q = PendingQueue(policy=Policy.LOOK, position=0)
        q.enqueue(7, 40)
        q.enqueue(3, 40)
        q.enqueue(9, 40)
        assert drain(q) == [7, 3, 9]

    def test_down_direction(self):
        q = PendingQueue(policy=Policy.LOOK, position=50, direction=Direction.DOWN)
        load(q, {1: 60, 2: 40, 3: 10})
        assert drain(q) == [2, 3, 1]


class TestCircular:
    def test_c_scan_wraps_to_lowest(self):
        # The circular sweep serves upward, then wraps to the lowest pending
        # request and serves upward again.
        q = PendingQueue(policy=Policy.C_LOOK, position=100)
        load(q, {1: 50, 2: 120, 3: 150, 4: 10})
        assert drain(q) == [2, 3, 4, 1]

    def test_c_look_wraps_without_edge_travel(self):
        q = PendingQueue(policy=Policy.C_LOOK, position=100)
        load(q, {1: 50, 2: 120, 3: 150, 4: 10})
        assert drain(q) == [2, 3, 4, 1]
        # The wrap runs from the highest pending request (150) straight to
        # the lowest (10).
        assert q.travel_cylinders == (150 - 100) + (150 - 10) + (50 - 10)


@given(
    st.dictionaries(st.integers(0, 999), st.integers(0, 300), min_size=0, max_size=25),
    st.sampled_from(list(Policy)),
    st.integers(0, 300),
)
def test_every_policy_dispatches_exactly_the_enqueued_set(pending, policy, start):
    q = PendingQueue(policy=policy, position=start)
    load(q, pending)
    order = drain(q)
    assert sorted(order) == sorted(pending)
    assert q.next() is None  # work conservation: empty iff nothing pending
    # The sweep is the real head travel: no policy moves the head between
    # dispatches.
    cylinders = [start] + [pending[rid] for rid in order]
    assert q.travel_cylinders == sum(abs(b - a) for a, b in zip(cylinders, cylinders[1:]))


# -- differential check against the linear-scan queue -------------------------


@dataclass
class _Entry:
    item: object
    cylinder: int
    arrival_seq: int


@dataclass
class LinearQueue:
    """Reference ``PendingQueue``: every operation scans all pending entries."""

    policy: Policy = Policy.FCFS
    direction: Direction = Direction.UP
    position: int = 0
    travel_cylinders: int = 0
    pending: list[_Entry] = field(default_factory=list)
    next_arrival: int = 0

    def __len__(self) -> int:
        return len(self.pending)

    def enqueue(self, item: object, cylinder: int) -> None:
        self.pending.append(_Entry(item, cylinder, self.next_arrival))
        self.next_arrival += 1

    def next(self) -> object:
        if not self.pending:
            return None
        if self.policy is Policy.FCFS:
            chosen = min(self.pending, key=lambda e: e.arrival_seq)
        elif self.policy is Policy.LOOK:
            chosen = self._next_elevator()
        else:
            chosen = self._next_circular()
        self.pending.remove(chosen)
        self.travel_cylinders += abs(chosen.cylinder - self.position)
        self.position = chosen.cylinder
        return chosen.item

    def _nearest(self, candidates: list[_Entry], ahead_up: bool) -> _Entry:
        if ahead_up:
            return min(candidates, key=lambda e: (e.cylinder, e.arrival_seq))
        return min(candidates, key=lambda e: (-e.cylinder, e.arrival_seq))

    def _next_elevator(self) -> _Entry:
        if self.direction is Direction.UP:
            ahead = [e for e in self.pending if e.cylinder >= self.position]
            behind = [e for e in self.pending if e.cylinder < self.position]
        else:
            ahead = [e for e in self.pending if e.cylinder <= self.position]
            behind = [e for e in self.pending if e.cylinder > self.position]
        if ahead:
            return self._nearest(ahead, self.direction is Direction.UP)
        self.direction = Direction.DOWN if self.direction is Direction.UP else Direction.UP
        return self._nearest(behind, self.direction is Direction.UP)

    def _next_circular(self) -> _Entry:
        ahead = [e for e in self.pending if e.cylinder >= self.position]
        return self._nearest(ahead or self.pending, True)


#: An enqueue at a cylinder (few distinct values, so ties are common) or a
#: dispatch (None).
STEPS = st.lists(st.one_of(st.none(), st.integers(0, 40)), max_size=400)


@settings(max_examples=150, deadline=None)
@given(
    STEPS,
    st.sampled_from(list(Policy)),
    st.integers(0, 40),
    st.sampled_from(list(Direction)),
)
def test_dispatch_matches_linear_reference(steps, policy, start, direction):
    kwargs = dict(policy=policy, position=start, direction=direction)
    fast, slow = PendingQueue(**kwargs), LinearQueue(**kwargs)
    for cylinder in steps + [None] * len(steps):
        if cylinder is None:
            # Both return the very object enqueued, not an equal one.
            assert fast.next() is slow.next()
        else:
            item = object()
            fast.enqueue(item, cylinder)
            slow.enqueue(item, cylinder)
        assert len(fast) == len(slow)
        assert (fast.travel_cylinders, fast.position, fast.direction) == (
            slow.travel_cylinders,
            slow.position,
            slow.direction,
        )
    assert fast.next() is None
