#!/usr/bin/env python3
"""One pending request set, three dispatch orders.

The queue holds requests the disk has not accepted yet; the policy decides
only at dispatch time.  The head-sweep accounting shows where each policy
turns around: LOOK reverses at the furthest pending request, and C-LOOK
wraps to the lowest one instead.
"""

from iostack import PendingQueue, Policy


def main() -> None:
    pending = {"a": 50, "b": 120, "c": 150, "d": 10, "e": 95}
    print("head at cylinder 100 moving up; pending:",
          ", ".join(f"{k}@{c}" for k, c in pending.items()), "\n")
    for policy in Policy:
        queue = PendingQueue(policy=policy, position=100)
        for i, (name, cyl) in enumerate(pending.items()):
            queue.enqueue(i, cyl)
        names = list(pending)
        order = []
        while (rid := queue.next()) is not None:
            order.append(names[rid])
        print(f"{policy.value:<7} dispatch: {' -> '.join(order):<30} "
              f"head sweep {queue.travel_cylinders} cylinders")


if __name__ == "__main__":
    main()
