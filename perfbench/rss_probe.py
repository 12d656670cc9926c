"""Peak memory of a process that only loads one canonical trace and replays it.

    echo <trace file> | python3 perfbench/rss_probe.py <workload>

Waits for the trace path on standard input, so the caller can start it before
its own memory grows (the kernel carries the parent's peak into the child).
Prints one JSON object: peak resident set size in MB and the number of
effective requests and completion records, so the caller can count failures.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path


def main(workload: str) -> None:
    trace_path = sys.stdin.readline().strip()
    if not trace_path:
        return  # the caller gave up before writing the trace
    # Imported only now, so the probe stays idle while the caller measures.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from iostack import read_canonical, replay
    from workloads import replay_policy, stack_config

    result = replay(read_canonical(trace_path), stack_config(workload), replay_policy(workload))
    completed = len({r.request_id for r in result.records})
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(
        json.dumps(
            {
                "peak_rss_mb": peak_kb / 1024,
                "effective": len(result.effective_requests),
                "completed": completed,
            }
        )
    )


if __name__ == "__main__":
    main(sys.argv[1])
