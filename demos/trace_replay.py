#!/usr/bin/env python3
"""From a raw tracer capture to predicted response times.

A Filemon-style capture is parsed, its defects repaired (logical addresses
reconstructed from cluster numbers, helper-process requests tagged so the
replay can exclude them), converted to the canonical format, and replayed
against a drive profile.
"""

import io

from iostack import Op, Origin, error_percent, ingest_text, replay, write_canonical
from iostack.profiles import FUJITSU_MAN3184MP
from iostack.replay import StackConfig

CAPTURE = (
    "80\t17:03:26.407\ttestwrite.exe:928\tOPEN\tC:\\1\\testwrite.exe\tSUCCESS Options: Open Access: Execute\n"
    "85\t17:03:26.407\tcsrss.exe:712\tOPEN\tC:\\1\\testwrite.exe\tSUCCESS Options: Open Access: All\n"
    "88\t17:3:26.407\tcsrss.exe:712\tREAD\tC:\\1\\testwrite.exe\tLCN: 403019 Offset: 0 Length: 12\n"
    "91\t17:03:26.407\tcsrss.exe:712\tCLOSE\tC:\\1\\testwrite.exe\tSUCCESS\n"
    "95\t17:03:26.417\texplorer.exe:2044\tOPEN\tC:\\1\\testwrite.exe\tSUCCESS Options: Open Access: All\n"
    "98\t17:3:26.417\texplorer.exe:2044\tREAD\tC:\\1\\testwrite.exe\tLCN: 403019 Offset: 0 Length: 12\n"
    "104\t17:03:26.427\ttestwrite.exe:928\tOPEN\tC:\\1\\results\\result_perf.xls\tSUCCESS Options: OpenIf Access: All\n"
    "132\t17:03:26.427\ttestwrite.exe:928\tOPEN\tC:\\1\\results\\result_resp.xls\tSUCCESS Options: OpenIf Access: All\n"
    "159\t17:03:26.437\ttestwrite.exe:928\tOPEN\tC:\\1\\testwrite0\tSUCCESS Options: Open NoBuffer Access: All\n"
    "190\t17:3:26.437\ttestwrite.exe:928\tWRITE\tC:\\1\\testwrite0\tLCN: 2000668 Offset: 0 Length: 196608\n"
    "191\t17:3:26.437\ttestwrite.exe:928\tWRITE\tC:\\1\\testwrite0\tLCN: 2000692 Offset: 0 Length: 131072\n"
)


def main() -> None:
    requests, report = ingest_text(CAPTURE, cluster_size_bytes=4096)
    app = sum(1 for r in requests if r.origin is Origin.APP)
    io_lines = sum(1 for r in requests if r.op in (Op.READ, Op.WRITE))
    print(f"parsed {len(requests)} records: {app} application, "
          f"{len(requests) - app} tagged as OS helpers, "
          f"{len(report.dropped_lines)} dropped")
    print(f"logical addresses reconstructed on {io_lines} lines\n")

    sink = io.StringIO()
    write_canonical(requests, sink)
    print("canonical form (shared by real and synthetic workloads):")
    for line in sink.getvalue().splitlines()[:6]:
        print(" ", line)
    print("  ...\n")

    profile = FUJITSU_MAN3184MP
    stack = StackConfig(geometry=profile.geometry, seek=profile.seek, cache=profile.cache)
    result = replay(requests, stack)
    summary = result.summary
    print(f"replayed {summary.total_requests} application requests on {profile.name}:")
    print(f"  total response time {summary.total_response_us} us")
    print(f"  throughput {summary.throughput_bytes_per_s / 1e6:.2f} MB/s")

    # Compare a run against a (here: fictitious) measured total.
    measured_us = int(summary.total_response_us * 1.06)
    print(f"  error vs a measured total of {measured_us} us: "
          f"{error_percent(measured_us, summary.total_response_us):.1f}%")


if __name__ == "__main__":
    main()
