#!/usr/bin/env python3
"""What the disk sees when an application reads a file in normal mode.

For buffered normal-mode reads larger than one cache block, two actors
fetch data: the system process demand-loads the first request, then keeps
leapfrogging one request-size window ahead while the application process
fills the window it skipped.  The drive therefore observes an interleaved
block sequence quite unlike the application's plain sequential scan.
"""

from iostack import AccessMode, CanonicalRequest, Op, Origin, StageId, replay
from iostack.diskcache import DiskCacheConfig, ReadPrefetch
from iostack.disk import DiskGeometry, SeekProfile, Zone
from iostack.replay import StackConfig

KB = 1024
BLOCK = 64 * KB
REQUEST = 256 * KB


def trace(count: int) -> list[CanonicalRequest]:
    requests = [CanonicalRequest(0, Origin.APP, Op.OPEN, 0, 0, 0, 0, AccessMode.NORMAL)]
    for i in range(count):
        requests.append(
            CanonicalRequest(0, Origin.APP, Op.READ, 0, i * REQUEST, REQUEST, i * REQUEST)
        )
    requests.append(CanonicalRequest(0, Origin.APP, Op.CLOSE, 0, 0, 0, 0))
    return requests


def main() -> None:
    stack = StackConfig(
        geometry=DiskGeometry(cylinders=3000, heads=4, zones=(Zone(0, 128),), rpm=7200),
        seek=SeekProfile(400, 1500, 3000, 400, 1500, 3000, head_switch_us=0),
        cache=DiskCacheConfig(read_prefetch=ReadPrefetch.NONE),
    )
    order = []

    def on_event(e):
        # Read each event as it is dispatched: the drive receives a read.
        io = e.payload
        if e.target is StageId.DISK_CACHE and io.kind == "io" and not io.write:
            order.append(io.disk_addr // BLOCK + 1)

    result = replay(trace(3), stack, observe=on_event)

    print(f"application request order: 256KB reads at offsets 0, 256K, 512K")
    print(f"one request = {REQUEST // BLOCK} blocks of 64KB\n")
    print("disk-visible block order:", ", ".join(f"B{b}" for b in order))
    print("\nRequest 1 is loaded whole by the system process (B1-B4);")
    print("during request 2 the system prefetches B9-B12 while the app")
    print("demand-loads B5-B8, interleaved; request 3 is served from cache:")
    for record in result.records:
        print(f"  request {record.request_id} ({record.op.value:5s}) latency {record.latency_us:>7} us")


if __name__ == "__main__":
    main()
