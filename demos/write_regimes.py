#!/usr/bin/env python3
"""The two buffered write regimes and the working-set flush cadence.

Small requests (and exactly 128KB or 256KB) are written progressively:
everything lands in the cache and the system process drains it block by
block in parallel.  Other sizes alternate between cache and direct disk
writes over a short period, and a bulk flush fires whenever the dirty set
reaches the working-set budget minus a reserve.
"""

from iostack import CanonicalRequest, Op, Origin, classify_write_regime, replay
from iostack.diskcache import DiskCacheConfig, ReadPrefetch
from iostack.disk import DiskGeometry, SeekProfile, Zone
from iostack.fscache import RESERVE_CONSTANT_BYTES, FsCacheConfig
from iostack.replay import StackConfig

KB = 1024


def main() -> None:
    cfg = FsCacheConfig()
    print("regime by request size:")
    for size_kb in (32, 64, 96, 128, 160, 192, 256, 320, 512):
        regime = classify_write_regime(size_kb * KB)
        print(f"  {size_kb:>4} KB -> {regime.value}")

    stack = StackConfig(
        geometry=DiskGeometry(cylinders=3000, heads=4, zones=(Zone(0, 128),), rpm=7200),
        seek=SeekProfile(400, 1500, 3000, 400, 1500, 3000),
        cache=DiskCacheConfig(read_prefetch=ReadPrefetch.NONE),
    )
    requests = [CanonicalRequest(0, Origin.APP, Op.OPEN, 0, 0, 0, 0)]
    for i in range(16):
        requests.append(
            CanonicalRequest(0, Origin.APP, Op.WRITE, 0, i * 320 * KB, 320 * KB, i * 320 * KB)
        )
    requests.append(CanonicalRequest(0, Origin.APP, Op.CLOSE, 0, 0, 0, 0))
    result = replay(requests, stack)

    print("\n320KB stream, periodic regime (cache blocks / direct blocks):")
    for tag, cached, direct in result.fs.write_splits:
        print(f"  write {tag:>2}: {cached}/{direct}")
    print(f"\nworking set {cfg.working_set_bytes // (1024 * KB)}MB, "
          f"reserve {RESERVE_CONSTANT_BYTES // (1024 * KB)}MB: "
          f"bulk flush fired after writes {result.fs.flush_ordinals}")


if __name__ == "__main__":
    main()
