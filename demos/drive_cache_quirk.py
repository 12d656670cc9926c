#!/usr/bin/env python3
"""A drive-specific cache quirk: 512KB prefetch on local block patterns.

One tested drive prefetches 512KB whenever it sees two nearby blocks
requested around a sequential continuation (the A, B, A-adjacent shape).
That is exactly the shape the interleaved normal-mode read stream
produces, so the quirk fires repeatedly there.  After draining such a
prefetch in 128KB slices the same drive loses about one revolution
repositioning, which the LOCAL_512K read-prefetch policy models along with
the prefetch itself.
"""

from iostack.diskcache import SegmentedCache
from iostack.profiles import FUJITSU_MAN3184MP

BLOCK_SECTORS = 128  # 64KB


def main() -> None:
    cache = SegmentedCache(FUJITSU_MAN3184MP.cache)
    order = [0, 1, 2, 3, 8, 4, 9, 5, 10, 6, 11, 7]  # interleaved read stream
    print("request stream (64KB blocks):", ", ".join(f"B{b + 1}" for b in order))
    for block in order:
        lba = block * BLOCK_SECTORS
        _, missing, directives = cache.read_lookup(lba, BLOCK_SECTORS)
        for run in missing:
            cache.expect_fill(*run)
            cache.on_media_data(*run)
        for d in directives:
            if d.local:
                print(f"  -> 512KB prefetch from B{block + 1} "
                      f"(lba {d.lba}, {d.sectors} sectors)")
                cache.expect_fill(d.lba, d.sectors)
                cache.on_media_data(d.lba, d.sectors, local=True)
    print(f"local prefetches fired: {cache.local_prefetch_count}")

    print("\ndraining a fresh 512KB prefetch in 128KB slices:")
    cache2 = SegmentedCache(FUJITSU_MAN3184MP.cache)
    cache2.expect_fill(0, 1024)
    cache2.on_media_data(0, 1024, local=True)
    for i in range(4):
        kind, _, _ = cache2.read_lookup(i * 256, 256)
        print(f"  128KB read {i + 1}: {kind.value}")
    rotations = cache2.take_penalty_rotations()
    print(f"repositioning penalty owed to the next media op: {rotations} rotation(s)")


if __name__ == "__main__":
    main()
