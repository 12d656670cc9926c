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

from collections import deque

from iostack.diskcache import MediaRole, SegmentedCache
from iostack.profiles import FUJITSU_MAN3184MP

BLOCK_SECTORS = 128  # 64KB


def serve(cache: SegmentedCache, block: int) -> list:
    """Read one 64KB block, delivering the data of every media read it starts."""

    _, reads = cache.read_lookup(block * BLOCK_SECTORS, BLOCK_SECTORS)
    todo = deque(reads)
    while todo:
        media = todo.popleft()
        todo += cache.on_media_data(media.lba, media.sectors, media.role)
    return reads


def main() -> None:
    cache = SegmentedCache(FUJITSU_MAN3184MP.cache)
    order = [0, 1, 2, 3, 8, 4, 9, 5, 10, 6, 11, 7]  # interleaved read stream
    print("request stream (64KB blocks):", ", ".join(f"B{b + 1}" for b in order))
    for block in order:
        for media in serve(cache, block):
            if media.role is MediaRole.LOCAL_PREFETCH:
                print(f"  -> 512KB prefetch from B{block + 1} "
                      f"(lba {media.lba}, {media.sectors} sectors)")
    print(f"local prefetches fired: {cache.local_prefetch_count}")

    print("\ndraining a fresh 512KB prefetch in 128KB slices:")
    cache2 = SegmentedCache(FUJITSU_MAN3184MP.cache)
    for block in (3, 8, 4):  # B4, B9, B5: a prefetch from B5
        serve(cache2, block)
    for i in range(4):
        kind, _ = cache2.read_lookup(4 * BLOCK_SECTORS + i * 256, 256)
        print(f"  128KB read {i + 1}: {kind.value}")
    rotations = cache2.take_penalty_rotations()
    print(f"repositioning penalty owed to the next media op: {rotations} rotation(s)")


if __name__ == "__main__":
    main()
