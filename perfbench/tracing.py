"""Per-layer spans recorded from outside the program.

The tracer replaces functions and methods of the iostack modules with timing
wrappers for the duration of a ``with`` block and restores them afterwards,
so the untraced runs execute the program unchanged.  Each call becomes one
span (name, parent span, start, end) kept in flat arrays; a layer's self
time is its spans' durations minus the durations of their direct children,
so time spent in ``missing_runs`` is not counted again in ``read_lookup``.
Counters are taken at the same call boundaries from arguments and results.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import iostack.diskcache
import iostack.engine
import iostack.fscache
import iostack.reports
import iostack.scheduler
import iostack.trace

# ``import iostack.replay`` binds the ``replay`` function re-exported by the
# package, not the module that holds the stages.
REPLAY_MODULE = sys.modules["iostack.replay"]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.counts: Counter[str] = Counter()
        #: Values read off the layers' state: the last one seen wins.
        self.gauges: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Drop every span and counter recorded so far."""

        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open = [-1]
        self.counts.clear()
        self.gauges.clear()

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        """``fn`` recording one span per call; ``observe(args, result)`` counts."""

        ix = self._name_ix.setdefault(name, len(self.names))
        if ix == len(self.names):
            self.names.append(name)
        tracer = self

        def traced(*args, **kwargs):
            span = len(tracer.span_start)
            tracer.span_name.append(ix)
            tracer.span_parent.append(tracer._open[-1])
            tracer.span_end.append(0.0)
            tracer._open.append(span)
            tracer.span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[span] = perf_counter()
                tracer._open.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def self_times(self) -> dict[str, np.ndarray]:
        """Self seconds of every span, grouped by span name."""

        start = np.frombuffer(self.span_start, dtype=np.float64)
        duration = np.frombuffer(self.span_end, dtype=np.float64) - start
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        names = np.frombuffer(self.span_name, dtype=np.uint16)
        own = duration.copy()
        nested = parent >= 0
        np.subtract.at(own, parent[nested], duration[nested])
        return {name: own[names == ix] for ix, name in enumerate(self.names)}

    def save(self, path: Path) -> None:
        """Write the recorded spans out as arrays (seconds from the first span)."""

        start = np.frombuffer(self.span_start, dtype=np.float64)
        origin = start[0] if len(start) else 0.0
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=start - origin,
            end=np.frombuffer(self.span_end, dtype=np.float64) - origin,
        )


def _observers(t: Tracer) -> dict[str, Callable]:
    fsc = iostack.fscache
    Lookup = iostack.diskcache.Lookup
    Ack = iostack.diskcache.Ack
    c = t.counts

    def on_read(args, plan):
        c["fscache.reads"] += 1
        c["fscache.read_hits"] += plan.hit
        c["fscache.prefetch_ios"] += sum(io.purpose == fsc.PREFETCH for io in plan.ios)

    def on_write(args, plan):
        c["fscache.write_splits"] += 1

    def flushed(args, ios):
        c["fscache.flushes"] += len(ios)

    def enqueue(args, result):
        depth = len(args[0])
        c["scheduler.enqueues"] += 1
        c["scheduler.depth_sum"] += depth
        t.gauges["scheduler.depth_max"] = max(t.gauges.get("scheduler.depth_max", 0), depth)

    def next_(args, result):
        # One queue per replay: its running sweep total ends as the replay's.
        t.gauges["scheduler.travel_cylinders"] = args[0].travel_cylinders

    def read_lookup(args, result):
        c["diskcache.lookups"] += 1
        c["diskcache.hits"] += result[0] is Lookup.HIT
        c["diskcache.partials"] += result[0] is Lookup.PARTIAL

    def write_accept(args, result):
        c["diskcache.write_accepts"] += 1
        c["diskcache.ack_now"] += result[0] is Ack.ACK_NOW

    def service(args, result):
        c["disk.sectors"] += args[1]

    return {
        "fscache.on_read": on_read,
        "fscache.on_write": on_write,
        "fscache.flush_all": flushed,
        "fscache.next_progressive_flush": flushed,
        "scheduler.enqueue": enqueue,
        "scheduler.next": next_,
        "diskcache.read_lookup": read_lookup,
        "diskcache.write_accept": write_accept,
        "disk.service": service,
    }


def _targets() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every wrapped call boundary."""

    r = REPLAY_MODULE
    fs = iostack.fscache.FsCache
    queue = iostack.scheduler.PendingQueue
    cache = iostack.diskcache.SegmentedCache
    return [
        (iostack.engine.Simulator, "run", "engine.run"),
        (r.AppStage, "handle", "replay.app"),
        (r.FsStage, "handle", "replay.fs_stage"),
        (r.SchedulerStage, "handle", "replay.scheduler_stage"),
        (r.DiskCacheStage, "handle", "replay.disk_cache_stage"),
        (r.DiskStage, "handle", "replay.disk_stage"),
        (fs, "on_read", "fscache.on_read"),
        (fs, "on_write", "fscache.on_write"),
        (fs, "on_block_loaded", "fscache.on_block_loaded"),
        (fs, "flush_all", "fscache.flush_all"),
        (fs, "next_progressive_flush", "fscache.next_progressive_flush"),
        (fs, "metadata_io", "fscache.metadata_io"),
        (queue, "enqueue", "scheduler.enqueue"),
        (queue, "next", "scheduler.next"),
        (cache, "read_lookup", "diskcache.read_lookup"),
        (cache, "missing_runs", "diskcache.missing_runs"),
        (cache, "resident", "diskcache.resident"),
        (cache, "expect_fill", "diskcache.expect_fill"),
        (cache, "on_media_data", "diskcache.on_media_data"),
        (cache, "take_penalty_rotations", "diskcache.take_penalty_rotations"),
        (cache, "write_accept", "diskcache.write_accept"),
        (cache, "destage_next", "diskcache.destage_next"),
        # Imported into the replay module by name, so wrapped there.
        (r, "service", "disk.service"),
        (r, "cylinder_of_byte", "disk.cylinder_of_byte"),
        (iostack.trace, "read_canonical", "trace.read_canonical"),
        (iostack.reports, "emit_reports", "reports.emit_reports"),
    ]


@contextmanager
def traced(tracer: Tracer):
    """Wrap every call boundary for the duration of the block."""

    observers = _observers(tracer)
    originals = []
    try:
        for owner, attr, name in _targets():
            fn = owner.__dict__[attr]
            originals.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(name, fn, observers.get(name)))
        yield tracer
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)
