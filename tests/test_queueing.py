"""Queueing-theory oracles: the replay checked against M/G/1 results.

Open-loop NO_BUFFER 4 KB reads, uniform over the first 8 GB of the Fujitsu
drive, arrive as a Poisson stream.  They pass the fs cache straight to an
FCFS scheduler that hands the drive one io at a time, so the scheduler queue
and the drive form an M/G/1 queue.  An io's service time S runs from its
dispatch to the drive (its DISK_CACHE ``io`` event) to its done form back at
the scheduler (its SCHEDULER ``io-done`` event).

The Pollaczek-Khinchine mean of queueing plus service is
E[S] + λE[S²] / (2(1 - ρ)) with ρ = λE[S]; each request adds the fs path's
fixed costs outside the queue (the miss path and the 4 KB copy).  λ and the
moments of S are taken from the run.  The simulated mean is not exactly that
mean, for two reasons:

- A run is 4000 requests from an empty queue, so its mean wait is the sample
  mean of correlated waits.  Its spread grows with ρ.
- Service times are not independent draws.  Each seek starts where the
  previous op left the head, and a busy drive starts each op at the
  rotational phase the previous one left.

Over seeds 0-119, at ρ of about 0.15, 0.30, 0.49 and 0.66, the error
averages 0.0, +0.1, +0.2 and +0.7 %, with standard deviations of 0.6, 1.0,
1.8 and 3.3 %: any bias is small next to the spread.  The largest |error| is 1.3,
2.4, 5.2 and 11.2 %.  ``PK_BOUNDS`` adds margin to the
largest errors.  Seeds 3 and 11 give -1.0, -1.6, -2.2, -1.2 % and -0.8,
-0.7, +0.2, +2.0 %.
"""

from __future__ import annotations

import random

import pytest

from iostack import (
    AccessMode,
    CanonicalRequest,
    Op,
    Origin,
    Policy,
    ReplayMode,
    ReplayPolicy,
    StackConfig,
    StageId,
    replay,
)
from iostack.fscache import IoMsg
from iostack.profiles import FUJITSU_MAN3184MP

KB = 1024
GB = 1024**3
REQUESTS = 4000
STACK = StackConfig(
    geometry=FUJITSU_MAN3184MP.geometry,
    seek=FUJITSU_MAN3184MP.seek,
    cache=FUJITSU_MAN3184MP.cache,
    scheduler_policy=Policy.FCFS,
)
#: Mean gap between arrivals (µs) -> largest |error| of the simulated mean
#: latency against Pollaczek-Khinchine, in percent.  The gaps give ρ of
#: about 0.15, 0.30, 0.49 and 0.66.
PK_BOUNDS = {39_000: 2.5, 19_500: 4.0, 11_900: 8.0, 8_800: 15.0}
SEEDS = (3, 11)


def poisson_reads(seed: int, mean_gap_us: float) -> list[CanonicalRequest]:
    rng = random.Random(seed)
    requests, t = [], 0
    for _ in range(REQUESTS):
        t += round(rng.expovariate(1 / mean_gap_us))
        addr = rng.randrange(8 * GB // (4 * KB)) * 4 * KB
        requests.append(
            CanonicalRequest(t, Origin.APP, Op.READ, 0, addr, 4 * KB, addr, AccessMode.NO_BUFFER)
        )
    return requests


@pytest.fixture(
    scope="module",
    params=[(seed, gap) for seed in SEEDS for gap in sorted(PK_BOUNDS)],
    ids=lambda param: f"seed{param[0]}-gap{param[1]}",
)
def run(request):
    """(mean gap, records, service times, APP event (time, kind) pairs) of one replay."""

    seed, mean_gap_us = request.param
    dispatched: dict[int, int] = {}
    service: list[int] = []
    app: list[tuple[int, str]] = []

    def watch(event) -> None:
        payload = event.payload
        if event.target is StageId.APP:
            app.append((event.fire_at_us, payload.kind))
        elif isinstance(payload, IoMsg):
            if event.target is StageId.DISK_CACHE and not payload.done:
                dispatched[payload.io_id] = event.fire_at_us
            elif event.target is StageId.SCHEDULER and payload.done:
                service.append(event.fire_at_us - dispatched.pop(payload.io_id))

    requests = poisson_reads(seed, mean_gap_us)
    result = replay(requests, STACK, ReplayPolicy(mode=ReplayMode.OPEN_LOOP_TIMED), observe=watch)
    assert not dispatched and len(service) == REQUESTS
    return mean_gap_us, result.records, service, app


def test_mean_latency_matches_pollaczek_khinchine(run):
    mean_gap_us, records, service, _ = run
    arrival_rate = len(records) / records[-1].issue_us
    mean_s = sum(service) / len(service)
    mean_s2 = sum(s * s for s in service) / len(service)
    rho = arrival_rate * mean_s
    assert 0.1 < rho < 0.7
    fixed = STACK.fs.miss_path_cost_us + STACK.fs.copy_us(4 * KB)
    predicted = fixed + mean_s + arrival_rate * mean_s2 / (2 * (1 - rho))
    simulated = sum(r.complete_us - r.issue_us for r in records) / len(records)
    assert abs(simulated / predicted - 1) * 100 < PK_BOUNDS[mean_gap_us]


def test_littles_law_holds_exactly(run):
    # The time integral of the requests in the system, swept over the APP
    # arrival and completion events, is the sum of the latencies.
    _, records, _, app = run
    area = in_system = 0
    last = app[0][0]
    for at, kind in app:
        area += in_system * (at - last)
        last = at
        in_system += 1 if kind == "request" else -1
    assert in_system == 0
    assert area == sum(r.complete_us - r.issue_us for r in records)
