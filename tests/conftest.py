"""Shared fixtures: the reference tracer sample, small stack configs and an observed replay."""

from __future__ import annotations

import copy

import pytest

from iostack import (
    DiskCacheConfig,
    DiskGeometry,
    FsCacheConfig,
    Policy,
    ReadPrefetch,
    ReplayPolicy,
    SeekProfile,
    SimEvent,
    StackConfig,
    Zone,
    replay,
)

# Eleven-line capture from the tracer this parser targets, kept verbatim
# (tab-delimited, hours sometimes printed without a leading zero).
SAMPLE_TRACE = (
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

#: The scheduler policies the seeded tests draw from or loop over.  Five
#: entries, with LOOK and C-LOOK twice each, keep every liveness seed and
#: every configuration-matrix digest on the configuration it has always
#: named: the dropped SCAN and C-SCAN dispatched exactly as LOOK and C-LOOK.
SEEDED_POLICIES = (Policy.FCFS, Policy.LOOK, Policy.LOOK, Policy.C_LOOK, Policy.C_LOOK)


@pytest.fixture
def sample_trace_text() -> str:
    return SAMPLE_TRACE


#: The drive's head before its first media op, as ``service`` takes it:
#: (cylinder, head, angle_revs, time_us).
HEAD_AT_REST = (0, 0, 0.0, 0.0)


def tiny_geometry(
    spt: int = 100,
    cylinders: int = 60,
    heads: int = 2,
    rpm: int = 6000,
    track_skew: int = 0,
    cylinder_skew: int = 0,
) -> DiskGeometry:
    return DiskGeometry(
        cylinders=cylinders,
        heads=heads,
        zones=(Zone(0, spt),),
        rpm=rpm,
        track_skew_sectors=track_skew,
        cylinder_skew_sectors=cylinder_skew,
    )


def flat_seek(min_us: float = 400, avg_us: float = 1500, max_us: float = 3000, switch_us: float = 0) -> SeekProfile:
    return SeekProfile(
        read_min_us=min_us,
        read_avg_us=avg_us,
        read_max_us=max_us,
        write_min_us=min_us,
        write_avg_us=avg_us,
        write_max_us=max_us,
        head_switch_us=switch_us,
    )


def zero_cost_fs(**overrides) -> FsCacheConfig:
    """FS cache with every flat latency zeroed, for hand-computable timing."""

    values = dict(
        fastio_hit_cost_us=0,
        miss_path_cost_us=0,
        memcopy_bytes_per_us=10**9,
    )
    values.update(overrides)
    return FsCacheConfig(**values)


def plain_stack(
    geometry: DiskGeometry | None = None,
    fs: FsCacheConfig | None = None,
    cache: DiskCacheConfig | None = None,
    **stack_overrides,
) -> StackConfig:
    """A neutral stack: no drive prefetch, flat seeks, zero OS costs."""

    return StackConfig(
        geometry=geometry or tiny_geometry(spt=128, cylinders=3000, heads=4),
        seek=flat_seek(),
        fs=fs or zero_cost_fs(),
        cache=cache or DiskCacheConfig(read_prefetch=ReadPrefetch.NONE),
        **stack_overrides,
    )


def echo_to_ini(echo: dict[str, str]) -> str:
    """An INI body holding every ``section.key`` -> value entry of a config echo."""

    sections: dict[str, list[str]] = {}
    for dotted, value in echo.items():
        section, key = dotted.split(".", 1)
        sections.setdefault(section, []).append(f"{key} = {value}")
    return "".join(f"[{name}]\n" + "\n".join(lines) + "\n" for name, lines in sections.items())


def observed(requests, stack: StackConfig, policy: ReplayPolicy = ReplayPolicy()):
    """``(result, events)``: one replay and the events it dispatched, recorded as it ran.

    A payload is one object for its whole round trip, so each event keeps a
    shallow copy of its payload as it was dispatched.
    """

    events: list[SimEvent] = []

    def keep(event: SimEvent) -> None:
        events.append(event._replace(payload=copy.copy(event.payload)))

    return replay(requests, stack, policy, observe=keep), events
