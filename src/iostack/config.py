"""INI configuration loading with strict validation and full echo.

Every key is type-checked, unknown keys are rejected, and the complete set
of effective parameters (explicit or defaulted) is echoed into the run
report so any result can be reproduced from its summary alone.
"""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass, field

from .diskcache import DiskCacheConfig, ReadPrefetch, WritePolicy
from .disk import DiskGeometry, Mapping, SeekProfile, Zone
from .fscache import FsCacheConfig
from .profiles import PROFILES, DriveProfile
from .replay import ReplayMode, ReplayPolicy, StackConfig
from .requests import AccessMode
from .scheduler import Policy
from .trace import DEFAULT_SYSTEM_PROCESSES
from .workload import SEQUENTIAL_ADDRESSES, DistKind, DistSpec, GeneratorSpec


class ConfigError(ValueError):
    pass


@dataclass
class RunSpec:
    """Everything a run needs, as loaded from one config file."""

    stack: StackConfig
    policy: ReplayPolicy
    trace_path: str | None = None
    cluster_bytes: int = 4096
    system_processes: tuple[str, ...] = DEFAULT_SYSTEM_PROCESSES
    workloads: list[GeneratorSpec] = field(default_factory=list)
    baseline_path: str | None = None
    echo: dict[str, str] = field(default_factory=dict)


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key}: expected integer, got {raw!r}") from None


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key}: expected number, got {raw!r}") from None


def _parse_bool(section: str, key: str, raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{section}.{key}: expected boolean, got {raw!r}")


def _parse_enum(section: str, key: str, raw: str, enum_cls):
    try:
        return enum_cls(raw.strip().upper())
    except ValueError:
        choices = ", ".join(e.value for e in enum_cls)
        raise ConfigError(f"{section}.{key}: expected one of {choices}, got {raw!r}") from None


def _parse_zones(section: str, raw: str) -> tuple[Zone, ...]:
    zones = []
    for part in raw.split(","):
        try:
            first, spt = part.strip().split(":")
            zones.append(Zone(int(first), int(spt)))
        except ValueError:
            raise ConfigError(
                f"{section}.zones: expected 'first:spt,first:spt,...', got {raw!r}"
            ) from None
    return tuple(zones)


def _parse_dist(section: str, key: str, raw: str, clamp: tuple | None) -> DistSpec:
    parts = [p.strip() for p in raw.split(":")]
    kind_token = parts[0].upper()
    try:
        kind = DistKind(kind_token)
    except ValueError:
        choices = ", ".join(k.value.lower() for k in DistKind)
        raise ConfigError(f"{section}.{key}: unknown distribution {parts[0]!r} ({choices})") from None
    try:
        params = tuple(float(p) for p in parts[1:])
        return DistSpec(kind, params, clamp)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: {exc}") from None


def _parse_clamp(section: str, key: str, raw: str) -> tuple[float, float]:
    try:
        lo, hi = (float(p) for p in raw.split(":"))
        return lo, hi
    except ValueError:
        raise ConfigError(f"{section}.{key}: expected 'min:max', got {raw!r}") from None


class _Section:
    """One section's raw keys with consumption tracking."""

    def __init__(self, name: str, raw: dict[str, str]):
        self.name = name
        self.raw = dict(raw)
        self.seen: set[str] = set()

    def get(self, key: str, default=None) -> str | None:
        self.seen.add(key)
        return self.raw.get(key, default)

    def reject_unknown(self) -> None:
        unknown = sorted(set(self.raw) - self.seen)
        if unknown:
            raise ConfigError(f"{self.name}.{unknown[0]}: unknown key")


def _geometry_fields(section: _Section, base: DiskGeometry | None) -> DiskGeometry:
    values = {}
    if base is not None:
        values = {f.name: getattr(base, f.name) for f in dataclasses.fields(DiskGeometry)}
    mapping = {
        "cylinders": _parse_int,
        "heads": _parse_int,
        "rpm": _parse_int,
        "track_skew_sectors": _parse_int,
        "cylinder_skew_sectors": _parse_int,
        "spares_per_zone_tail": _parse_int,
    }
    for key, parser in mapping.items():
        raw = section.get(key)
        if raw is not None:
            values[key] = parser(section.name, key, raw)
    raw = section.get("zones")
    if raw is not None:
        values["zones"] = _parse_zones(section.name, raw)
    raw = section.get("mapping")
    if raw is not None:
        values["mapping"] = _parse_enum(section.name, "mapping", raw, Mapping)
    if "rpm" in values and values["rpm"] <= 0:
        raise ConfigError(f"{section.name}.rpm: must be positive, got {values['rpm']}")
    missing = {"cylinders", "heads", "rpm", "zones"} - set(values)
    if missing:
        raise ConfigError(f"{section.name}.{sorted(missing)[0]}: required without a profile")
    try:
        return DiskGeometry(**values)
    except ValueError as exc:
        raise ConfigError(f"{section.name}: {exc}") from None


def _seek_fields(section: _Section, base: SeekProfile | None) -> SeekProfile:
    values = {}
    if base is not None:
        values = {f.name: getattr(base, f.name) for f in dataclasses.fields(SeekProfile)}
    for key in (
        "seek_read_min_us",
        "seek_read_avg_us",
        "seek_read_max_us",
        "seek_write_min_us",
        "seek_write_avg_us",
        "seek_write_max_us",
        "head_switch_us",
    ):
        raw = section.get(key)
        if raw is not None:
            values[key.removeprefix("seek_")] = _parse_float(section.name, key, raw)
    read_keys = {"read_min_us", "read_avg_us", "read_max_us"}
    if not read_keys <= set(values):
        raise ConfigError(f"{section.name}.seek_read_min_us: seek triple required without a profile")
    for side in ("min", "avg", "max"):
        values.setdefault(f"write_{side}_us", values[f"read_{side}_us"])
    values.setdefault("head_switch_us", values["read_min_us"])
    try:
        return SeekProfile(**values)
    except ValueError as exc:
        raise ConfigError(f"{section.name}: {exc}") from None


def _dataclass_overrides(section: _Section, base, parsers: dict[str, tuple]) -> dict:
    values = {f.name: getattr(base, f.name) for f in dataclasses.fields(type(base))}
    for key, (parser, *extra) in parsers.items():
        raw = section.get(key)
        if raw is not None:
            values[key] = parser(section.name, key, raw, *extra)
    return values


def load_config(text: str) -> RunSpec:
    """Parse and validate one INI configuration body."""

    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from None

    known = {"disk", "disk_cache", "os", "trace", "replay"}
    for name in parser.sections():
        if name not in known and not name.startswith("workload"):
            raise ConfigError(f"{name}: unknown section")

    def section(name: str) -> _Section:
        return _Section(name, dict(parser[name]) if parser.has_section(name) else {})

    # [disk]
    disk = section("disk")
    profile: DriveProfile | None = None
    profile_name = disk.get("profile")
    if profile_name is not None:
        if profile_name not in PROFILES:
            raise ConfigError(
                f"disk.profile: unknown profile {profile_name!r}; "
                f"available: {', '.join(sorted(PROFILES))}"
            )
        profile = PROFILES[profile_name]
    geometry = _geometry_fields(disk, profile.geometry if profile else None)
    seek = _seek_fields(disk, profile.seek if profile else None)
    disk.reject_unknown()

    # [disk_cache]
    cache_section = section("disk_cache")
    cache_base = profile.cache if profile else DiskCacheConfig()
    cache_values = _dataclass_overrides(
        cache_section,
        cache_base,
        {
            "total_bytes": (_parse_int,),
            "segment_count": (_parse_int,),
            "segment_bytes": (_parse_int,),
            "read_prefetch": (_parse_enum, ReadPrefetch),
            "prefetch_block_bytes": (_parse_int,),
            "write_policy": (_parse_enum, WritePolicy),
            "locality_radius_sectors": (_parse_int,),
            "fill_chunk_sectors": (_parse_int,),
            "reposition_penalty": (_parse_bool,),
            "background_destage": (_parse_bool,),
        },
    )
    cache_section.reject_unknown()
    try:
        cache = DiskCacheConfig(**cache_values)
    except ValueError as exc:
        raise ConfigError(f"disk_cache: {exc}") from None

    # [os]
    os_section = section("os")
    fs_values = _dataclass_overrides(
        os_section,
        FsCacheConfig(),
        {
            "block_bytes": (_parse_int,),
            "view_bytes": (_parse_int,),
            "readahead_trigger": (_parse_int,),
            "readahead_window_factor": (_parse_int,),
            "working_set_bytes": (_parse_int,),
            "reserve_constant_bytes": (_parse_int,),
            "fastio_hit_cost_us": (_parse_int,),
            "miss_path_cost_us": (_parse_int,),
            "memcopy_bytes_per_us": (_parse_int,),
            "cache_capacity_bytes": (_parse_int,),
            "metadata_write_bytes": (_parse_int,),
            "metadata_disk_addr": (_parse_int,),
            "open_close_cost_us": (_parse_int,),
        },
    )
    raw_policy = os_section.get("scheduler_policy")
    scheduler_policy = (
        _parse_enum("os", "scheduler_policy", raw_policy, Policy) if raw_policy else Policy.FCFS
    )
    os_section.reject_unknown()
    try:
        fs = FsCacheConfig(**fs_values)
    except ValueError as exc:
        raise ConfigError(f"os: {exc}") from None

    # [trace]
    trace_section = section("trace")
    trace_path = trace_section.get("path")
    cluster_raw = trace_section.get("cluster_bytes")
    cluster_bytes = _parse_int("trace", "cluster_bytes", cluster_raw) if cluster_raw else 4096
    include_raw = trace_section.get("include_system")
    include_system = (
        _parse_bool("trace", "include_system", include_raw) if include_raw else False
    )
    deny_raw = trace_section.get("process_deny")
    system_processes = (
        tuple(p.strip() for p in deny_raw.split(",") if p.strip())
        if deny_raw
        else DEFAULT_SYSTEM_PROCESSES
    )
    trace_section.reject_unknown()

    # [workload*]
    workloads = []
    for name in parser.sections():
        if name.startswith("workload"):
            workloads.append(_load_workload(_Section(name, dict(parser[name]))))

    # [replay]
    replay_section = section("replay")
    mode_raw = replay_section.get("mode", "closed")
    mode = {
        "closed": ReplayMode.CLOSED_LOOP,
        "open": ReplayMode.OPEN_LOOP_TIMED,
    }.get(mode_raw.strip().lower())
    if mode is None:
        raise ConfigError(f"replay.mode: expected closed or open, got {mode_raw!r}")
    tol_raw = replay_section.get("tolerance_us")
    tolerance_us = _parse_int("replay", "tolerance_us", tol_raw) if tol_raw else 0
    if tolerance_us < 0:
        raise ConfigError(f"replay.tolerance_us: must be >= 0, got {tolerance_us}")
    baseline_path = replay_section.get("baseline")
    replay_section.reject_unknown()

    stack = StackConfig(
        geometry=geometry,
        seek=seek,
        fs=fs,
        cache=cache,
        scheduler_policy=scheduler_policy,
        include_system_requests=include_system,
    )
    policy = ReplayPolicy(mode=mode, tolerance_us=tolerance_us)
    spec = RunSpec(
        stack=stack,
        policy=policy,
        trace_path=trace_path,
        cluster_bytes=cluster_bytes,
        system_processes=system_processes,
        workloads=workloads,
        baseline_path=baseline_path,
    )
    spec.echo = build_echo(spec, profile_name)
    return spec


def _load_workload(section: _Section) -> GeneratorSpec:
    name = section.name

    def need_int(key: str) -> int:
        raw = section.get(key)
        if raw is None:
            raise ConfigError(f"{name}.{key}: required")
        return _parse_int(name, key, raw)

    count = need_int("count")
    seed = need_int("seed")
    values: dict = {"count": count, "seed": seed}
    for key in ("file_id", "disk_base_bytes", "size_granularity_bytes", "start_time_us", "address_base"):
        raw = section.get(key)
        if raw is not None:
            values[key] = _parse_int(name, key, raw)
    for key in ("read_weight", "write_weight"):
        raw = section.get(key)
        if raw is not None:
            values[key] = _parse_float(name, key, raw)
    raw = section.get("mode")
    if raw is not None:
        values["mode"] = _parse_enum(name, "mode", raw, AccessMode)
    raw = section.get("emit_open_close")
    if raw is not None:
        values["emit_open_close"] = _parse_bool(name, "emit_open_close", raw)
    for key, target in (("inter_arrival_us", "inter_arrival_us"), ("size_bytes", "size_bytes")):
        raw = section.get(key)
        clamp_raw = section.get(f"{key}_clamp")
        clamp = _parse_clamp(name, f"{key}_clamp", clamp_raw) if clamp_raw else None
        if raw is not None:
            values[target] = _parse_dist(name, key, raw, clamp)
    raw = section.get("address")
    if raw is not None:
        if raw.strip().lower() == "sequential":
            values["address"] = SEQUENTIAL_ADDRESSES
        else:
            clamp_raw = section.get("address_clamp")
            clamp = _parse_clamp(name, "address_clamp", clamp_raw) if clamp_raw else None
            values["address"] = _parse_dist(name, "address", raw, clamp)
    section.reject_unknown()
    try:
        return GeneratorSpec(**values)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def build_echo(spec: RunSpec, profile_name: str | None = None) -> dict[str, str]:
    """Flatten every effective parameter into one deterministic mapping."""

    echo: dict[str, str] = {}
    if profile_name:
        echo["disk.profile"] = profile_name
    g = spec.stack.geometry
    echo["disk.cylinders"] = str(g.cylinders)
    echo["disk.heads"] = str(g.heads)
    echo["disk.rpm"] = str(g.rpm)
    echo["disk.zones"] = ",".join(f"{z.first_cylinder}:{z.sectors_per_track}" for z in g.zones)
    echo["disk.track_skew_sectors"] = str(g.track_skew_sectors)
    echo["disk.cylinder_skew_sectors"] = str(g.cylinder_skew_sectors)
    echo["disk.spares_per_zone_tail"] = str(g.spares_per_zone_tail)
    echo["disk.mapping"] = g.mapping.value
    s = spec.stack.seek
    for fld in dataclasses.fields(SeekProfile):
        echo[f"disk.seek_{fld.name}" if not fld.name.startswith("head") else f"disk.{fld.name}"] = (
            f"{getattr(s, fld.name):g}"
        )
    c = spec.stack.cache
    for fld in dataclasses.fields(DiskCacheConfig):
        value = getattr(c, fld.name)
        echo[f"disk_cache.{fld.name}"] = value.value if hasattr(value, "value") else str(value)
    f = spec.stack.fs
    for fld in dataclasses.fields(FsCacheConfig):
        value = getattr(f, fld.name)
        echo[f"os.{fld.name}"] = str(value)
    echo["os.scheduler_policy"] = spec.stack.scheduler_policy.value
    echo["trace.cluster_bytes"] = str(spec.cluster_bytes)
    echo["trace.include_system"] = str(spec.stack.include_system_requests)
    echo["trace.process_deny"] = ",".join(spec.system_processes)
    if spec.trace_path:
        echo["trace.path"] = spec.trace_path
    echo["replay.mode"] = spec.policy.mode.value
    echo["replay.tolerance_us"] = str(spec.policy.tolerance_us)
    if spec.baseline_path:
        echo["replay.baseline"] = spec.baseline_path
    for i, w in enumerate(spec.workloads):
        prefix = f"workload{i}"
        echo[f"{prefix}.count"] = str(w.count)
        echo[f"{prefix}.seed"] = str(w.seed)
        echo[f"{prefix}.mode"] = w.mode.value
        echo[f"{prefix}.size_bytes"] = _dist_repr(w.size_bytes)
        echo[f"{prefix}.inter_arrival_us"] = _dist_repr(w.inter_arrival_us)
        echo[f"{prefix}.address"] = (
            w.address if isinstance(w.address, str) else _dist_repr(w.address)
        )
        echo[f"{prefix}.address_base"] = str(w.address_base)
        echo[f"{prefix}.file_id"] = str(w.file_id)
        echo[f"{prefix}.disk_base_bytes"] = str(w.disk_base_bytes)
    return echo


def _dist_repr(dist: DistSpec) -> str:
    body = ":".join([dist.kind.value.lower()] + [f"{p:g}" for p in dist.params])
    if dist.clamp:
        body += f" clamp {dist.clamp[0]:g}:{dist.clamp[1]:g}"
    return body
