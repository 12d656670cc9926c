"""INI configuration loading with strict validation and full echo.

The config dataclasses are the schema: the keys of ``[disk]``,
``[disk_cache]``, ``[os]`` and each ``[workload*]`` section are the fields
of the dataclasses those sections configure, and one parser and one
formatter, chosen by field type, serve every key.  Unknown keys are
rejected.  The echo walks the same fields under the same key names, so the
complete set of effective parameters (explicit or defaulted) written into
the run report loads back as the same run.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import re
import typing
from dataclasses import dataclass, field
from enum import Enum

from .diskcache import DiskCacheConfig
from .disk import DiskGeometry, SeekProfile, Zone
from .fscache import FsCacheConfig
from .profiles import PROFILES
from .replay import ReplayMode, ReplayPolicy, StackConfig
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
    #: The drive profile named in ``[disk]``, if any.
    profile_name: str | None = None

    @property
    def echo(self) -> dict[str, str]:
        return build_echo(self)


#: ``[replay] mode`` values.
REPLAY_MODES = {"closed": ReplayMode.CLOSED_LOOP, "open": ReplayMode.OPEN_LOOP_TIMED}

_BOOLS = {
    **dict.fromkeys(("1", "true", "yes", "on"), True),
    **dict.fromkeys(("0", "false", "no", "off"), False),
}


def _keys(cls, key=lambda name: name) -> dict[str, tuple[str, object]]:
    """INI key -> (field name, field type) for every field of a config dataclass."""

    types = typing.get_type_hints(cls)
    return {key(f.name): (f.name, types[f.name]) for f in dataclasses.fields(cls)}


GEOMETRY_KEYS = _keys(DiskGeometry)
#: The seek triples keep a ``seek_`` prefix; ``head_switch_us`` has none.
SEEK_KEYS = _keys(
    SeekProfile, lambda name: f"seek_{name}" if name.startswith(("read_", "write_")) else name
)
DISK_CACHE_KEYS = _keys(DiskCacheConfig)
FS_KEYS = _keys(FsCacheConfig)
WORKLOAD_KEYS = _keys(GeneratorSpec)
#: Field types that hold a distribution: field ``k`` also takes ``k_clamp``.
_DISTRIBUTIONS = (DistSpec, str | DistSpec)


def _zones(text: str) -> tuple[Zone, ...]:
    zones = []
    for part in text.split(","):
        try:
            first, spt = part.split(":")
            zones.append(Zone(int(first), int(spt)))
        except ValueError:
            raise ValueError(f"expected 'first:spt,first:spt,...', got {text!r}") from None
    return tuple(zones)


def _value(kind, text: str):
    """``text`` as a value of field type ``kind``."""

    if kind is bool:
        if text.lower() not in _BOOLS:
            raise ValueError(f"expected boolean, got {text!r}")
        return _BOOLS[text.lower()]
    if kind is int or kind is float:
        try:
            value = kind(text)
        except ValueError:
            value = None
        # A float must be finite: ``inf`` and ``nan`` parse, but no key means them.
        if value is None or kind is float and not math.isfinite(value):
            expected = "integer" if kind is int else "finite number"
            raise ValueError(f"expected {expected}, got {text!r}")
        return value
    if kind == tuple[Zone, ...]:
        return _zones(text)
    if kind in _DISTRIBUTIONS:
        if kind != DistSpec and text.upper() == SEQUENTIAL_ADDRESSES:
            return SEQUENTIAL_ADDRESSES
        name, *params = text.split(":")
        return DistSpec(_value(DistKind, name.strip()), tuple(_value(float, p) for p in params))
    choices = [member.value for member in kind]
    if text.upper() not in choices:
        raise ValueError(f"expected one of {', '.join(choices)}, got {text!r}")
    return kind(text.upper())


def _clamped(dist, text: str) -> DistSpec:
    """``dist`` clamped to the ``min:max`` range ``text``."""

    if not isinstance(dist, DistSpec):
        raise ValueError("clamps only a distribution set in the same section")
    try:
        lo, hi = text.split(":")
    except ValueError:
        raise ValueError(f"expected 'min:max', got {text!r}") from None
    return dataclasses.replace(dist, clamp=(_value(float, lo), _value(float, hi)))


def _parse(section: str, key: str, parse, *args):
    """``parse(*args)``, its errors reported against ``section.key``."""

    try:
        return parse(*args)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: {exc}") from None


def _format(value) -> str:
    """The INI text that parses back to ``value``."""

    if isinstance(value, float):
        # The shortest text that round-trips, without a bare ".0".
        return repr(value).removesuffix(".0")
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, DistSpec):
        return ":".join([value.kind.value.lower(), *map(_format, value.params)])
    if isinstance(value, Zone):
        return f"{value.first_cylinder}:{value.sectors_per_track}"
    if isinstance(value, tuple):
        return ",".join(map(_format, value))
    return str(value)


class _Section:
    """One section's raw keys with consumption tracking."""

    def __init__(self, name: str, raw: dict[str, str]):
        self.name = name
        self.raw = dict(raw)
        self.seen: set[str] = set()

    def get(self, key: str, default=None) -> str | None:
        self.seen.add(key)
        return self.raw.get(key, default)

    def value(self, key: str, kind, default):
        raw = self.get(key)
        return default if raw is None else _parse(self.name, key, _value, kind, raw)

    def reject_unknown(self) -> None:
        unknown = sorted(set(self.raw) - self.seen)
        if unknown:
            raise ConfigError(f"{self.name}.{unknown[0]}: unknown key")


def _read(section: _Section, keys: dict, base=None) -> dict:
    """The field values of ``base``, if given, overridden by the section's keys."""

    values = {}
    if base is not None:
        values = {f.name: getattr(base, f.name) for f in dataclasses.fields(base)}
    for key, (name, kind) in keys.items():
        raw = section.get(key)
        if raw is not None:
            values[name] = _parse(section.name, key, _value, kind, raw)
        clamp = section.get(f"{key}_clamp") if kind in _DISTRIBUTIONS else None
        if clamp is not None:
            values[name] = _parse(section.name, f"{key}_clamp", _clamped, values.get(name), clamp)
    return values


def _make(section: str, cls, keys: dict, values: dict, missing: str = "required"):
    """``cls(**values)``; a field without a default must be in ``values``."""

    required = {
        f.name
        for f in dataclasses.fields(cls)
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    }
    for key, (name, _) in keys.items():
        if name in required and name not in values:
            raise ConfigError(f"{section}.{key}: {missing}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from None


def _seek(section: _Section, base: SeekProfile | None) -> SeekProfile:
    values = _read(section, SEEK_KEYS, base)
    if base is None:
        # Write seeks default to the read triple, a head switch to a
        # one-cylinder seek.
        for name in [name for name in values if name.startswith("read_")]:
            values.setdefault(name.replace("read_", "write_", 1), values[name])
        if "read_min_us" in values:
            values.setdefault("head_switch_us", values["read_min_us"])
    return _make("disk", SeekProfile, SEEK_KEYS, values, "seek triple required without a profile")


def load_config(text: str) -> RunSpec:
    """Parse and validate one INI configuration body."""

    parser = configparser.ConfigParser(interpolation=None)
    try:
        # configparser ends lines at "\n" alone; ending them where
        # ``splitlines`` does keeps every name and value to one line.
        parser.read_string("\n".join(text.splitlines()))
    except configparser.Error as exc:
        # Its message spans lines: the error, then the offending line.  It
        # names the source as '<string>'; the caller names the file.
        message = re.sub(r"(?:While reading from |file: )?'<string>',?", "", str(exc))
        raise ConfigError(f"config syntax: {' '.join(message.split())}") from None

    known = {"disk", "disk_cache", "os", "trace", "replay"}
    for name in parser.sections():
        if name not in known and not name.startswith("workload"):
            raise ConfigError(f"{name}: unknown section")

    def section(name: str) -> _Section:
        return _Section(name, dict(parser[name]) if parser.has_section(name) else {})

    # [disk]
    disk = section("disk")
    profile_name = disk.get("profile")
    if profile_name is not None and profile_name not in PROFILES:
        raise ConfigError(
            f"disk.profile: unknown profile {profile_name!r}; "
            f"available: {', '.join(sorted(PROFILES))}"
        )
    profile = PROFILES.get(profile_name)
    values = _read(disk, GEOMETRY_KEYS, profile.geometry if profile else None)
    if values.get("rpm", 1) <= 0:
        raise ConfigError(f"disk.rpm: must be positive, got {values['rpm']}")
    geometry = _make("disk", DiskGeometry, GEOMETRY_KEYS, values, "required without a profile")
    seek = _seek(disk, profile.seek if profile else None)
    disk.reject_unknown()

    # [disk_cache]
    cache_section = section("disk_cache")
    values = _read(cache_section, DISK_CACHE_KEYS, profile.cache if profile else None)
    cache = _make("disk_cache", DiskCacheConfig, DISK_CACHE_KEYS, values)
    if cache.segment_count * cache.segment_bytes > geometry.usable_bytes:
        raise ConfigError(
            f"disk_cache.segment_count: {cache.segment_count} segments of segment_bytes "
            f"{cache.segment_bytes} exceed the disk's {geometry.usable_bytes} bytes"
        )
    cache_section.reject_unknown()

    # [os]
    os_section = section("os")
    fs = _make("os", FsCacheConfig, FS_KEYS, _read(os_section, FS_KEYS))
    scheduler_policy = os_section.value("scheduler_policy", Policy, Policy.FCFS)
    os_section.reject_unknown()

    # [trace]
    trace_section = section("trace")
    trace_path = trace_section.get("path")
    cluster_bytes = trace_section.value("cluster_bytes", int, 4096)
    if cluster_bytes < 512 or cluster_bytes & (cluster_bytes - 1):
        raise ConfigError(f"trace.cluster_bytes: must be a power of two >= 512, got {cluster_bytes}")
    include_system = trace_section.value("include_system", bool, False)
    deny_raw = trace_section.get("process_deny")
    system_processes = (
        DEFAULT_SYSTEM_PROCESSES
        if deny_raw is None
        else tuple(p.strip() for p in deny_raw.split(",") if p.strip())
    )
    trace_section.reject_unknown()

    # [workload*]
    workloads = []
    for name in parser.sections():
        if name.startswith("workload"):
            workload = _Section(name, dict(parser[name]))
            values = _read(workload, WORKLOAD_KEYS)
            workload.reject_unknown()
            workloads.append(_make(name, GeneratorSpec, WORKLOAD_KEYS, values))

    # [replay]
    replay_section = section("replay")
    mode_raw = replay_section.get("mode", "closed")
    mode = REPLAY_MODES.get(mode_raw.strip().lower())
    if mode is None:
        raise ConfigError(f"replay.mode: expected closed or open, got {mode_raw!r}")
    tolerance_us = replay_section.value("tolerance_us", int, 0)
    if tolerance_us < 0:
        raise ConfigError(f"replay.tolerance_us: must be >= 0, got {tolerance_us}")
    baseline_path = replay_section.get("baseline")
    replay_section.reject_unknown()

    return RunSpec(
        stack=StackConfig(geometry, seek, fs, cache, scheduler_policy, include_system),
        policy=ReplayPolicy(mode, tolerance_us),
        trace_path=trace_path,
        cluster_bytes=cluster_bytes,
        system_processes=system_processes,
        workloads=workloads,
        baseline_path=baseline_path,
        profile_name=profile_name,
    )


def build_echo(spec: RunSpec) -> dict[str, str]:
    """Flatten every effective parameter into one deterministic mapping.

    Every entry is ``section.key`` -> value text that :func:`load_config`
    accepts, so the echo loads back as the same run.
    """

    echo: dict[str, str] = {}

    def fields(section: str, keys: dict, obj) -> None:
        for key, (name, _) in keys.items():
            value = getattr(obj, name)
            echo[f"{section}.{key}"] = _format(value)
            if isinstance(value, DistSpec) and value.clamp is not None:
                echo[f"{section}.{key}_clamp"] = ":".join(map(_format, value.clamp))

    if spec.profile_name:
        echo["disk.profile"] = spec.profile_name
    fields("disk", GEOMETRY_KEYS, spec.stack.geometry)
    fields("disk", SEEK_KEYS, spec.stack.seek)
    fields("disk_cache", DISK_CACHE_KEYS, spec.stack.cache)
    fields("os", FS_KEYS, spec.stack.fs)
    echo["os.scheduler_policy"] = _format(spec.stack.scheduler_policy)
    echo["trace.cluster_bytes"] = _format(spec.cluster_bytes)
    echo["trace.include_system"] = _format(spec.stack.include_system_requests)
    echo["trace.process_deny"] = _format(spec.system_processes)
    if spec.trace_path:
        echo["trace.path"] = spec.trace_path
    echo["replay.mode"] = next(k for k, mode in REPLAY_MODES.items() if mode is spec.policy.mode)
    echo["replay.tolerance_us"] = _format(spec.policy.tolerance_us)
    if spec.baseline_path:
        echo["replay.baseline"] = spec.baseline_path
    for i, w in enumerate(spec.workloads):
        fields(f"workload{i}", WORKLOAD_KEYS, w)
    return echo
