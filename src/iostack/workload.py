"""Synthetic request stream generation from distribution specifications.

Each generator owns one PRNG (PCG64 seeded through ``SeedSequence(seed)``)
and draws, per request, in a fixed order: inter-arrival gap, operation,
size, then address.  That seed-to-stream mapping is part of the public
contract; golden-file tests depend on it staying stable.

numpy is imported by :func:`generate` on its first call, so a process that
only replays a trace never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Sequence

from .requests import AccessMode, CanonicalRequest, Op, Origin

if TYPE_CHECKING:
    import numpy as np


class InvalidParams(ValueError):
    """A distribution or generator specification failed validation."""


class DistKind(Enum):
    CONSTANT = "CONSTANT"
    UNIFORM = "UNIFORM"
    EXPONENTIAL = "EXPONENTIAL"
    NORMAL = "NORMAL"
    BINOMIAL = "BINOMIAL"
    POISSON = "POISSON"
    RANDOM_CHOICE = "RANDOM_CHOICE"


@dataclass(frozen=True)
class DistSpec:
    """One validated distribution with an optional final clamp.

    Parameters by kind: CONSTANT(value); UNIFORM(lo, hi); EXPONENTIAL(mean);
    NORMAL(mu, sigma); BINOMIAL(n, p); POISSON(lam); RANDOM_CHOICE(values).
    """

    kind: DistKind
    params: tuple = ()
    clamp: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        k, p = self.kind, self.params
        if k is DistKind.CONSTANT:
            if len(p) != 1:
                raise InvalidParams("CONSTANT takes exactly one value")
        elif k is DistKind.UNIFORM:
            if len(p) != 2 or p[0] > p[1]:
                raise InvalidParams("UNIFORM requires lo <= hi")
        elif k is DistKind.EXPONENTIAL:
            if len(p) != 1 or p[0] <= 0:
                raise InvalidParams("EXPONENTIAL requires mean > 0")
        elif k is DistKind.NORMAL:
            if len(p) != 2 or p[1] < 0:
                raise InvalidParams("NORMAL requires sigma >= 0")
        elif k is DistKind.BINOMIAL:
            if len(p) != 2 or p[0] < 0 or int(p[0]) != p[0] or not 0 <= p[1] <= 1:
                raise InvalidParams("BINOMIAL requires integer n >= 0 and 0 <= p <= 1")
        elif k is DistKind.POISSON:
            if len(p) != 1 or p[0] < 0:
                raise InvalidParams("POISSON requires lam >= 0")
        elif k is DistKind.RANDOM_CHOICE:
            if len(p) == 0:
                raise InvalidParams("RANDOM_CHOICE requires a non-empty value list")
        if self.clamp is not None and self.clamp[0] > self.clamp[1]:
            raise InvalidParams("clamp min must be <= max")

    @classmethod
    def constant(cls, value: float) -> "DistSpec":
        return cls(DistKind.CONSTANT, (value,))

    @classmethod
    def uniform(cls, lo: float, hi: float, clamp=None) -> "DistSpec":
        return cls(DistKind.UNIFORM, (lo, hi), clamp)

    @classmethod
    def exponential(cls, mean: float, clamp=None) -> "DistSpec":
        return cls(DistKind.EXPONENTIAL, (mean,), clamp)

    @classmethod
    def normal(cls, mu: float, sigma: float, clamp=None) -> "DistSpec":
        return cls(DistKind.NORMAL, (mu, sigma), clamp)

    @classmethod
    def binomial(cls, n: int, p: float, clamp=None) -> "DistSpec":
        return cls(DistKind.BINOMIAL, (n, p), clamp)

    @classmethod
    def poisson(cls, lam: float, clamp=None) -> "DistSpec":
        return cls(DistKind.POISSON, (lam,), clamp)

    @classmethod
    def choice(cls, values: Sequence[float], clamp=None) -> "DistSpec":
        return cls(DistKind.RANDOM_CHOICE, tuple(values), clamp)


def aligned_choices(extent_bytes: int, align_bytes: int) -> DistSpec:
    """Uniform random choice over aligned positions inside an extent."""

    if extent_bytes < align_bytes or align_bytes <= 0:
        raise InvalidParams("extent must hold at least one aligned position")
    return DistSpec.choice(tuple(range(0, extent_bytes - align_bytes + 1, align_bytes)))


def sample(spec: DistSpec, rng: np.random.Generator) -> float:
    """Draw one value; the clamp, when present, is applied last."""

    k, p = spec.kind, spec.params
    if k is DistKind.CONSTANT:
        value = float(p[0])
    elif k is DistKind.UNIFORM:
        value = float(rng.uniform(p[0], p[1]))
    elif k is DistKind.EXPONENTIAL:
        value = float(rng.exponential(p[0]))
    elif k is DistKind.NORMAL:
        value = float(rng.normal(p[0], p[1]))
    elif k is DistKind.BINOMIAL:
        value = float(rng.binomial(int(p[0]), p[1]))
    elif k is DistKind.POISSON:
        value = float(rng.poisson(p[0]))
    else:
        value = float(p[rng.integers(0, len(p))])
    if spec.clamp is not None:
        value = min(max(value, spec.clamp[0]), spec.clamp[1])
    return value


SEQUENTIAL_ADDRESSES = "SEQUENTIAL"


@dataclass(frozen=True)
class GeneratorSpec:
    """Everything needed to produce one reproducible request stream."""

    count: int
    seed: int
    inter_arrival_us: DistSpec = field(default_factory=lambda: DistSpec.constant(0))
    size_bytes: DistSpec = field(default_factory=lambda: DistSpec.constant(65_536))
    read_weight: float = 1.0
    write_weight: float = 0.0
    mode: AccessMode = AccessMode.NORMAL
    #: SEQUENTIAL_ADDRESSES with ``address_base`` or a DistSpec of offsets.
    address: str | DistSpec = SEQUENTIAL_ADDRESSES
    address_base: int = 0
    file_id: int = 0
    disk_base_bytes: int = 0
    size_granularity_bytes: int = 512
    start_time_us: int = 0
    #: Bracket the stream with one OPEN before and one CLOSE after.
    emit_open_close: bool = True

    def __post_init__(self) -> None:
        for name in ("count", "seed", "address_base", "disk_base_bytes", "start_time_us"):
            if getattr(self, name) < 0:
                raise InvalidParams(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.read_weight < 0 or self.write_weight < 0:
            raise InvalidParams("op weights must be non-negative")
        if self.read_weight + self.write_weight == 0:
            raise InvalidParams("op weights must not all be zero")
        if not math.isfinite(self.read_weight + self.write_weight):
            raise InvalidParams("read_weight + write_weight must be finite")
        if self.size_granularity_bytes <= 0:
            raise InvalidParams("size granularity must be positive")


def generate(spec: GeneratorSpec) -> list[CanonicalRequest]:
    """Produce the request stream described by ``spec``.

    Issue times are the running sum of inter-arrival draws.  Sequential
    addressing advances each request by the previous request's size.  Sizes
    are clamped at zero and rounded up to the configured granularity, so
    negative draws from unbounded distributions cannot occur.
    """

    if spec.count == 0:
        return []
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(spec.seed)))
    requests: list[CanonicalRequest] = []
    clock = spec.start_time_us
    offset = spec.address_base
    read_share = spec.read_weight / (spec.read_weight + spec.write_weight)

    def request(op: Op, position: int = 0, size: int = 0) -> CanonicalRequest:
        """One request of the stream, issued at the current clock."""

        return CanonicalRequest(
            issue_time_us=clock,
            origin=Origin.APP,
            op=op,
            file_id=spec.file_id,
            file_offset_bytes=position,
            length_bytes=size,
            disk_byte_addr=spec.disk_base_bytes + position,
            mode=spec.mode,
        )

    if spec.emit_open_close:
        requests.append(request(Op.OPEN))

    for _ in range(spec.count):
        gap = max(0.0, sample(spec.inter_arrival_us, rng))
        clock += int(round(gap))
        op = Op.READ if rng.random() < read_share else Op.WRITE
        size = max(0.0, sample(spec.size_bytes, rng))
        size = int(math.ceil(size / spec.size_granularity_bytes)) * spec.size_granularity_bytes
        if spec.address == SEQUENTIAL_ADDRESSES:
            position = offset
            offset += size
        else:
            position = int(max(0.0, sample(spec.address, rng)))
        requests.append(request(op, position, size))

    if spec.emit_open_close:
        requests.append(request(Op.CLOSE))
    return requests
