"""Trace-driven discrete-event simulator of a PC storage stack.

The stack mirrors the request path of a desktop OS: application process,
file-system cache (64KB quantization, mode-specific read-ahead, progressive
and periodic write flushing, write-through with metadata updates), host I/O
scheduler, segmented drive cache, and a zoned mechanical disk.  Real traces
captured with a Filemon-style tracer and synthetic generated workloads
share one canonical request format and one replay path.
"""

from .config import ConfigError, RunSpec, load_config
from .diskcache import (
    Ack,
    DiskCacheConfig,
    Lookup,
    ReadPrefetch,
    SegmentedCache,
    UnexpectedFill,
    WritePolicy,
)
from .disk import (
    DiskGeometry,
    OutOfRange,
    SeekProfile,
    Zone,
    cylinder_of_byte,
    seek_time,
    service,
)
from .engine import EventLog, PastEvent, SimEvent, Simulator, StageFault, StageId
from .fscache import (
    FsCache,
    FsCacheConfig,
    WriteRegime,
    classify_write_regime,
    split_into_blocks,
)
from .profiles import PROFILES, DriveProfile
from .replay import (
    ReplayDiverged,
    ReplayMode,
    ReplayPolicy,
    ReplayResult,
    StackConfig,
    StallError,
    TraceReplayError,
    file_extents,
    reference_media_image,
    replay,
)
from .reports import (
    BaselineError,
    ZeroBaseline,
    emit_reports,
    error_percent,
    load_baseline,
    write_baseline,
)
from .requests import SECTOR_BYTES, AccessMode, CanonicalRequest, Op, Origin, RequestRecord, Summary
from .scheduler import Direction, PendingQueue, Policy
from .trace import (
    BadTime,
    CanonicalFormatError,
    MalformedLine,
    RawTraceLine,
    TraceDefectReport,
    TraceError,
    UnknownOp,
    ingest_text,
    parse_trace_line,
    read_canonical,
    write_canonical,
)
from .workload import DistKind, DistSpec, GeneratorSpec, InvalidParams, aligned_choices, generate, sample

__version__ = "0.1.0"

__all__ = [
    "AccessMode",
    "Ack",
    "BadTime",
    "BaselineError",
    "CanonicalFormatError",
    "CanonicalRequest",
    "ConfigError",
    "Direction",
    "DiskCacheConfig",
    "DiskGeometry",
    "DistKind",
    "DistSpec",
    "DriveProfile",
    "EventLog",
    "FsCache",
    "FsCacheConfig",
    "GeneratorSpec",
    "InvalidParams",
    "Lookup",
    "MalformedLine",
    "Op",
    "Origin",
    "OutOfRange",
    "PROFILES",
    "PastEvent",
    "PendingQueue",
    "Policy",
    "RawTraceLine",
    "ReadPrefetch",
    "ReplayDiverged",
    "ReplayMode",
    "ReplayPolicy",
    "ReplayResult",
    "RequestRecord",
    "RunSpec",
    "SeekProfile",
    "SegmentedCache",
    "SimEvent",
    "Simulator",
    "SECTOR_BYTES",
    "StackConfig",
    "StageFault",
    "StageId",
    "StallError",
    "Summary",
    "TraceDefectReport",
    "TraceError",
    "TraceReplayError",
    "UnexpectedFill",
    "UnknownOp",
    "WritePolicy",
    "WriteRegime",
    "ZeroBaseline",
    "Zone",
    "aligned_choices",
    "classify_write_regime",
    "cylinder_of_byte",
    "emit_reports",
    "error_percent",
    "file_extents",
    "generate",
    "ingest_text",
    "load_baseline",
    "load_config",
    "parse_trace_line",
    "read_canonical",
    "reference_media_image",
    "replay",
    "sample",
    "seek_time",
    "service",
    "split_into_blocks",
    "write_baseline",
    "write_canonical",
]
