"""The log manager: LSNs, one record protocol, segments, stable prefix.

Records (:mod:`repro.logmgr.records`) come in the four §6 flavors —
physical, logical, physiological, and generalized multi-page — plus
checkpoint records, all carried by the single :class:`LogRecord` type
that the theory core shares.  The manager (:mod:`repro.logmgr.manager`)
is the system's only LSN authority: it assigns monotonically increasing
LSNs, stores records in fixed-size segments with per-segment stable
boundaries, enforces the write-ahead rule on request, and drops the
volatile tail at a crash.  It never trims its head.
"""

from repro.logmgr.records import (
    CheckpointRecord,
    LogRecord,
    LogicalRedo,
    MultiPageRedo,
    PageAction,
    PhysicalRedo,
    PhysiologicalRedo,
    TOMBSTONE,
)
from repro.logmgr.codec import (
    CodecError,
    LazyRecord,
    TornTail,
    encode_record,
    encode_window,
)
from repro.logmgr.filelog import FileLogStore
from repro.logmgr.manager import (
    DEFAULT_SEGMENT_SIZE,
    LogDirectoryError,
    LogManager,
    LogSegment,
    WalViolation,
)
from repro.logmgr.pageindex import (
    CHECKPOINT_PAGE,
    LOGICAL_PAGE,
    PageRedoIndex,
    SegmentPageIndex,
)
from repro.logmgr.pipeline import GroupCommitPipeline

__all__ = [
    "CHECKPOINT_PAGE",
    "CheckpointRecord",
    "CodecError",
    "DEFAULT_SEGMENT_SIZE",
    "FileLogStore",
    "GroupCommitPipeline",
    "LOGICAL_PAGE",
    "LazyRecord",
    "LogDirectoryError",
    "LogManager",
    "LogRecord",
    "LogSegment",
    "PageRedoIndex",
    "SegmentPageIndex",
    "LogicalRedo",
    "MultiPageRedo",
    "PageAction",
    "PhysicalRedo",
    "PhysiologicalRedo",
    "TOMBSTONE",
    "TornTail",
    "WalViolation",
    "encode_record",
    "encode_window",
]
