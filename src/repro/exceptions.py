"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised intentionally by this library derive from
:class:`ReproError` so applications can catch library failures with a single
``except`` clause while letting programming errors (``TypeError`` etc.)
propagate.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class RoadNetworkError(ReproError):
    """Raised for invalid road-network construction or queries."""


class SegmentNotFoundError(RoadNetworkError):
    """Raised when a road segment id is not present in the network."""

    def __init__(self, segment_id: int):
        super().__init__(f"road segment {segment_id!r} is not in the network")
        self.segment_id = segment_id


class IntersectionNotFoundError(RoadNetworkError):
    """Raised when an intersection id is not present in the network."""

    def __init__(self, node_id: int):
        super().__init__(f"intersection {node_id!r} is not in the network")
        self.node_id = node_id


class DisconnectedRouteError(RoadNetworkError):
    """Raised when no route exists between two segments or intersections."""


class TrajectoryError(ReproError):
    """Raised for invalid trajectory construction or operations."""


class EmptyTrajectoryError(TrajectoryError):
    """Raised when an operation requires a non-empty trajectory."""


class MapMatchingError(ReproError):
    """Raised when map matching fails to produce a path."""


class UnmatchablePointError(MapMatchingError):
    """Raised when a GPS fix has no candidate segment anywhere near it.

    An online session raising this has *not* consumed the point; the caller
    may drop the fix and keep streaming the rest of the trip.
    """


class MatchBreakError(MapMatchingError):
    """Raised when an online matching session cannot be extended.

    The usual cause: no candidate of the new fix is reachable from the
    previous fix's candidates (the offline matcher would declare the whole
    trajectory unmatchable at this point); then the breaking point has *not*
    been consumed and the session remains usable. The defensive cause — a
    committed route that cannot be connected, impossible with the
    bounded-dijkstra transition model — discards the session instead.
    Either way the already-emitted route prefix remains valid, so callers
    (the ingest gateway) end the session at that prefix and restart matching
    from the breaking fix.
    """


class GatewayError(ReproError):
    """Raised for invalid use of the raw-GPS ingest gateway."""


class DataGenerationError(ReproError):
    """Raised for inconsistent synthetic data generation requests."""


class LabelingError(ReproError):
    """Raised for failures while building noisy labels or route features."""


class ModelError(ReproError):
    """Raised for neural-network / detector configuration problems."""


class NotFittedError(ModelError):
    """Raised when a model is used for inference before being trained."""

    def __init__(self, what: str = "model"):
        super().__init__(
            f"{what} has not been fitted yet; call its training entry point first"
        )


class CheckpointError(ReproError):
    """Raised for unreadable, corrupt or incompatible model checkpoints."""


class ArchiveError(ReproError):
    """Raised for invalid use of the durable history archive."""


class ServiceError(ReproError):
    """Raised for invalid use of the sharded detection service."""


class ShardDied(ServiceError):
    """Raised when a shard's worker process is found dead.

    ``shard`` is the index of the dead shard. Its in-flight streams are
    lost; the service must be rebuilt.
    """

    def __init__(self, shard: int, exitcode: Optional[int] = None):
        super().__init__(
            f"shard {shard} worker died (exit code {exitcode}); the service "
            "must be rebuilt (in-flight streams of that shard are lost)")
        self.shard = shard


class EvaluationError(ReproError):
    """Raised for malformed evaluation inputs (e.g. mismatched lengths)."""


class ConfigurationError(ReproError):
    """Raised when a configuration value is out of its valid range."""
