"""Feature-based SLAM pipeline on synthetic EuRoC-like sequences
(paper Section 5's workload)."""

from repro.slam.bundle_adjustment import (
    BaResult,
    bundle_adjust,
    global_bundle_adjust,
    local_bundle_adjust,
)
from repro.slam.dataset import (
    EUROC_SEQUENCES,
    FRAME_RATE_HZ,
    CameraModel,
    Difficulty,
    Frame,
    SequenceSpec,
    SyntheticSequence,
    all_sequence_names,
    cached_sequence,
    clear_sequence_cache,
    load_sequence,
)
from repro.slam.features import (
    FeatureSet,
    OrbExtractor,
    hamming_distance,
    hamming_distance_matrix,
)
from repro.slam.map import Keyframe, MapPoint, SlamMap
from repro.slam.matching import (
    Match,
    MatchResult,
    match_against_map,
    match_features,
)
from repro.slam.metrics import (
    MapQuality,
    absolute_trajectory_error_m,
    map_quality,
)
from repro.slam.planning import (
    OccupancyGrid,
    PlanningError,
    PlanResult,
    grid_from_landmarks,
    plan_path,
)
from repro.slam.pipeline import (
    SlamPipeline,
    SlamRunResult,
    Stage,
    StageBreakdown,
    TrackingOutcome,
    run_slam,
    triangulate_midpoint,
)
from repro.slam.tracking import TrackingLostError, TrackingResult, track_pose

__all__ = [
    "BaResult",
    "bundle_adjust",
    "global_bundle_adjust",
    "local_bundle_adjust",
    "EUROC_SEQUENCES",
    "FRAME_RATE_HZ",
    "CameraModel",
    "Difficulty",
    "Frame",
    "SequenceSpec",
    "SyntheticSequence",
    "all_sequence_names",
    "cached_sequence",
    "clear_sequence_cache",
    "load_sequence",
    "FeatureSet",
    "OrbExtractor",
    "hamming_distance",
    "hamming_distance_matrix",
    "Keyframe",
    "MapPoint",
    "SlamMap",
    "Match",
    "MatchResult",
    "match_against_map",
    "match_features",
    "MapQuality",
    "absolute_trajectory_error_m",
    "map_quality",
    "OccupancyGrid",
    "PlanningError",
    "PlanResult",
    "grid_from_landmarks",
    "plan_path",
    "SlamPipeline",
    "SlamRunResult",
    "Stage",
    "StageBreakdown",
    "TrackingOutcome",
    "run_slam",
    "triangulate_midpoint",
    "TrackingLostError",
    "TrackingResult",
    "track_pose",
]
