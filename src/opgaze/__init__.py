"""Behavioral analytics for egocentric machine-operation recordings.

Turns per-frame attention / hand / touch tracks into operation units
(gazing, approaching, operating), touch hotspots, and per-unit features
(distances, kinematics, eye-hand synergy, early-shift behavior), and runs
two studies on top: earlier-vs-later skill comparison across operator
pairs and feature correlation with rated step difficulty.
"""

from .analysis import (
    ComparisonReport,
    CorrelationReport,
    SessionPair,
    SessionSummary,
    difficulty_correlation,
    pairwise_comparison,
    pearson,
    step_feature_means,
    summarize_rows,
)
from .featurerow import CATEGORICAL_FEATURES, SCALAR_FEATURES, FeatureVector
from .features import (
    FeatureParams,
    attention_hand_correlation,
    attention_lead_lag,
    build_distance_series,
    classify_gaze_pattern,
    classify_shift_kind,
    compensate_offset,
    count_sign_changes,
    early_shift_ratio,
    feature_vector,
    kinematics,
    sign_series,
    trailing_positive_run,
)
from .hotspot import (
    ClusterParams,
    TouchDistribution,
    cluster_touches,
    extract_touches,
    touch_distribution,
)
from .ingest import (
    ParseError,
    ValidationReport,
    load_ratings,
    load_step_labels,
    parse_session,
    validate_session,
    write_ratings,
    write_session,
    write_step_labels,
)
from .segmentation import SegmentationParams, period_durations, segment_units
from .session import (
    DifficultyRatings,
    DistanceSeries,
    FrameRecord,
    Hotspot,
    Interval,
    OperationUnit,
    Point2,
    Rating,
    Session,
    StepLabel,
    scene_diagonal,
)
from .synth import (
    ArchetypeSpec,
    Cohort,
    CohortSpec,
    GeneratedSession,
    generate_classification_set,
    generate_cohort,
    generate_ou_trace,
    generate_session,
    write_cohort,
)

__version__ = "0.1.0"
