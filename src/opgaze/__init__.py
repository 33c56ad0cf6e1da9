"""Behavioral analytics for egocentric machine-operation recordings.

Turns per-frame attention / hand / touch tracks into operation units
(gazing, approaching, operating), touch hotspots, and per-unit features
(distances, kinematics, eye-hand synergy, early-shift behavior), and runs
two studies on top: earlier-vs-later skill comparison across operator
pairs and feature correlation with rated step difficulty.

The names exported here load their submodule on first access (PEP 562),
so ``import opgaze`` imports no submodule and no numpy.
"""

from __future__ import annotations

import importlib

_EXPORTS = {
    "analysis": (
        "CorrelationReport", "difficulty_correlation", "pairwise_comparison", "pearson",
        "step_feature_means", "summarize_rows",
    ),
    "featurerow": ("CATEGORICAL_FEATURES", "SCALAR_FEATURES", "FeatureVector"),
    "features": (
        "FeatureParams", "attention_hand_correlation", "attention_lead_lag",
        "build_distance_series", "classify_gaze_pattern", "classify_shift_kind",
        "compensate_offset", "count_sign_changes", "early_shift_ratio", "feature_vector",
        "kinematics", "sign_series", "trailing_positive_run", "unit_traces",
    ),
    "hotspot": (
        "ClusterParams", "TouchDistribution", "cluster_touches", "extract_touches",
        "touch_distribution", "touch_distribution_plot_data",
    ),
    "ingest": (
        "check_rate", "detect_format", "load_step_labels", "parse_session", "read_header",
        "validate_session", "write_session", "write_step_labels",
    ),
    "segmentation": ("SegmentationParams", "period_durations", "segment_units"),
    "session": (
        "DistanceSeries", "FrameRecord", "Hotspot", "Interval", "OperationUnit", "Point2",
        "Session", "StepLabel", "scene_diagonal",
    ),
    "studyio": ("DifficultyRatings", "ParseError", "Rating", "load_ratings", "write_ratings"),
    "synth": (
        "ArchetypeSpec", "Cohort", "CohortSpec", "GeneratedSession",
        "generate_classification_set", "generate_cohort", "generate_ou_trace",
        "generate_session", "write_cohort",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]
__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value
