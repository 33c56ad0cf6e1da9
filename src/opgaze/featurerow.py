"""The per-unit feature row, defined once.

:class:`FeatureVector` is a flat record whose fields are the columns of
``features.csv`` in order, after the leading ``session_id``: the unit's
keys, the scalar features, the two classifications and the reasons for
undefined values.  The column names, the scalar and categorical name
lists and the writer's row all derive from its fields.  This module
imports only the standard library, so readers of ``features.csv`` need no
numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Mapping, Optional

# The largest feature magnitude analyze writes: a mean speed, at most
# 2 * sqrt(2) * ingest.COORD_MAX * ingest.RATE_MAX = 2.8284e150.  Durations
# and lead times are at most ingest.TIME_MAX = 1e150, distances 2.9e50.
FEATURE_MAX = 2.83e150

GAZE_PATTERNS = ("search", "shift")
SHIFT_KINDS = ("early", "non-early", "undefined")


@dataclass(frozen=True, kw_only=True)
class FeatureVector:
    """All behavioral features of one operation unit.

    Scalars that cannot be computed are None; ``undefined`` maps each
    undefined feature (or feature group, such as ``gazing_kinematics``) to
    a reason code so reports can explain the gap.  The ``<period>_*``
    kinematics describe the offset-compensated attention-hotspot distance
    over that period: direction reversals (a float count), mean absolute
    speed in units/s, and population variance.
    """

    ou_index: int
    hotspot_id: Optional[int]
    step_id: Optional[str]
    dur_gazing: float
    dur_approaching: float
    dur_operating: float
    ratio_gazing: float
    ratio_approaching: float
    ratio_operating: float
    operating_mean_dist: Optional[float] = None
    gazing_sign_changes: Optional[float] = None
    gazing_mean_speed: Optional[float] = None
    gazing_dist_var: Optional[float] = None
    approaching_sign_changes: Optional[float] = None
    approaching_mean_speed: Optional[float] = None
    approaching_dist_var: Optional[float] = None
    operating_sign_changes: Optional[float] = None
    operating_mean_speed: Optional[float] = None
    operating_dist_var: Optional[float] = None
    corr_attention_hand: Optional[float] = None
    attention_lead_lag: Optional[float] = None
    early_shift_ratio: Optional[float] = None
    gaze_pattern: str
    shift_kind: str
    undefined: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.gaze_pattern not in GAZE_PATTERNS:
            raise ValueError(f"gaze_pattern must be one of {GAZE_PATTERNS}")
        if self.shift_kind not in SHIFT_KINDS:
            raise ValueError(f"shift_kind must be one of {SHIFT_KINDS}")
        total = self.dur_gazing + self.dur_approaching + self.dur_operating
        if total > 0:
            ratio_sum = self.ratio_gazing + self.ratio_approaching + self.ratio_operating
            if abs(ratio_sum - 1.0) > 1e-9:
                raise ValueError(f"period ratios must sum to 1, got {ratio_sum}")
        for name in _NONNEGATIVE:
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.early_shift_ratio is not None and not 0.0 <= self.early_shift_ratio <= 1.0:
            raise ValueError(f"early_shift_ratio out of [0,1]: {self.early_shift_ratio}")
        if self.corr_attention_hand is not None and not -1.0 <= self.corr_attention_hand <= 1.0:
            raise ValueError(f"correlation out of [-1,1]: {self.corr_attention_hand}")
        object.__setattr__(self, "undefined", dict(self.undefined))


_FIELDS = tuple(f.name for f in fields(FeatureVector))
_NONNEGATIVE = tuple(f"{p}_{k}" for p in ("gazing", "approaching", "operating")
                     for k in ("sign_changes", "dist_var"))

# Numeric features are the float-typed fields, categorical ones the str-typed.
SCALAR_FEATURES = tuple(f.name for f in fields(FeatureVector)
                        if f.type in ("float", "Optional[float]"))
CATEGORICAL_FEATURES = tuple(f.name for f in fields(FeatureVector) if f.type == "str")

FEATURES_HEADER = ("session_id",) + _FIELDS[:-1] + ("undefined_reasons",)


def feature_row(session_id: str, fv: FeatureVector) -> list[object]:
    """One ``features.csv`` row; ``undefined`` is written as sorted
    ``name=reason`` pairs joined by ``;``."""
    row: list[object] = [session_id]
    row.extend(getattr(fv, name) for name in _FIELDS[:-1])
    row.append(";".join(f"{k}={v}" for k, v in sorted(fv.undefined.items())))
    return row
