"""Distance series and feature vectors as they were built before a unit's
series were taken as windows: the differential oracle of
``tests/test_feature_windows.py``.

Every period is selected with whole-session boolean masks, every series
(compensated ones included) goes through the checked ``DistanceSeries``
constructor, and reversals are counted one sign at a time.  The result is
the old nested ``FeatureVector``, with a ``KinematicsSummary`` per period,
flattened by ``scalar_features``; these, and the intersect-based
``align_series``, are kept here as they were.  ``kinematics`` differs from
the old one only in leaving out the ``speed``/``signs`` arrays that an
earlier change removed.  The remaining helpers are the package's own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from opgaze.analysis import pearson
from opgaze.featurerow import GAZE_PATTERNS, SHIFT_KINDS
from opgaze.features import (
    PERIODS,
    FeatureParams,
    attention_lead_lag,
    classify_gaze_pattern,
    classify_shift_kind,
    early_shift_ratio,
    sign_series,
)
from opgaze.segmentation import period_durations
from opgaze.session import DistanceSeries, Hotspot, OperationUnit, Session


@dataclass(frozen=True)
class KinematicsSummary:
    n_samples: int
    variance: float
    sign_changes: Optional[int] = None
    mean_abs_speed: Optional[float] = None

    def __post_init__(self) -> None:
        if self.variance < 0:
            raise ValueError("variance must be >= 0")
        if self.sign_changes is not None and self.sign_changes < 0:
            raise ValueError("sign_changes must be >= 0")


@dataclass(frozen=True)
class FeatureVector:
    ou_index: int
    hotspot_id: Optional[int]
    step_id: Optional[str]
    dur_gazing: float
    dur_approaching: float
    dur_operating: float
    ratio_gazing: float
    ratio_approaching: float
    ratio_operating: float
    operating_mean_dist: Optional[float]
    gazing_kin: Optional[KinematicsSummary]
    approaching_kin: Optional[KinematicsSummary]
    operating_kin: Optional[KinematicsSummary]
    corr_attention_hand: Optional[float]
    attention_lead_lag: Optional[float]
    early_shift_ratio: Optional[float]
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
        if self.early_shift_ratio is not None and not 0.0 <= self.early_shift_ratio <= 1.0:
            raise ValueError(f"early_shift_ratio out of [0,1]: {self.early_shift_ratio}")
        if self.corr_attention_hand is not None and not -1.0 <= self.corr_attention_hand <= 1.0:
            raise ValueError(f"correlation out of [-1,1]: {self.corr_attention_hand}")
        object.__setattr__(self, "undefined", dict(self.undefined))


def scalar_features(fv: FeatureVector) -> dict[str, Optional[float]]:
    out: dict[str, Optional[float]] = {
        "dur_gazing": fv.dur_gazing,
        "dur_approaching": fv.dur_approaching,
        "dur_operating": fv.dur_operating,
        "ratio_gazing": fv.ratio_gazing,
        "ratio_approaching": fv.ratio_approaching,
        "ratio_operating": fv.ratio_operating,
        "operating_mean_dist": fv.operating_mean_dist,
        "corr_attention_hand": fv.corr_attention_hand,
        "attention_lead_lag": fv.attention_lead_lag,
        "early_shift_ratio": fv.early_shift_ratio,
    }
    for period, kin in (
        ("gazing", fv.gazing_kin),
        ("approaching", fv.approaching_kin),
        ("operating", fv.operating_kin),
    ):
        if kin is None:
            out[f"{period}_sign_changes"] = None
            out[f"{period}_mean_speed"] = None
            out[f"{period}_dist_var"] = None
        else:
            changes = kin.sign_changes
            out[f"{period}_sign_changes"] = None if changes is None else float(changes)
            out[f"{period}_mean_speed"] = kin.mean_abs_speed
            out[f"{period}_dist_var"] = kin.variance
    return out


def align_series(a: DistanceSeries, b: DistanceSeries) -> tuple[np.ndarray, np.ndarray]:
    common, ia, ib = np.intersect1d(a.times, b.times, return_indices=True)
    return a.values[ia], b.values[ib]


def build_distance_series(
    s: Session,
    ou: OperationUnit,
    hotspot: Optional[Hotspot],
    kind: str,
    period: str = "OU",
) -> DistanceSeries:
    if period not in PERIODS:
        raise ValueError(f"period must be one of {PERIODS}, got {period!r}")
    if kind in ("AO", "HO") and hotspot is None:
        raise ValueError(f"kind {kind!r} needs an assigned hotspot")

    bounds = {
        "G": (ou.gazing.start, ou.gazing.end),
        "H": (ou.approaching.start, ou.approaching.end),
        "GH": (ou.gazing.start, ou.operating.start),
        "O": (ou.operating.start, ou.operating.end),
        "OU": (ou.gazing.start, ou.operating.end),
    }[period]

    lo, hi = bounds
    t = s.times
    touching = s.touching_mask
    if period in ("O", "OU"):
        sel = (t >= lo) & (t <= hi)
    else:
        sel = (t >= lo) & (t < hi)
    o_start, o_end = ou.operating.start, ou.operating.end
    in_operating = (t >= o_start) & (t <= o_end)
    sel &= in_operating | ~touching
    if kind in ("HO", "AH"):
        sel &= s.hand_visible_mask

    if kind == "AO":
        delta = s.attention_xy[sel] - (hotspot.centroid.x, hotspot.centroid.y)
        values = np.hypot(delta[:, 0], delta[:, 1])
    elif kind == "HO":
        delta = s.hand_xy[sel] - (hotspot.centroid.x, hotspot.centroid.y)
        values = np.hypot(delta[:, 0], delta[:, 1])
        values[touching[sel]] = 0.0
    else:  # AH
        delta = s.attention_xy[sel] - s.hand_xy[sel]
        values = np.hypot(delta[:, 0], delta[:, 1])
    return DistanceSeries(times=t[sel], values=values, kind=kind)


def compensate_offset(d: DistanceSeries) -> DistanceSeries:
    if len(d) == 0:
        raise ValueError("cannot compensate an empty series")
    values = d.values - float(np.min(d.values))
    return DistanceSeries(times=d.times, values=values, kind=d.kind)


def count_sign_changes(signs: np.ndarray) -> int:
    changes = 0
    last = 0
    for sgn in signs:
        if sgn == 0:
            continue
        if last != 0 and sgn != last:
            changes += 1
        last = sgn
    return changes


def kinematics(
    d_star: DistanceSeries,
    deadband: float,
    sample_rate_hz: Optional[float] = None,
) -> KinematicsSummary:
    n = len(d_star)
    if n == 0:
        raise ValueError("kinematics needs a nonempty series")
    variance = float(np.mean((d_star.values - float(np.mean(d_star.values))) ** 2))
    if n < 2:
        return KinematicsSummary(n_samples=n, variance=variance)
    speed = np.diff(d_star.values)
    signs = sign_series(speed, deadband)
    if sample_rate_hz is None:
        step = float(np.median(np.diff(d_star.times)))
        sample_rate_hz = 1.0 / step if step > 0 else 0.0
    return KinematicsSummary(
        n_samples=n,
        variance=variance,
        sign_changes=count_sign_changes(signs),
        mean_abs_speed=float(np.mean(np.abs(speed))) * sample_rate_hz,
    )


def feature_vector(
    s: Session,
    ou: OperationUnit,
    hotspot: Optional[Hotspot],
    params: FeatureParams = FeatureParams(),
) -> FeatureVector:
    undefined: dict[str, str] = {}
    dur_g, dur_h, dur_o, ratio_g, ratio_h, ratio_o = period_durations(ou)

    if hotspot is None:
        for name in ("operating_mean_dist", "gazing_kinematics", "approaching_kinematics",
                     "operating_kinematics", "corr_attention_hand", "attention_lead_lag",
                     "early_shift_ratio", "gaze_pattern", "shift_kind"):
            undefined[name] = "no_hotspot"
        return FeatureVector(
            ou_index=ou.index, hotspot_id=None, step_id=ou.step_id,
            dur_gazing=dur_g, dur_approaching=dur_h, dur_operating=dur_o,
            ratio_gazing=ratio_g, ratio_approaching=ratio_h, ratio_operating=ratio_o,
            operating_mean_dist=None, gazing_kin=None, approaching_kin=None,
            operating_kin=None, corr_attention_hand=None, attention_lead_lag=None,
            early_shift_ratio=None, gaze_pattern="shift", shift_kind="undefined",
            undefined=undefined,
        )

    ao_g = build_distance_series(s, ou, hotspot, "AO", "G")
    ao_h = build_distance_series(s, ou, hotspot, "AO", "H")
    ao_o = build_distance_series(s, ou, hotspot, "AO", "O")
    ao_gh = build_distance_series(s, ou, hotspot, "AO", "GH")
    ho_gh = build_distance_series(s, ou, hotspot, "HO", "GH")
    ao_ou = build_distance_series(s, ou, hotspot, "AO", "OU")
    ho_ou = build_distance_series(s, ou, hotspot, "HO", "OU")

    kins: dict[str, Optional[KinematicsSummary]] = {}
    for key, series in (("gazing", ao_g), ("approaching", ao_h), ("operating", ao_o)):
        if len(series) == 0:
            kins[key] = None
            undefined[f"{key}_kinematics"] = "empty_period"
            continue
        summary = kinematics(compensate_offset(series), params.sign_deadband, s.sample_rate_hz)
        kins[key] = summary
        if summary.sign_changes is None:
            undefined[f"{key}_sign_changes"] = "series_too_short"

    operating_mean_dist = float(np.mean(ao_o.values)) if len(ao_o) else None
    if operating_mean_dist is None:
        undefined["operating_mean_dist"] = "empty_period"

    va, vb = align_series(ao_ou, ho_ou)
    if len(va) < 3:
        corr = None
        undefined["corr_attention_hand"] = "insufficient_samples"
    else:
        corr = pearson(va, vb)
        if corr is None:
            undefined["corr_attention_hand"] = "zero_variance"

    if len(ao_gh) == 0 or len(ho_gh) == 0:
        lag = None
        undefined["attention_lead_lag"] = "empty_approach_series"
    else:
        lag = attention_lead_lag(
            compensate_offset(ao_gh), compensate_offset(ho_gh), params.lag_threshold
        )
        if lag is None:
            undefined["attention_lead_lag"] = "no_threshold_crossing"

    if dur_o < params.min_operating_for_early_shift:
        early = None
        undefined["early_shift_ratio"] = "operating_below_min_duration"
    elif len(ao_o) == 0:
        early = None
        undefined["early_shift_ratio"] = "empty_period"
    else:
        early = early_shift_ratio(
            compensate_offset(ao_o), dur_o, params.sign_deadband,
            params.min_operating_for_early_shift,
        )

    pattern = classify_gaze_pattern(ao_g, params.sign_deadband, params.search_freq_min)
    shift_kind = classify_shift_kind(early, params.early_shift_min)
    if shift_kind == "undefined":
        undefined.setdefault("shift_kind", undefined.get("early_shift_ratio", "undefined_ratio"))

    return FeatureVector(
        ou_index=ou.index, hotspot_id=hotspot.id, step_id=ou.step_id,
        dur_gazing=dur_g, dur_approaching=dur_h, dur_operating=dur_o,
        ratio_gazing=ratio_g, ratio_approaching=ratio_h, ratio_operating=ratio_o,
        operating_mean_dist=operating_mean_dist,
        gazing_kin=kins["gazing"], approaching_kin=kins["approaching"],
        operating_kin=kins["operating"],
        corr_attention_hand=corr, attention_lead_lag=lag, early_shift_ratio=early,
        gaze_pattern=pattern, shift_kind=shift_kind, undefined=undefined,
    )
