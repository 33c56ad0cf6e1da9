"""Per-unit behavioral features from attention / hand / hotspot tracks.

The building blocks are distance series between the attention proxy (A),
the hand (H) and the unit's hotspot (O), taken over a unit's periods.
From those this module derives:

* offset-compensated distances (series minus its period minimum),
* motion kinematics: per-sample speed, direction-reversal count with a
  configurable deadband, variance,
* the early-shift ratio: the fraction of the operating period occupied by
  the trailing continuous increase of the attention-hotspot distance,
* the search / shift gazing classification and the early / non-early
  shift classification,
* attention-hand synergy: correlation of the two hotspot distances and the
  lead time of attention over the hand when approaching the hotspot,

and assembles them into a :class:`FeatureVector` per unit.  Degenerate
units never abort: fields that cannot be computed come back None with a
reason code.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .featurerow import FeatureVector
from .segmentation import period_durations
from .session import DistanceSeries, Hotspot, OperationUnit, Point2, Session, time_range

PERIODS = ("G", "H", "O", "GH", "OU")
# features a unit without a hotspot cannot have
_NO_HOTSPOT = (
    "operating_mean_dist", "gazing_kinematics", "approaching_kinematics", "operating_kinematics",
    "corr_attention_hand", "attention_lead_lag", "early_shift_ratio", "gaze_pattern", "shift_kind",
)
_ORIGIN = Hotspot(0, Point2(0.0, 0.0), 0, 0.0, 0.0, ())

DEFAULT_SIGN_DEADBAND = 0.0
DEFAULT_LAG_THRESHOLD = 0.2
DEFAULT_SEARCH_FREQ_MIN = 1.0
DEFAULT_EARLY_SHIFT_MIN = 0.1
MIN_OPERATING_FOR_EARLY_SHIFT = 1.0


@dataclass(frozen=True)
class FeatureParams:
    """Tunables for feature extraction.

    ``sign_deadband``: speed magnitudes at or below this count as "no
    motion" when detecting direction reversals (0 = strict sign).
    ``lag_threshold``: fraction of a series' maximum that defines reaching
    the hotspot's neighborhood for the lead-lag measurement.
    ``min_operating_for_early_shift`` stays at 1.0 s: shorter operating
    periods have no early-shift ratio.
    """

    sign_deadband: float = DEFAULT_SIGN_DEADBAND
    lag_threshold: float = DEFAULT_LAG_THRESHOLD
    min_operating_for_early_shift: float = MIN_OPERATING_FOR_EARLY_SHIFT
    search_freq_min: float = DEFAULT_SEARCH_FREQ_MIN
    early_shift_min: float = DEFAULT_EARLY_SHIFT_MIN

    def __post_init__(self) -> None:
        if self.sign_deadband < 0:
            raise ValueError("sign_deadband must be >= 0")
        if not 0.0 < self.lag_threshold < 1.0:
            raise ValueError("lag_threshold must be in (0, 1)")
        if not self.min_operating_for_early_shift > 0:
            raise ValueError("min_operating_for_early_shift must be positive")
        for name in ("search_freq_min", "early_shift_min"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


def build_distance_series(
    s: Session,
    ou: OperationUnit,
    hotspot: Optional[Hotspot],
    kind: str,
    period: str = "OU",
) -> DistanceSeries:
    """Distance series of the given kind over one of a unit's periods.

    ``period`` is "G", "H", "O", "GH" (gazing + approaching, up to the
    first touch) or "OU" (the whole unit).  The series is the period's
    window of the unit's trace against ``hotspot`` (:func:`unit_traces`):
    an "AO" series takes every row, the hand-involving kinds ("HO", "AH")
    the rows with a hand in sight.
    """
    if period not in PERIODS:
        raise ValueError(f"period must be one of {PERIODS}, got {period!r}")
    if kind in ("AO", "HO") and hotspot is None:
        raise ValueError(f"kind {kind!r} needs an assigned hotspot")
    # an "AH" series does not use the hotspot, so any point will do
    trace = _unit_trace(s, ou, hotspot or _ORIGIN)
    rows = slice(None) if kind == "AO" else trace.hand
    values = trace.d_ao if kind == "AO" else trace.d_ho if kind == "HO" else trace.d_ah
    # the constructor checks the series, and rejects an unknown kind
    return DistanceSeries(trace.t[rows], values[rows], kind).window(*period_bounds(ou, period))


@dataclass(frozen=True)
class UnitTraces:
    """The rows of the whole-unit ("OU") distance traces of a session's
    units that have a hotspot, one unit after another.

    ``units[k]`` has ``counts[k]`` rows.  A row is a frame of the unit's AO
    series: its time ``t`` and its AO, HO and AH distances.  Where ``hand``
    is False the hand is out of sight, the frame is in neither hand series,
    and ``d_ho`` and ``d_ah`` hold NaN.
    """

    units: tuple[OperationUnit, ...]
    counts: tuple[int, ...]
    t: np.ndarray
    d_ao: np.ndarray
    d_ho: np.ndarray
    d_ah: np.ndarray
    hand: np.ndarray


def unit_traces(
    s: Session, units: Sequence[OperationUnit], hotspots: Sequence[Hotspot]
) -> UnitTraces:
    """The "OU" traces of every unit with a hotspot, computed in one pass.

    This is the one place that picks a unit's frames and computes its
    distances; :func:`build_distance_series` and :func:`feature_vector`
    take theirs from a one-unit trace.  A unit's rows are the frames of its
    whole range but stray contacts, and HO is 0 while the hotspot is
    touched.  The rows need no series checks: a unit's frames are in time
    order, and ``Session.times`` is strictly increasing.  Every coordinate
    that reaches the pipeline through the parser is finite with |v| <=
    ``ingest.COORD_MAX`` = 1e50, and a hotspot centroid is a mean of such
    hand positions, so each coordinate difference is at most 2e50 and each
    distance is finite, >= 0 and at most 2 * sqrt(2) * 1e50 < 2.9e50.
    """
    traced = tuple(ou for ou in units if ou.hotspot_id is not None)
    picks = []
    for ou in traced:
        i, j = time_range(s.times, *period_bounds(ou, "OU"))
        t = s.times[i:j]
        # contacts outside this unit's operating period are stray (previous
        # unit boundary or a dropped micro-bout) and carry no distance sample
        keep = ((t >= ou.operating.start) & (t <= ou.operating.end)) | ~s.touching_mask[i:j]
        picks.append(i + np.flatnonzero(keep))
    counts = tuple(map(len, picks))
    frames = np.concatenate([np.zeros(0, dtype=np.intp), *picks])
    centroids = np.array([(hotspots[ou.hotspot_id].centroid.x, hotspots[ou.hotspot_id].centroid.y)
                          for ou in traced], dtype=float).reshape(-1, 2)
    centroids = np.repeat(centroids, counts, axis=0)
    attention, hand_xy = s.attention_xy[frames], s.hand_xy[frames]
    d_ao, d_ho, d_ah = (np.hypot(delta[:, 0], delta[:, 1])
                        for delta in (attention - centroids, hand_xy - centroids, attention - hand_xy))
    d_ho[s.touching_mask[frames]] = 0.0
    return UnitTraces(traced, counts, s.times[frames], d_ao, d_ho, d_ah, s.hand_visible_mask[frames])


def _unit_trace(s: Session, ou: OperationUnit, hotspot: Hotspot) -> UnitTraces:
    """The trace of one unit against ``hotspot``, which need not be the one
    its ``hotspot_id`` names."""
    return unit_traces(s, (replace(ou, hotspot_id=0),), (hotspot,))


def period_bounds(ou: OperationUnit, period: str) -> tuple[float, float, bool]:
    """(start, end, closed) of one of a unit's periods; "O" and "OU" end at
    the last operating frame, the others before their end."""
    g, o = ou.gazing, ou.operating
    return {
        "G": (g.start, g.end, False),
        "H": (ou.approaching.start, ou.approaching.end, False),
        "GH": (g.start, o.start, False),
        "O": (o.start, o.end, True),
        "OU": (g.start, o.end, True),
    }[period]


def compensate_offset(d: DistanceSeries) -> DistanceSeries:
    """Subtract the series' minimum, the estimated offset between the view
    center and the actual attention location for this period.  The result
    has an exact minimum of 0."""
    if len(d) == 0:
        raise ValueError("cannot compensate an empty series")
    # finite v >= m >= 0 gives a finite v - m >= 0: no check is needed
    values = d.values - float(np.min(d.values))
    values.flags.writeable = False
    return d._derive(d.times, values)


def sign_series(speed: np.ndarray, deadband: float = 0.0) -> np.ndarray:
    """Direction of each increment: +1 above the deadband, -1 below its
    negative, else 0."""
    signs = np.zeros(len(speed), dtype=int)
    signs[speed > deadband] = 1
    signs[speed < -deadband] = -1
    return signs


def count_sign_changes(signs: np.ndarray) -> int:
    """Number of reversals between + and -; zeros are transparent, so a
    plateau between opposite motions still counts as one reversal."""
    moving = signs[signs != 0]
    return int(np.count_nonzero(moving[1:] != moving[:-1]))


def kinematics(
    d_star: DistanceSeries,
    deadband: float = DEFAULT_SIGN_DEADBAND,
    sample_rate_hz: Optional[float] = None,
) -> dict[str, Optional[float]]:
    """Reversal count, mean speed and variance of a distance series, keyed
    by the suffixes of the ``<period>_*`` feature columns.

    ``sign_changes`` is the reversal count as a float; ``mean_speed`` is
    the mean absolute per-sample change converted to units/second with
    the sample rate (derived from the series' own median time step when
    not given); ``dist_var`` is the population variance.  Series with
    fewer than two samples get the variance only; the other two are None.
    """
    if len(d_star) == 0:
        raise ValueError("kinematics needs a nonempty series")
    variance = float(np.mean((d_star.values - float(np.mean(d_star.values))) ** 2))
    if len(d_star) < 2:
        return {"sign_changes": None, "mean_speed": None, "dist_var": variance}
    speed = np.diff(d_star.values)
    if sample_rate_hz is None:
        step = float(np.median(np.diff(d_star.times)))
        sample_rate_hz = 1.0 / step if step > 0 else 0.0
    return {
        "sign_changes": float(count_sign_changes(sign_series(speed, deadband))),
        "mean_speed": float(np.mean(np.abs(speed))) * sample_rate_hz,
        "dist_var": variance,
    }


def trailing_positive_run(d_star: DistanceSeries, deadband: float = 0.0) -> float:
    """Duration of the maximal trailing run of strictly-increasing steps.

    Zeros break the run: a pause at the end is not a continuous increase.
    0.0 for series with fewer than two samples.
    """
    if len(d_star) < 2:
        return 0.0
    signs = sign_series(np.diff(d_star.values), deadband)
    k = 0
    for sgn in signs[::-1]:
        if sgn != 1:
            break
        k += 1
    if k == 0:
        return 0.0
    return float(d_star.times[-1] - d_star.times[len(d_star) - 1 - k])


def early_shift_ratio(
    d_ao_operating: DistanceSeries,
    dur_operating: float,
    deadband: float = DEFAULT_SIGN_DEADBAND,
    min_operating: float = MIN_OPERATING_FOR_EARLY_SHIFT,
) -> Optional[float]:
    """Fraction of the operating period occupied by the trailing
    continuous increase of the attention-hotspot distance.

    None (undefined) for operating periods shorter than ``min_operating``
    seconds; otherwise in [0, 1].
    """
    if dur_operating < min_operating:
        return None
    if dur_operating <= 0:
        return None
    run = trailing_positive_run(d_ao_operating, deadband)
    return min(run / dur_operating, 1.0)


def classify_shift_kind(
    r: Optional[float], early_min: float = DEFAULT_EARLY_SHIFT_MIN
) -> str:
    """"early" when the early-shift ratio reaches ``early_min``;
    undefined ratios propagate."""
    if r is None:
        return "undefined"
    return "early" if r >= early_min else "non-early"


def classify_gaze_pattern(
    d_ao_gazing: DistanceSeries,
    deadband: float = DEFAULT_SIGN_DEADBAND,
    search_freq_min: float = DEFAULT_SEARCH_FREQ_MIN,
) -> str:
    """"search" when the attention-hotspot distance reverses direction at
    least ``search_freq_min`` times per second over the gazing period;
    otherwise (including degenerate periods) "shift"."""
    if len(d_ao_gazing) < 3:
        return "shift"
    span = d_ao_gazing.span
    if span <= 0:
        return "shift"
    changes = count_sign_changes(sign_series(np.diff(d_ao_gazing.values), deadband))
    return "search" if changes / span >= search_freq_min else "shift"


def _pearson(x: Sequence[float], y: Sequence[float]) -> Optional[float]:
    """``analysis.pearson`` in numpy, with the same bits.

    Over the units of a run this is several times faster than the
    pure-Python ``analysis.pearson``, which the study commands use so as
    not to load numpy.
    """
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError(f"pearson needs two equal-length vectors, got {xs.shape} and {ys.shape}")
    n = len(xs)
    if n < 3:
        return None
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    sx = float(np.sqrt(np.sum(dx * dx)))
    sy = float(np.sqrt(np.sum(dy * dy)))
    if sx == 0.0 or sy == 0.0:
        return None
    r = float(np.sum(dx * dy) / (sx * sy))
    return max(-1.0, min(1.0, r))


def attention_hand_correlation(
    d_ao: DistanceSeries, d_ho: DistanceSeries
) -> Optional[float]:
    """Pearson correlation of the two hotspot distances over their common
    frames; None with fewer than three common samples or a constant
    series."""
    # a series' times are strictly increasing, so each is unique
    _, ia, ib = np.intersect1d(d_ao.times, d_ho.times, assume_unique=True, return_indices=True)
    if len(ia) < 3:
        return None
    return _pearson(d_ao.values[ia], d_ho.values[ib])


def attention_lead_lag(
    d_ao_star: DistanceSeries,
    d_ho_star: DistanceSeries,
    lag_threshold: float = DEFAULT_LAG_THRESHOLD,
) -> Optional[float]:
    """Time by which attention reaches the hotspot's neighborhood before
    the hand, over the approach (compensated series up to the first
    touch).

    A series reaches the neighborhood at the first time it drops below
    ``lag_threshold`` x its maximum and stays below through the end of the
    approach.  Positive = attention leads.  None when either series never
    crosses.
    """
    t_attention = _arrival_time(d_ao_star, lag_threshold)
    t_hand = _arrival_time(d_ho_star, lag_threshold)
    if t_attention is None or t_hand is None:
        return None
    return t_hand - t_attention


def _arrival_time(d_star: DistanceSeries, threshold_fraction: float) -> Optional[float]:
    if len(d_star) == 0:
        return None
    peak = float(np.max(d_star.values))
    if peak <= 0:
        return None
    threshold = threshold_fraction * peak
    below = d_star.values < threshold
    if not below[-1]:
        return None
    # first index from which the series stays below the threshold
    idx = len(below) - 1
    while idx > 0 and below[idx - 1]:
        idx -= 1
    return float(d_star.times[idx])


def feature_vector(
    s: Session,
    ou: OperationUnit,
    hotspot: Optional[Hotspot],
    params: FeatureParams = FeatureParams(),
) -> FeatureVector:
    """All features of one unit; never aborts on degenerate units."""
    dur_g, dur_h, dur_o, ratio_g, ratio_h, ratio_o = period_durations(ou)
    row: dict[str, object] = dict(
        ou_index=ou.index, step_id=ou.step_id,
        dur_gazing=dur_g, dur_approaching=dur_h, dur_operating=dur_o,
        ratio_gazing=ratio_g, ratio_approaching=ratio_h, ratio_operating=ratio_o,
    )
    if hotspot is None:
        return FeatureVector(**row, hotspot_id=None, gaze_pattern="shift", shift_kind="undefined",
                             undefined=dict.fromkeys(_NO_HOTSPOT, "no_hotspot"))

    undefined: dict[str, str] = {}
    # every period lies inside the unit and the frame rule does not depend
    # on the period, so a window of the whole-unit series is a direct build
    trace = _unit_trace(s, ou, hotspot)
    ao_ou = DistanceSeries(trace.t, trace.d_ao, "AO")
    ho_ou = DistanceSeries(trace.t[trace.hand], trace.d_ho[trace.hand], "HO")
    ao_g, ao_h, ao_o, ao_gh = (ao_ou.window(*period_bounds(ou, p)) for p in ("G", "H", "O", "GH"))
    ho_gh = ho_ou.window(*period_bounds(ou, "GH"))

    for key, series in (("gazing", ao_g), ("approaching", ao_h), ("operating", ao_o)):
        if len(series) == 0:
            undefined[f"{key}_kinematics"] = "empty_period"
            continue
        kin = kinematics(compensate_offset(series), params.sign_deadband, s.sample_rate_hz)
        row.update((f"{key}_{name}", value) for name, value in kin.items())
        if kin["sign_changes"] is None:
            undefined[f"{key}_sign_changes"] = "series_too_short"

    if len(ao_o):
        row["operating_mean_dist"] = float(np.mean(ao_o.values))
    else:
        undefined["operating_mean_dist"] = "empty_period"

    corr = attention_hand_correlation(ao_ou, ho_ou)
    if corr is None:
        # the HO times are a subset of the AO times, so HO's length is the
        # number of common samples
        undefined["corr_attention_hand"] = "insufficient_samples" if len(ho_ou) < 3 else "zero_variance"

    if len(ao_gh) == 0 or len(ho_gh) == 0:
        lag = None
        undefined["attention_lead_lag"] = "empty_approach_series"
    else:
        lag = attention_lead_lag(
            compensate_offset(ao_gh), compensate_offset(ho_gh), params.lag_threshold
        )
        if lag is None:
            undefined["attention_lead_lag"] = "no_threshold_crossing"

    early = early_shift_ratio(
        compensate_offset(ao_o), dur_o, params.sign_deadband, params.min_operating_for_early_shift,
    ) if len(ao_o) else None
    if early is None:
        short = dur_o < params.min_operating_for_early_shift
        reason = "operating_below_min_duration" if short else "empty_period"
        undefined["early_shift_ratio"] = undefined["shift_kind"] = reason

    return FeatureVector(
        **row, hotspot_id=hotspot.id, corr_attention_hand=corr, attention_lead_lag=lag,
        early_shift_ratio=early,
        gaze_pattern=classify_gaze_pattern(ao_g, params.sign_deadband, params.search_freq_min),
        shift_kind=classify_shift_kind(early, params.early_shift_min), undefined=undefined,
    )
