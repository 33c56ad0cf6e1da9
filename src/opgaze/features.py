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
reason code.  :func:`trace_features` computes them for all of a session's
units at once, over one array per period cut into segments; each
per-series function here runs the same code on one segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence

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
# per period: its kinematics group, then its columns in the order kinematics() gives them
_KINEMATICS_COLUMNS = tuple((f"{p}_kinematics", f"{p}_sign_changes", f"{p}_mean_speed", f"{p}_dist_var")
                            for p in ("gazing", "approaching", "operating"))

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
    window of the unit's trace against ``hotspot`` (:func:`unit_traces`,
    :meth:`UnitTraces.series`).
    """
    if period not in PERIODS:
        raise ValueError(f"period must be one of {PERIODS}, got {period!r}")
    if kind in ("AO", "HO") and hotspot is None:
        raise ValueError(f"kind {kind!r} needs an assigned hotspot")
    # an "AH" series does not use the hotspot, so any point will do
    trace = unit_traces(s, (replace(ou, hotspot_id=0),), (hotspot or _ORIGIN,))
    return trace.series(kind).window(*period_bounds(ou, period))


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

    def series(self, kind: str) -> DistanceSeries:
        """The whole-unit series of ``kind`` of a one-unit trace: every row
        for "AO", the rows with a hand in sight for "HO" and "AH"."""
        rows = slice(None) if kind == "AO" else self.hand
        values = self.d_ao if kind == "AO" else self.d_ho if kind == "HO" else self.d_ah
        # the constructor checks the series, and rejects an unknown kind
        return DistanceSeries(self.t[rows], values[rows], kind)

    def per_unit(self) -> list[UnitTraces]:
        """The one-unit trace of each unit, whose arrays are views of these."""
        ends = np.cumsum(self.counts, dtype=np.intp)[:-1]
        columns = (np.split(a, ends) for a in (self.t, self.d_ao, self.d_ho, self.d_ah, self.hand))
        return [UnitTraces((ou,), (len(t),), t, *rest) for ou, t, *rest in zip(self.units, *columns)]


def unit_traces(
    s: Session, units: Sequence[OperationUnit], hotspots: Sequence[Hotspot]
) -> UnitTraces:
    """The "OU" traces of every unit with a hotspot, computed in one pass.

    This is the one place that picks a unit's frames and computes its
    distances.  ``analyze`` calls it once per session: :func:`trace_features`
    takes every unit's features from the result, and the trace files are
    written from it; :func:`build_distance_series` traces its one unit.  A
    unit's rows are the frames of its whole range but stray contacts, and HO
    is 0 while the hotspot is touched.  The rows need no series checks: a unit's frames
    are in time order, and ``Session.times`` is strictly increasing.  Every
    coordinate that reaches the pipeline through the parser is finite with
    |v| <= ``ingest.COORD_MAX`` = 1e50, and a hotspot centroid is a mean of
    such hand positions, so each coordinate difference is at most 2e50 and
    each distance is finite, >= 0 and at most 2 * sqrt(2) * 1e50 < 2.9e50.
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
    values = _compensated(d.values, _whole(len(d)))
    values.flags.writeable = False
    return d._derive(d.times, values)


def sign_series(speed: np.ndarray, deadband: float = 0.0) -> np.ndarray:
    """Direction of each increment: +1 above the deadband, -1 below its
    negative, else 0.  Each sign is its increment's own, so the signs of a
    concatenation of segments are the segments' signs."""
    signs = np.zeros(len(speed), dtype=int)
    signs[speed > deadband] = 1
    signs[speed < -deadband] = -1
    return signs


def count_sign_changes(signs: np.ndarray) -> int:
    """Number of reversals between + and -; zeros are transparent, so a
    plateau between opposite motions still counts as one reversal."""
    return int(_sign_changes(signs, _whole(len(signs)))[0])


def kinematics(
    d_star: DistanceSeries,
    deadband: float = DEFAULT_SIGN_DEADBAND,
    *,
    sample_rate_hz: float,
) -> dict[str, Optional[float]]:
    """Reversal count, mean speed and variance of a distance series, keyed
    by the suffixes of the ``<period>_*`` feature columns.

    ``sign_changes`` is the reversal count as a float; ``mean_speed`` is
    the mean absolute per-sample change converted to units/second with
    the session's sample rate; ``dist_var`` is the population variance.
    Series with fewer than two samples get the variance only; the other
    two are None.
    """
    if len(d_star) == 0:
        raise ValueError("kinematics needs a nonempty series")
    return _kinematics(d_star.values, _whole(len(d_star)), deadband, sample_rate_hz)[0]


def trailing_positive_run(d_star: DistanceSeries, deadband: float = 0.0) -> float:
    """Duration of the maximal trailing run of strictly-increasing steps.

    Zeros break the run: a pause at the end is not a continuous increase.
    0.0 for series with fewer than two samples.
    """
    return float(_trailing_positive_runs(d_star.times, d_star.values, _whole(len(d_star)), deadband)[0])


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
    d = d_ao_operating
    return _early_shift_ratios(d.times, d.values, _whole(len(d)), (dur_operating,), deadband,
                               min_operating)[0]


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
    d = d_ao_gazing
    return _gaze_patterns(d.times, d.values, _whole(len(d)), deadband, search_freq_min)[0]


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
    return _correlations(xs, ys, _whole(len(xs)))[0]


def attention_hand_correlation(
    d_ao: DistanceSeries, d_ho: DistanceSeries
) -> Optional[float]:
    """Pearson correlation of the two hotspot distances over their common
    frames; None with fewer than three common samples or a constant
    series."""
    # a series' times are strictly increasing, so each is unique
    _, ia, ib = np.intersect1d(d_ao.times, d_ho.times, assume_unique=True, return_indices=True)
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
    a, h = d_ao_star, d_ho_star
    return _lead_lags(a.times, a.values, _whole(len(a)), h.times, h.values, _whole(len(h)),
                      lag_threshold)[0]


@dataclass(frozen=True)
class TraceFeatures:
    """The features one unit's trace gives (:func:`trace_features`).

    ``row`` holds them as keyword arguments of :class:`FeatureVector`:
    the distance, kinematics and synergy scalars that are defined, the
    two classifications and ``undefined``, the reasons for the rest.
    """

    unit: OperationUnit
    row: Mapping[str, object]


def trace_features(
    s: Session, traces: UnitTraces, params: FeatureParams = FeatureParams()
) -> tuple[TraceFeatures, ...]:
    """The features of every unit of ``traces``, in one pass over its
    columns; ``analyze`` calls it once per session.

    Each unit's G, H, O and GH windows are found at once, and each period's
    windows are gathered into one array.  The minima, the compensated values
    and their steps, the signs, the reversal counts, the trailing runs and
    the arrival times are then computed over each array in segments.  Each
    mean or sum is one ``np.add.reduce`` on a window's contiguous view, so
    it has the bits ``np.mean`` gives the window alone.  Every public
    per-series function of this module is the one-segment call of the same
    code, so a unit's features are those of its series alone.
    """
    if not traces.units:
        return ()
    units, t, d_ao, hand = traces.units, traces.t, traces.d_ao, traces.hand
    starts = _offsets(traces.counts)  # unit k's rows are starts[k]:starts[k + 1]
    # the first row of each unit at or after each of its bounds, after the
    # closed end of O: a searchsorted in each unit's rows, which are in time order
    at = np.repeat([(ou.gazing.start, ou.approaching.start, ou.operating.start, ou.operating.end)
                    for ou in units], traces.counts, axis=0)
    before = t[:, None] < at
    before[:, 3] = t <= at[:, 3]
    before = np.concatenate((np.zeros((1, 4), dtype=np.intp), np.cumsum(before, axis=0)))
    # the periods are contiguous: G is g:h, H is h:o, O is o:o_end and GH is g:o
    g, h, o, o_end = (starts[:-1, None] + before[starts[1:]] - before[starts[:-1]]).T
    ao = {}
    for period, lo, hi in (("G", g, h), ("H", h, o), ("O", o, o_end), ("GH", g, o)):
        rows, offsets = _windows(lo, hi)
        ao[period] = t[rows], d_ao[rows], offsets
    # the frames with the hand in sight; hand_before[i] of them precede row i
    hand_before = _offsets(hand)
    hand_t, hand_ao, hand_ho = t[hand], d_ao[hand], traces.d_ho[hand]
    ho_gh, ho_gh_offsets = _windows(hand_before[g], hand_before[o])

    deadband = params.sign_deadband
    kins = (_kinematics(_compensated(v, offsets), offsets, deadband, s.sample_rate_hz)
            for _, v, offsets in (ao["G"], ao["H"], ao["O"]))
    o_times, o_values, o_offsets = ao["O"]
    corrs = _correlations(hand_ao, hand_ho, hand_before[starts])
    gh_times, gh_values, gh_offsets = ao["GH"]
    lags = _lead_lags(gh_times, _compensated(gh_values, gh_offsets), gh_offsets,
                      hand_t[ho_gh], _compensated(hand_ho[ho_gh], ho_gh_offsets), ho_gh_offsets,
                      params.lag_threshold)
    durations = [ou.operating.duration for ou in units]
    earlies = _early_shift_ratios(o_times, _compensated(o_values, o_offsets), o_offsets, durations,
                                  deadband, params.min_operating_for_early_shift)
    no_approach = (_lengths(gh_offsets) == 0) | (_lengths(ho_gh_offsets) == 0)
    per_unit = zip(units, zip(*kins), _lengths(o_offsets).tolist(), _means(o_values, o_offsets), corrs,
                   _lengths(hand_before[starts]).tolist(), no_approach.tolist(), lags, earlies,
                   durations, _gaze_patterns(*ao["G"], deadband, params.search_freq_min))

    out = []
    for ou, unit_kins, n_o, o_mean, corr, n_hand, no_approach, lag, early, dur_o, pattern in per_unit:
        row: dict[str, object] = {}
        undefined: dict[str, str] = {}
        for names, kin in zip(_KINEMATICS_COLUMNS, unit_kins):
            if kin is None:
                undefined[names[0]] = "empty_period"
                continue
            row.update(zip(names[1:], kin.values()))
            if kin["sign_changes"] is None:
                undefined[names[1]] = "series_too_short"

        if n_o == 0:
            undefined["operating_mean_dist"] = "empty_period"
            early = None
        else:
            row["operating_mean_dist"] = o_mean

        if corr is None:
            # the hand rows are the frames the AO and HO series have in common
            undefined["corr_attention_hand"] = "insufficient_samples" if n_hand < 3 else "zero_variance"

        if no_approach:
            undefined["attention_lead_lag"] = "empty_approach_series"
        elif lag is None:
            undefined["attention_lead_lag"] = "no_threshold_crossing"

        if early is None:
            short = dur_o < params.min_operating_for_early_shift
            reason = "operating_below_min_duration" if short else "empty_period"
            undefined["early_shift_ratio"] = undefined["shift_kind"] = reason
        row.update(corr_attention_hand=corr, attention_lead_lag=lag, early_shift_ratio=early,
                   gaze_pattern=pattern, shift_kind=classify_shift_kind(early, params.early_shift_min),
                   undefined=undefined)
        out.append(TraceFeatures(ou, row))
    return tuple(out)


def feature_vector(ou: OperationUnit, traced: Optional[TraceFeatures]) -> FeatureVector:
    """All features of one unit; never aborts on degenerate units.

    ``traced`` is the unit's entry of :func:`trace_features`, or None for a
    unit without a hotspot.  This joins it to the unit's keys and period
    durations.
    """
    dur_g, dur_h, dur_o, ratio_g, ratio_h, ratio_o = period_durations(ou)
    keys = dict(
        ou_index=ou.index, step_id=ou.step_id,
        dur_gazing=dur_g, dur_approaching=dur_h, dur_operating=dur_o,
        ratio_gazing=ratio_g, ratio_approaching=ratio_h, ratio_operating=ratio_o,
    )
    if traced is None:
        return FeatureVector(**keys, hotspot_id=None, gaze_pattern="shift", shift_kind="undefined",
                             undefined=dict.fromkeys(_NO_HOTSPOT, "no_hotspot"))
    if traced.unit != ou:
        raise ValueError(f"the trace features are not unit {ou.index}'s own")
    return FeatureVector(**keys, hotspot_id=ou.hotspot_id, **traced.row)


# --- segments ------------------------------------------------------------------
#
# A segmented array is a flat array and the offsets of its segments:
# segment k is values[offsets[k]:offsets[k + 1]], and the segments, some
# maybe empty, fill the array in order.  Each function below gives one
# result per segment.


def _offsets(counts: Sequence[int]) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(counts, dtype=np.intp)))


def _lengths(offsets: np.ndarray) -> np.ndarray:
    return offsets[1:] - offsets[:-1]


def _whole(n: int) -> np.ndarray:
    """The offsets of an array of ``n`` values taken as one segment."""
    return np.array([0, n], dtype=np.intp)


def _windows(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indices of the rows lo[k]:hi[k], one window after another, and
    the offsets of the windows among them."""
    lengths = hi - lo
    offsets = _offsets(lengths)
    return np.arange(offsets[-1]) + np.repeat(lo - offsets[:-1], lengths), offsets


def _reduceat(ufunc: np.ufunc, values: np.ndarray, offsets: np.ndarray, empty: object) -> np.ndarray:
    """``ufunc`` reduced over each segment, ``empty`` for an empty one.

    For the minimum and maximum the grouping does not matter, so this gives
    the bits of a reduction of each segment alone; a sum would not.
    """
    out = np.full(len(offsets) - 1, empty, dtype=values.dtype)
    full = offsets[1:] > offsets[:-1]
    out[full] = ufunc.reduceat(values, offsets[:-1][full])
    return out


def _sums(values: np.ndarray, offsets: np.ndarray) -> list[np.float64]:
    """Each segment's sum, as one ``np.add.reduce`` on its contiguous view,
    whose pairwise order is that of ``np.sum`` and ``np.mean`` on the
    segment alone (``np.add.reduceat`` adds in another order)."""
    bounds = offsets.tolist()
    return [np.add.reduce(values[i:j]) for i, j in zip(bounds, bounds[1:])]


def _means(values: np.ndarray, offsets: np.ndarray) -> list[float]:
    """Each segment's mean with the bits of ``np.mean``; NaN when empty."""
    return [float(total) / n if n else math.nan
            for total, n in zip(_sums(values, offsets), _lengths(offsets).tolist())]


def _compensated(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each segment less its minimum (:func:`compensate_offset`)."""
    minima = _reduceat(np.minimum, values, offsets, math.nan)
    # finite v >= m >= 0 gives a finite v - m >= 0: no check is needed
    return values - np.repeat(minima, _lengths(offsets))


def _steps(values: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The steps v[i + 1] - v[i] within each segment, and their offsets: a
    segment of n values has max(n - 1, 0) steps."""
    steps = values[1:] - values[:-1]
    inner = offsets[1:-1]
    across = inner[(inner > 0) & (inner < len(values))] - 1  # last of one segment to first of a later
    keep = np.ones(len(steps), dtype=bool)
    keep[across] = False
    return steps[keep], _offsets(np.maximum(_lengths(offsets) - 1, 0))


def _sign_changes(signs: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each segment's :func:`count_sign_changes`."""
    segment = np.repeat(np.arange(len(offsets) - 1), _lengths(offsets))
    moving = signs != 0
    signs, segment = signs[moving], segment[moving]
    flips = (signs[1:] != signs[:-1]) & (segment[1:] == segment[:-1])
    return np.bincount(segment[1:][flips], minlength=len(offsets) - 1)


def _trailing_true(mask: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The length of each segment's trailing run of True."""
    last_false = _reduceat(np.maximum, np.where(mask, -1, np.arange(len(mask))), offsets, -1)
    return np.where(last_false >= offsets[:-1], offsets[1:] - 1 - last_false, _lengths(offsets))


def _kinematics(
    values: np.ndarray, offsets: np.ndarray, deadband: float, sample_rate_hz: float
) -> list[Optional[dict[str, Optional[float]]]]:
    """Each segment's :func:`kinematics`; None for an empty one."""
    lengths = _lengths(offsets)
    centered = values - np.repeat(_means(values, offsets), lengths)
    variances = _means(centered ** 2, offsets)
    speed, speed_offsets = _steps(values, offsets)
    speeds = _means(np.abs(speed), speed_offsets)
    changes = _sign_changes(sign_series(speed, deadband), speed_offsets).tolist()
    return [None if n == 0
            else {"sign_changes": None, "mean_speed": None, "dist_var": var} if n < 2
            else {"sign_changes": float(c), "mean_speed": v * sample_rate_hz, "dist_var": var}
            for n, c, v, var in zip(lengths.tolist(), changes, speeds, variances)]


def _trailing_positive_runs(
    times: np.ndarray, values: np.ndarray, offsets: np.ndarray, deadband: float
) -> np.ndarray:
    """Each segment's :func:`trailing_positive_run`."""
    steps, step_offsets = _steps(values, offsets)
    run = _trailing_true(sign_series(steps, deadband) == 1, step_offsets)
    last = offsets[1:][run > 0] - 1
    out = np.zeros(len(run))
    out[run > 0] = times[last] - times[last - run[run > 0]]
    return out


def _early_shift_ratios(
    times: np.ndarray, values: np.ndarray, offsets: np.ndarray, durations: Sequence[float],
    deadband: float, min_operating: float,
) -> list[Optional[float]]:
    """Each segment's :func:`early_shift_ratio`, over its duration."""
    runs = _trailing_positive_runs(times, values, offsets, deadband).tolist()
    return [None if dur < min_operating or dur <= 0 else min(run / dur, 1.0)
            for run, dur in zip(runs, durations)]


def _gaze_patterns(
    times: np.ndarray, values: np.ndarray, offsets: np.ndarray, deadband: float,
    search_freq_min: float,
) -> list[str]:
    """Each segment's :func:`classify_gaze_pattern`."""
    steps, step_offsets = _steps(values, offsets)
    changes = _sign_changes(sign_series(steps, deadband), step_offsets)
    lo, hi = offsets[:-1], offsets[1:]
    search = np.zeros(len(lo), dtype=bool)
    long = np.flatnonzero(hi - lo >= 3)
    span = times[hi[long] - 1] - times[lo[long]]
    moving = long[span > 0]
    search[moving] = changes[moving] / span[span > 0] >= search_freq_min
    return ["search" if x else "shift" for x in search.tolist()]


def _correlations(x: np.ndarray, y: np.ndarray, offsets: np.ndarray) -> list[Optional[float]]:
    """Each segment's Pearson correlation of ``x`` and ``y`` (:func:`_pearson`);
    None under three samples or for a constant series."""
    lengths = _lengths(offsets)
    dx, dy = (v - np.repeat(_means(v, offsets), lengths) for v in (x, y))
    out: list[Optional[float]] = []
    for n, sxx, syy, sxy in zip(lengths.tolist(), _sums(dx * dx, offsets), _sums(dy * dy, offsets),
                                _sums(dx * dy, offsets)):
        sx, sy = float(np.sqrt(sxx)), float(np.sqrt(syy))
        if n < 3 or sx == 0.0 or sy == 0.0:
            out.append(None)
        else:
            out.append(max(-1.0, min(1.0, float(sxy / (sx * sy)))))
    return out


def _arrival_times(
    times: np.ndarray, values: np.ndarray, offsets: np.ndarray, threshold_fraction: float
) -> list[Optional[float]]:
    """Each segment's first time from which it stays below
    ``threshold_fraction`` x its maximum; None if it ends above, or its
    maximum is not positive."""
    peaks = _reduceat(np.maximum, values, offsets, 0.0)
    run = _trailing_true(values < threshold_fraction * np.repeat(peaks, _lengths(offsets)), offsets)
    arrived = (peaks > 0) & (run > 0)
    first = np.where(arrived, offsets[1:] - run, 0)
    return [float(times[i]) if ok else None for i, ok in zip(first.tolist(), arrived.tolist())]


def _lead_lags(
    a_times: np.ndarray, a_values: np.ndarray, a_offsets: np.ndarray,
    h_times: np.ndarray, h_values: np.ndarray, h_offsets: np.ndarray, lag_threshold: float,
) -> list[Optional[float]]:
    """Each segment pair's :func:`attention_lead_lag`."""
    return [None if a is None or h is None else h - a
            for a, h in zip(_arrival_times(a_times, a_values, a_offsets, lag_threshold),
                            _arrival_times(h_times, h_values, h_offsets, lag_threshold))]
