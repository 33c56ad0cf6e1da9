"""The segmented kernels of ``opgaze.features`` against their one-segment calls.

``trace_features`` computes every unit's features over the concatenation
of the units' windows, as segments of one array.  Each public per-series
function is the one-segment call of the same kernel, so a kernel's result
for a segment must equal that function's result for the segment's own
copy, bit for bit.  Concatenations hold empty and one-sample segments,
plateaus, steps at the sign deadband, and segments whose first time is the
last time of the one before, as where a unit's G window meets its H
window.  Each segment's mean must have the bits ``np.mean`` gives the
segment's own copy: a sum in another order, as ``np.add.reduceat`` adds,
fails that.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from opgaze.features import (
    FeatureParams,
    _compensated,
    _correlations,
    _early_shift_ratios,
    _gaze_patterns,
    _kinematics,
    _lead_lags,
    _means,
    _offsets,
    _pearson,
    _sign_changes,
    _steps,
    _trailing_positive_runs,
    attention_lead_lag,
    classify_gaze_pattern,
    compensate_offset,
    count_sign_changes,
    early_shift_ratio,
    kinematics,
    sign_series,
    trace_features,
    trailing_positive_run,
)
from opgaze.session import DistanceSeries
from test_writers import multi_unit_results

# plateaus and steps of exactly the 0.5 deadband are likely among these
values = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.5, 0.1 + 0.2, 1e-300]),
                   st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False))


@st.composite
def segmented(draw) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(times, values, offsets) of 0-6 segments of 0-40 samples, each with
    strictly increasing times; a segment may start at the time the one
    before it ends."""
    lengths = draw(st.lists(st.sampled_from([0, 1, 2, 3, 9, 40]) | st.integers(0, 40), max_size=6))
    times, vals, t = [], [], 0.0
    for n in lengths:
        t = draw(st.sampled_from([t, t + 0.1, 0.0]))  # on the last bound, past it, or back at 0
        steps = draw(st.lists(st.sampled_from([0.1, 1 / 30, 0.5]), min_size=n, max_size=n))
        seg = (t + np.cumsum([0.0, *steps[1:]])).tolist() if n else []
        times += seg
        vals += draw(st.lists(values, min_size=n, max_size=n))
        t = seg[-1] if n else t
    return np.array(times, dtype=float), np.array(vals, dtype=float), _offsets(lengths)


def pieces(times, vals, offsets):
    """Each segment as a series of its own copies."""
    for lo, hi in zip(offsets[:-1].tolist(), offsets[1:].tolist()):
        yield DistanceSeries(times[lo:hi].copy(), vals[lo:hi].copy(), "AO")


deadbands = st.sampled_from([0.0, 0.5])


@settings(max_examples=100, deadline=None)
@given(segmented(), deadbands)
def test_each_kernel_gives_each_segment_its_one_segment_result(case, deadband):
    times, vals, offsets = case
    star = _compensated(vals, offsets)
    steps, step_offsets = _steps(vals, offsets)
    durations = [0.5, 1.0, 2.0, 3.0, 0.0, 1e-3][:len(offsets) - 1]
    got = zip(_kinematics(star, offsets, deadband, 30.0),
              _sign_changes(sign_series(steps, deadband), step_offsets).tolist(),
              _trailing_positive_runs(times, star, offsets, deadband).tolist(),
              _early_shift_ratios(times, star, offsets, durations, deadband, 1.0),
              _gaze_patterns(times, vals, offsets, deadband, 1.0),
              _means(vals, offsets))
    for k, (d, (kin, changes, run, early, pattern, mean)) in enumerate(
            zip(pieces(times, vals, offsets), got)):
        lo, hi = offsets[k], offsets[k + 1]
        assert changes == count_sign_changes(sign_series(np.diff(d.values), deadband))
        assert pattern == classify_gaze_pattern(d, deadband, 1.0)
        if not len(d):
            assert kin is None
            continue
        d_star = compensate_offset(d)
        assert star[lo:hi].tobytes() == d_star.values.tobytes()
        assert repr(kin) == repr(kinematics(d_star, deadband, sample_rate_hz=30.0))
        assert repr(run) == repr(trailing_positive_run(d_star, deadband))
        assert repr(early) == repr(early_shift_ratio(d_star, durations[k], deadband, 1.0))
        assert np.float64(mean).tobytes() == np.mean(d.values.copy()).tobytes()


@settings(max_examples=60, deadline=None)
@given(segmented(), st.data())
def test_pairs_of_segments_give_their_one_segment_results(case, data):
    times, vals, offsets = case
    # a second series of the same segment lengths, for the correlation, and
    # one of other lengths, for the lead-lag
    other = np.array(data.draw(st.lists(values, min_size=len(vals), max_size=len(vals))), dtype=float)
    h_times, h_vals, h_offsets = data.draw(segmented())
    k = min(len(offsets), len(h_offsets)) - 1
    offsets, h_offsets = offsets[:k + 1], h_offsets[:k + 1]
    times, vals, other = times[:offsets[-1]], vals[:offsets[-1]], other[:offsets[-1]]
    h_times, h_vals = h_times[:h_offsets[-1]], h_vals[:h_offsets[-1]]
    corrs = _correlations(vals, other, offsets)
    lags = _lead_lags(times, vals, offsets, h_times, h_vals, h_offsets, 0.2)
    for j, (a, h) in enumerate(zip(pieces(times, vals, offsets), pieces(h_times, h_vals, h_offsets))):
        assert repr(corrs[j]) == repr(_pearson(a.values, other[offsets[j]:offsets[j + 1]].copy()))
        assert repr(lags[j]) == repr(attention_lead_lag(a, h, 0.2))


@settings(max_examples=50, deadline=None)
@given(multi_unit_results(), deadbands)
def test_a_session_of_units_gives_each_unit_its_own_features(result, deadband):
    # the units' windows meet on frames and share frames, and hold stray
    # touches and hand-absent runs
    s = result.session
    params = FeatureParams(sign_deadband=deadband, min_operating_for_early_shift=1e-3)
    batch = trace_features(s, result.traces, params)
    alone = [trace_features(s, trace, params)[0] for trace in result.traces.per_unit()]
    assert [f.unit for f in batch] == [f.unit for f in alone] == list(result.traces.units)
    assert repr([f.row for f in batch]) == repr([f.row for f in alone])
