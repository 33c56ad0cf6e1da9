"""Differential tests of the windowed distance series and feature vectors.

``build_distance_series`` selects a period by index range, and
``feature_vector`` takes a unit's periods as windows of its whole-unit
series and writes a flat row; both must give the bytes of the mask-based
oracle in ``tests/reference_features.py``, whose nested vector is
flattened for the comparison.  Sessions and units are drawn directly, so
units may hold hand-absent runs, touching frames outside their operating
period, frames exactly on period bounds, empty or one-sample periods, or
no hotspot at all.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

import reference_features
from opgaze.featurerow import SCALAR_FEATURES
from opgaze.features import (
    PERIODS,
    FeatureParams,
    build_distance_series,
    compensate_offset,
    feature_vector,
    period_bounds,
)
from opgaze.session import DistanceSeries, Hotspot, Interval, OperationUnit, Point2, Session

coords = st.one_of(st.sampled_from([0.0, -0.0, 0.1 + 0.2, 1e-300, -123456.789, 3.5e7]),
                   st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False))
# unique drops -0.0 beside 0.0; sorted times are then strictly increasing
times_lists = st.lists(
    st.one_of(st.sampled_from([0.0, 5e-324, 0.1, 0.2, 0.1 + 0.2, 0.3]),
              st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=60, unique=True,
).map(sorted)


@st.composite
def units_of_sessions(draw) -> tuple[Session, OperationUnit, Hotspot | None, FeatureParams]:
    times = draw(times_lists)
    n = len(times)
    visible = np.ones(n, dtype=bool)
    for start, length in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 8)),
                                       max_size=3)):
        visible[start:start + length] = False  # a run with the hand out of sight
    touching = visible & np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    pairs = st.lists(st.tuples(coords, coords), min_size=n, max_size=n)
    hand_xy = np.array(draw(pairs), dtype=float).reshape(-1, 2)
    hand_xy[~visible] = np.nan
    s = Session("s1", "op1", "earlier", sample_rate_hz=draw(st.sampled_from([10.0, 30.0])),
                times=np.array(times), attention_xy=np.array(draw(pairs)).reshape(-1, 2),
                hand_xy=hand_xy, touching_mask=touching)
    # bounds on frames make empty, one-sample and exactly-bounded periods likely
    bound = st.one_of(st.sampled_from(times), st.floats(0.0, 100.0))
    b = sorted(draw(st.lists(bound, min_size=4, max_size=4)))
    ou = OperationUnit(0, Interval(b[0], b[1]), Interval(b[1], b[2]), Interval(b[2], b[3]),
                       hotspot_id=0)
    hotspot = draw(st.one_of(st.none(), st.builds(
        lambda x, y: Hotspot(0, Point2(x, y), 0, 0.0, 0.0, ()), coords, coords)))
    params = FeatureParams(sign_deadband=draw(st.sampled_from([0.0, 0.5])),
                           min_operating_for_early_shift=draw(st.sampled_from([1.0, 1e-3])))
    return s, ou, hotspot, params


def as_bytes(d: DistanceSeries) -> tuple[bytes, bytes]:
    return d.times.tobytes(), d.values.tobytes()


def kinds(hotspot) -> tuple[str, ...]:
    return ("AO", "HO", "AH") if hotspot is not None else ("AH",)


def assert_rebuilds(d: DistanceSeries) -> None:
    assert not d.times.flags.writeable and not d.values.flags.writeable
    DistanceSeries(times=d.times, values=d.values, kind=d.kind)


def check_direct_builds(s, ou, hotspot, params) -> None:
    for kind in kinds(hotspot):
        for period in PERIODS:
            got = build_distance_series(s, ou, hotspot, kind, period)
            want = reference_features.build_distance_series(s, ou, hotspot, kind, period)
            assert as_bytes(got) == as_bytes(want), (kind, period)


def check_windows(s, ou, hotspot, params) -> None:
    for kind in kinds(hotspot):
        whole = build_distance_series(s, ou, hotspot, kind, "OU")
        for period in PERIODS:
            window = whole.window(*period_bounds(ou, period))
            want = reference_features.build_distance_series(s, ou, hotspot, kind, period)
            assert as_bytes(window) == as_bytes(want), (kind, period)
            assert_rebuilds(window)
            if len(window):
                compensated = compensate_offset(window)
                assert as_bytes(compensated) == as_bytes(reference_features.compensate_offset(want))
                assert_rebuilds(compensated)


def check_feature_vector(s, ou, hotspot, params) -> None:
    got = feature_vector(s, ou, hotspot, params)
    want = reference_features.feature_vector(s, ou, hotspot, params)
    flat = reference_features.scalar_features(want)
    assert repr([getattr(got, name) for name in SCALAR_FEATURES]) == \
        repr([flat[name] for name in SCALAR_FEATURES])
    assert (got.ou_index, got.hotspot_id, got.step_id) == (want.ou_index, want.hotspot_id, want.step_id)
    assert (got.gaze_pattern, got.shift_kind, got.undefined) == \
        (want.gaze_pattern, want.shift_kind, want.undefined)


@settings(max_examples=300, deadline=None)
@given(units_of_sessions())
def test_direct_builds_equal_the_oracle(case):
    check_direct_builds(*case)


@settings(max_examples=300, deadline=None)
@given(units_of_sessions())
def test_windows_of_the_unit_equal_direct_builds(case):
    check_windows(*case)


@settings(max_examples=300, deadline=None)
@given(units_of_sessions())
def test_feature_vectors_equal_the_oracle(case):
    check_feature_vector(*case)


def test_frames_on_every_bound():
    # 10 Hz, 0-3 s; the hand is out of sight 0.3-0.6 s, a stray touch at
    # 0.2 s; G = [0, 1), H = [1, 1.5), O = [1.5, 2.5], each bound on a frame
    times = np.arange(31) / 10
    visible = (times < 0.3) | (times > 0.65)
    touching = (times == 0.2) | ((times >= 1.5) & (times <= 2.5))
    hand_xy = np.column_stack((50.0 - 20 * times, 3.0 + times))
    hand_xy[~visible] = np.nan
    s = Session("s1", "op1", "earlier", sample_rate_hz=10.0, times=times,
                attention_xy=np.column_stack((100.0 - 10 * times, np.full(31, 0.1 + 0.2))),
                hand_xy=hand_xy, touching_mask=touching)
    ou = OperationUnit(0, Interval(0.0, 1.0), Interval(1.0, 1.5), Interval(1.5, 2.5))
    hotspot = Hotspot(0, Point2(5.0, 2.0), 0, 0.0, 0.0, ())
    params = FeatureParams(min_operating_for_early_shift=0.5)
    for check in (check_direct_builds, check_windows, check_feature_vector):
        check(s, ou, hotspot, params)
    o = build_distance_series(s, ou, hotspot, "AO", "OU").window(*period_bounds(ou, "O"))
    assert (o.times[0], o.times[-1], len(o)) == (1.5, 2.5, 11)  # O is closed
    g = build_distance_series(s, ou, hotspot, "HO", "OU").window(*period_bounds(ou, "G"))
    assert 0.2 not in g.times and 1.0 not in g.times and len(g) == 5  # G is half-open
