"""Distance-series construction, kinematics, and the per-unit feature set."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from opgaze import (
    FeatureParams,
    Hotspot,
    Interval,
    OperationUnit,
    Point2,
    SegmentationParams,
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
    segment_units,
    sign_series,
    trailing_positive_run,
)
from opgaze.features import trace_features, unit_traces

from conftest import frame, make_session, series, unit_features


def hotspot_at(x, y, hid=0):
    return Hotspot(id=hid, centroid=Point2(x, y), touch_count=3, first_t=0.0,
                   last_t=1.0, member_touch_indices=(0, 1, 2))


@pytest.fixture
def fixture_unit(simple_ou_session):
    units = segment_units(simple_ou_session, SegmentationParams())
    return simple_ou_session, units[0]


class TestBuildDistanceSeries:
    def test_bad_period_rejected(self, fixture_unit):
        s, u = fixture_unit
        with pytest.raises(ValueError, match="period"):
            build_distance_series(s, u, hotspot_at(0, 0), "AO", "X")

    def test_hotspot_required_for_hotspot_kinds(self, fixture_unit):
        s, u = fixture_unit
        for kind in ("AO", "HO"):
            with pytest.raises(ValueError, match="hotspot"):
                build_distance_series(s, u, None, kind, "OU")

    def test_unknown_kind_rejected(self, fixture_unit):
        s, u = fixture_unit
        for hotspot in (hotspot_at(0, 0), None):
            with pytest.raises(ValueError, match="kind must be one of"):
                build_distance_series(s, u, hotspot, "XY", "OU")

    def test_gazing_is_half_open(self, fixture_unit):
        s, u = fixture_unit
        d = build_distance_series(s, u, hotspot_at(0.0, 0.0), "AO", "G")
        assert len(d) == 20
        assert d.times[0] == 0.0 and d.times[-1] == pytest.approx(1.9)
        # attention x = 50 - t, hotspot at origin
        assert d.values[0] == pytest.approx(50.0)
        assert d.values[-1] == pytest.approx(48.1)

    def test_operating_is_closed(self, fixture_unit):
        s, u = fixture_unit
        d = build_distance_series(s, u, hotspot_at(0.0, 0.0), "AO", "O")
        assert len(d) == 21
        assert d.times[0] == pytest.approx(3.0) and d.times[-1] == pytest.approx(5.0)
        assert np.allclose(d.values, 5.0)

    def test_whole_unit_spans_all_frames(self, fixture_unit):
        s, u = fixture_unit
        d = build_distance_series(s, u, hotspot_at(0.0, 0.0), "AO", "OU")
        assert len(d) == 51

    def test_hand_kinds_skip_hand_absent_frames(self, fixture_unit):
        s, u = fixture_unit
        d = build_distance_series(s, u, hotspot_at(0.0, 0.0), "HO", "GH")
        assert len(d) == 10  # only the approaching second has a hand
        assert d.times[0] == pytest.approx(2.0)
        assert d.values[0] == pytest.approx(60.0)

    def test_hand_hotspot_distance_zero_while_touching(self, fixture_unit):
        s, u = fixture_unit
        d = build_distance_series(s, u, hotspot_at(0.0, 0.0), "HO", "O")
        assert len(d) == 21
        assert np.all(d.values == 0.0)

    def test_attention_hand_kind(self, fixture_unit):
        s, u = fixture_unit
        d = build_distance_series(s, u, None, "AH", "O")
        # attention (5, 0), hand (10, 20) while touching
        assert np.allclose(d.values, math.hypot(5.0, 20.0))

    def test_stray_touching_frames_excluded(self):
        frames = []
        for i in range(21):
            t = i / 10.0
            stray = i == 5
            operating = 1.0 <= t <= 2.0
            on = stray or operating
            frames.append(frame(t, ax=1.0, ay=0.0, hx=0.0 if on else None,
                                hy=0.0 if on else None, touch=on))
        s = make_session(frames)
        u = OperationUnit(index=0, gazing=Interval(0.0, 1.0),
                          approaching=Interval(1.0, 1.0), operating=Interval(1.0, 2.0))
        d = build_distance_series(s, u, hotspot_at(0.0, 0.0), "AO", "OU")
        assert len(d) == 20
        assert 0.5 not in d.times


class TestCompensateOffset:
    def test_example(self):
        d = compensate_offset(series([5.0, 3.0, 4.0, 8.0]))
        assert d.values.tolist() == [2.0, 0.0, 1.0, 5.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compensate_offset(series([]))

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
    def test_minimum_is_exactly_zero(self, values):
        d = compensate_offset(series(values))
        assert float(np.min(d.values)) == 0.0
        assert np.all(d.values >= 0.0)


class TestSignChanges:
    def test_deadband_gates_small_motion(self):
        speed = np.array([0.5, -0.5, 2.0, -2.0])
        assert sign_series(speed, deadband=1.0).tolist() == [0, 0, 1, -1]

    def test_alternating(self):
        signs = sign_series(np.diff([0.0, 1.0, 0.0, 1.0, 0.0]))
        assert count_sign_changes(signs) == 3

    def test_zeros_are_transparent(self):
        assert count_sign_changes(np.array([1, 0, 0, -1])) == 1

    def test_no_motion(self):
        assert count_sign_changes(np.array([0, 0, 0])) == 0

    def test_monotone(self):
        assert count_sign_changes(np.array([1, 1, 1])) == 0

    @given(st.lists(st.sampled_from([-1, 0, 1]), max_size=60))
    def test_matches_symbol_oracle(self, signs):
        compact = [s for s in signs if s != 0]
        want = sum(1 for a, b in zip(compact, compact[1:]) if a != b)
        assert count_sign_changes(np.array(signs, dtype=int)) == want


class TestKinematics:
    def test_single_sample_variance_only(self):
        k = kinematics(series([4.0]), sample_rate_hz=10.0)
        assert k == {"sign_changes": None, "mean_speed": None, "dist_var": 0.0}

    def test_oscillation(self):
        k = kinematics(series([0.0, 1.0, 0.0, 1.0, 0.0]), sample_rate_hz=10.0)
        assert repr(k["sign_changes"]) == "3.0"  # a float count, as features.csv writes it
        assert k["mean_speed"] == pytest.approx(10.0)  # 1 unit per 0.1 s step
        assert k["dist_var"] == pytest.approx(0.24)

    def test_deadband_suppresses_jitter_reversals(self):
        k = kinematics(series([0.0, 0.05, 0.0, 0.05]), deadband=0.1, sample_rate_hz=10.0)
        assert k["sign_changes"] == 0

    def test_population_variance(self):
        k = kinematics(series([1.0, 3.0]), sample_rate_hz=10.0)
        assert k["dist_var"] == pytest.approx(1.0)  # population, not sample

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            kinematics(series([]), sample_rate_hz=10.0)


class TestTrailingPositiveRun:
    def test_v_shape(self):
        assert trailing_positive_run(series([5.0, 4.0, 3.0, 2.0, 3.0, 4.0])) == pytest.approx(0.2)

    def test_plateau_breaks_run(self):
        assert trailing_positive_run(series([5.0, 4.0, 3.0, 3.0, 4.0])) == pytest.approx(0.1)

    def test_plateau_at_end_means_no_run(self):
        assert trailing_positive_run(series([1.0, 2.0, 2.0])) == 0.0

    def test_whole_series_increasing(self):
        assert trailing_positive_run(series([0.0, 1.0, 2.0, 3.0])) == pytest.approx(0.3)

    def test_too_short(self):
        assert trailing_positive_run(series([1.0])) == 0.0
        assert trailing_positive_run(series([])) == 0.0


class TestEarlyShiftRatio:
    def test_below_minimum_duration_is_undefined(self):
        d = series([5.0, 4.0, 3.0, 2.0, 3.0, 4.0])
        assert early_shift_ratio(d, 0.999) is None

    def test_at_minimum_duration_defined(self):
        d = series([5.0, 4.0, 3.0, 2.0, 3.0, 4.0])
        assert early_shift_ratio(d, 1.0) == pytest.approx(0.2)

    def test_typical_value(self):
        d = series([5.0, 4.0, 3.0, 2.0, 3.0, 4.0])
        assert early_shift_ratio(d, 2.0) == pytest.approx(0.1)

    def test_clamped_to_one(self):
        d = series(np.arange(21.0))  # increasing for 2.0 s
        assert early_shift_ratio(d, 1.0) == 1.0

    def test_no_trailing_increase(self):
        d = series([5.0, 4.0, 3.0, 2.0, 1.0, 0.0])
        assert early_shift_ratio(d, 2.0) == 0.0


class TestClassifiers:
    def test_shift_kind_thresholds(self):
        assert classify_shift_kind(None) == "undefined"
        assert classify_shift_kind(0.1) == "early"
        assert classify_shift_kind(0.0999) == "non-early"
        assert classify_shift_kind(0.5) == "early"

    def test_search_when_reversals_frequent(self):
        assert classify_gaze_pattern(series([0.0, 1.0, 0.0, 1.0, 0.0])) == "search"

    def test_shift_when_drifting(self):
        assert classify_gaze_pattern(series([5.0, 4.0, 3.0, 2.0, 1.0, 0.0])) == "shift"

    def test_rate_boundary_is_search(self):
        # one reversal over exactly one second
        assert classify_gaze_pattern(series([0.0, 1.0, 0.0], rate=2.0)) == "search"

    def test_short_series_defaults_to_shift(self):
        assert classify_gaze_pattern(series([0.0, 5.0])) == "shift"
        assert classify_gaze_pattern(series([])) == "shift"


class TestAttentionHandCorrelation:
    def test_affine_relation_is_perfect(self):
        a = series([4.0, 3.0, 2.0, 1.0])
        b = series([11.0, 9.0, 7.0, 5.0], kind="HO")
        assert attention_hand_correlation(a, b) == pytest.approx(1.0)

    def test_opposed_motion(self):
        a = series([1.0, 2.0, 3.0])
        b = series([3.0, 2.0, 1.0], kind="HO")
        assert attention_hand_correlation(a, b) == pytest.approx(-1.0)

    def test_constant_series_undefined(self):
        a = series([1.0, 2.0, 3.0])
        b = series([5.0, 5.0, 5.0], kind="HO")
        assert attention_hand_correlation(a, b) is None

    def test_alignment_uses_common_times_only(self):
        a = series([4.0, 3.0, 2.0, 1.0])  # t = 0, .1, .2, .3
        b_times = np.array([0.0, 0.2, 0.3])
        from opgaze import DistanceSeries
        b = DistanceSeries(times=b_times, values=np.array([8.0, 4.0, 2.0]), kind="HO")
        assert attention_hand_correlation(a, b) == pytest.approx(1.0)

    def test_too_few_common_samples(self):
        a = series([1.0, 2.0])
        b = series([2.0, 4.0], kind="HO")
        assert attention_hand_correlation(a, b) is None


class TestAttentionLeadLag:
    @staticmethod
    def ramp(delay_samples, n=31, rate=10.0):
        # 10 -> 0 over 1 s, then hold at 0; optionally delayed
        values = []
        for i in range(n):
            j = max(i - delay_samples, 0)
            values.append(max(10.0 - j, 0.0))
        return series(values, rate=rate)

    def test_delayed_copy_recovers_delay(self):
        ao = self.ramp(0)
        ho = self.ramp(3)
        assert attention_lead_lag(ao, ho) == pytest.approx(0.3)

    def test_identical_series_zero_lag(self):
        assert attention_lead_lag(self.ramp(0), self.ramp(0)) == 0.0

    def test_negative_when_hand_first(self):
        assert attention_lead_lag(self.ramp(3), self.ramp(0)) == pytest.approx(-0.3)

    def test_no_crossing_is_undefined(self):
        rising = series(np.arange(10.0))
        assert attention_lead_lag(rising, self.ramp(0)) is None
        assert attention_lead_lag(self.ramp(0), rising) is None

    def test_flat_series_is_undefined(self):
        flat = series([0.0] * 10)
        assert attention_lead_lag(flat, self.ramp(0)) is None

    def test_brief_dip_does_not_count_as_arrival(self):
        # dips below threshold, climbs back, then settles: arrival is the
        # start of the final stay-below stretch
        values = [10.0, 1.0, 6.0, 10.0, 5.0, 1.0, 0.5, 0.0, 0.0, 0.0]
        d = series(values)
        arrival_series = self.ramp(0)
        lag = attention_lead_lag(d, arrival_series)
        # d stays below 2.0 from t=0.5 on; the ramp arrives at t=0.9
        assert lag == pytest.approx(0.9 - 0.5)


class TestFeatureParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            FeatureParams(sign_deadband=-1.0)
        with pytest.raises(ValueError):
            FeatureParams(lag_threshold=0.0)
        with pytest.raises(ValueError):
            FeatureParams(lag_threshold=1.0)
        with pytest.raises(ValueError):
            FeatureParams(min_operating_for_early_shift=0.0)


class TestFeatureVector:
    def test_fixture_unit_fully_defined(self, fixture_unit):
        s, u = fixture_unit
        fv = unit_features(s, u, hotspot_at(10.0, 20.0))
        assert fv.undefined == {}
        assert (fv.dur_gazing, fv.dur_approaching, fv.dur_operating) == (2.0, 1.0, 2.0)
        assert (fv.ratio_gazing, fv.ratio_approaching, fv.ratio_operating) == \
            pytest.approx((0.4, 0.2, 0.4))
        assert fv.operating_mean_dist == pytest.approx(math.hypot(5.0, 20.0))
        assert fv.operating_dist_var == pytest.approx(0.0)
        assert fv.operating_sign_changes == 0
        assert fv.gaze_pattern == "shift"  # gazing distance drifts monotonically
        assert fv.early_shift_ratio == 0.0
        assert fv.shift_kind == "non-early"
        assert fv.corr_attention_hand is not None and 0.0 < fv.corr_attention_hand <= 1.0
        assert fv.attention_lead_lag is not None

    def test_trace_of_another_unit_is_rejected(self, fixture_unit):
        s, u = fixture_unit
        u = dataclasses.replace(u, hotspot_id=0)
        (traced,) = trace_features(s, unit_traces(s, (u,), (hotspot_at(10.0, 20.0),)))
        assert feature_vector(u, traced).undefined == {}
        with pytest.raises(ValueError, match="not unit 5's own"):
            feature_vector(dataclasses.replace(u, index=5), traced)

    def test_no_hotspot_degrades_gracefully(self, fixture_unit):
        s, u = fixture_unit
        fv = unit_features(s, u, None)
        assert fv.hotspot_id is None
        assert fv.operating_mean_dist is None
        assert fv.corr_attention_hand is None
        assert fv.attention_lead_lag is None
        assert fv.early_shift_ratio is None
        assert fv.gaze_pattern == "shift"
        assert fv.shift_kind == "undefined"
        assert fv.undefined["operating_mean_dist"] == "no_hotspot"
        assert fv.undefined["shift_kind"] == "no_hotspot"
        # durations survive without a hotspot
        assert fv.dur_operating == 2.0

    def test_short_operating_has_undefined_ratio(self):
        frames = []
        for i in range(26):
            t = i / 10.0
            on = 2.0 <= t
            frames.append(frame(t, ax=5.0 - t, hx=1.0 if on else None,
                                hy=1.0 if on else None, touch=on))
        s = make_session(frames)
        u = segment_units(s, SegmentationParams(min_operating=0.2))[0]
        assert u.operating.duration == pytest.approx(0.5)
        fv = unit_features(s, u, hotspot_at(0.0, 0.0))
        assert fv.early_shift_ratio is None
        assert fv.undefined["early_shift_ratio"] == "operating_below_min_duration"
        assert fv.shift_kind == "undefined"
        assert fv.undefined["shift_kind"] == "operating_below_min_duration"

    def test_spatial_scale_invariance_of_dimensionless_features(self, simple_ou_session):
        def scaled(k):
            frames = [frame(f.t, ax=f.attention.x * k, ay=f.attention.y * k,
                            hx=None if f.hand is None else f.hand.x * k,
                            hy=None if f.hand is None else f.hand.y * k,
                            touch=f.touching) for f in simple_ou_session.frames]
            s = make_session(frames)
            u = segment_units(s, SegmentationParams())[0]
            return unit_features(s, u, hotspot_at(10.0 * k, 20.0 * k))

        base, big = scaled(1.0), scaled(3.0)
        assert big.dur_operating == base.dur_operating
        assert big.ratio_gazing == pytest.approx(base.ratio_gazing)
        assert big.operating_mean_dist == pytest.approx(3.0 * base.operating_mean_dist)
        assert big.gazing_sign_changes == base.gazing_sign_changes
        assert big.gaze_pattern == base.gaze_pattern
        assert big.shift_kind == base.shift_kind
        assert big.early_shift_ratio == pytest.approx(base.early_shift_ratio)
        assert big.corr_attention_hand == pytest.approx(base.corr_attention_hand)
        assert big.attention_lead_lag == pytest.approx(base.attention_lead_lag)
