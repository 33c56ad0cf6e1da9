"""Domain type invariants."""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from opgaze import (
    DifficultyRatings,
    DistanceSeries,
    FeatureVector,
    Interval,
    OperationUnit,
    Point2,
    Rating,
    Session,
    StepLabel,
    scene_diagonal,
)

from conftest import frame, frame_columns, make_session


class TestPoint2:
    def test_distance(self):
        assert Point2(0.0, 0.0).distance_to(Point2(3.0, 4.0)) == 5.0

    @pytest.mark.parametrize("x,y", [(float("nan"), 0.0), (0.0, float("inf")), (float("-inf"), 1.0)])
    def test_rejects_non_finite(self, x, y):
        with pytest.raises(ValueError):
            Point2(x, y)


class TestFrameRecord:
    def test_touch_requires_hand(self):
        with pytest.raises(ValueError, match="contact without hand"):
            frame(0.0, touch=True)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            frame(-0.1)


class TestSession:
    def test_duplicate_timestamp_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_session([frame(0.0), frame(0.033), frame(0.033)])

    def test_non_monotonic_rejected(self):
        with pytest.raises(ValueError, match="non-monotonic"):
            make_session([frame(0.0), frame(0.5), frame(0.2)])

    def test_empty_frames_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            make_session([])

    def test_overlapping_steps_rejected(self):
        labels = (StepLabel(0.0, 2.0, "a"), StepLabel(1.5, 3.0, "b"))
        with pytest.raises(ValueError, match="overlapping"):
            make_session([frame(0.0), frame(1.0)], step_labels=labels)

    def test_adjacent_steps_allowed(self):
        labels = (StepLabel(0.0, 2.0, "a"), StepLabel(2.0, 3.0, "b"))
        s = make_session([frame(0.0), frame(1.0)], step_labels=labels)
        assert [l.step_id for l in s.step_labels] == ["a", "b"]

    def test_cached_arrays_match_frames(self):
        s = make_session([
            frame(0.0, ax=1.0, ay=2.0),
            frame(0.1, ax=3.0, ay=4.0, hx=5.0, hy=6.0),
            frame(0.2, ax=7.0, ay=8.0, hx=9.0, hy=10.0, touch=True),
        ])
        assert np.array_equal(s.times, [0.0, 0.1, 0.2])
        assert np.array_equal(s.attention_xy, [[1, 2], [3, 4], [7, 8]])
        assert np.isnan(s.hand_xy[0]).all()
        assert np.array_equal(s.hand_xy[1:], [[5, 6], [9, 10]])
        assert list(s.touching_mask) == [False, False, True]
        assert list(s.hand_visible_mask) == [False, True, True]
        assert not s.times.flags.writeable

    def test_columns_are_storage_and_frames_a_view(self):
        frames = [frame(0.0, ax=1.0), frame(0.1, hx=5.0, hy=6.0, touch=True), frame(0.2, ax=-0.0)]
        s = make_session(frames)
        assert len(s) == 3 and s.frames == tuple(frames)
        assert s.frames is not s.frames  # built on demand, not cached
        columns = Session(id="s1", operator="op1", ordinal="earlier", sample_rate_hz=10.0,
                          times=s.times, attention_xy=s.attention_xy, hand_xy=s.hand_xy,
                          touching_mask=s.touching_mask)
        assert columns == s  # NaN hand rows compare equal
        assert pickle.loads(pickle.dumps(s)) == s
        assert dataclasses.replace(s, id="s2") != s
        assert dataclasses.replace(s, id="s2").frames == s.frames

    def test_built_from_columns_only(self):
        frames = [frame(0.0, ax=1.0), frame(0.1, hx=5.0, hy=6.0, touch=True)]
        with pytest.raises(TypeError):
            Session("s1", "op1", "earlier", frames=frames, sample_rate_hz=10.0)
        with pytest.raises(TypeError):  # past the ordinal, fields are keyword-only
            Session("s1", "op1", "earlier", 10.0, **frame_columns(frames))

    def test_column_invariants_checked(self):
        s = make_session([frame(0.0), frame(0.1, hx=1.0, hy=1.0, touch=True)])
        hand = s.hand_xy.copy()
        hand[1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            dataclasses.replace(s, hand_xy=hand)
        with pytest.raises(ValueError, match="contact without hand"):
            dataclasses.replace(s, touching_mask=[True, True])
        with pytest.raises(ValueError, match="duplicate timestamp at t=0.0"):
            dataclasses.replace(s, times=[0.0, 0.0])
        with pytest.raises(ValueError, match="2 frames"):
            dataclasses.replace(s, touching_mask=[False])

    def test_invalid_ordinal(self):
        with pytest.raises(ValueError, match="ordinal"):
            make_session([frame(0.0)], ordinal="middle")


def test_scene_diagonal_covers_attention_and_hand():
    s = make_session([frame(0.0, ax=0.0, ay=0.0), frame(0.1, ax=1.0, ay=0.0, hx=3.0, hy=4.0)])
    assert scene_diagonal(s) == pytest.approx(5.0)


def test_scene_diagonal_degenerate_is_zero():
    s = make_session([frame(0.0, ax=2.0, ay=2.0), frame(0.1, ax=2.0, ay=2.0)])
    assert scene_diagonal([s]) == 0.0


class TestOperationUnit:
    def test_contiguity_enforced(self):
        with pytest.raises(ValueError, match="contiguous"):
            OperationUnit(
                index=0,
                gazing=Interval(0.0, 1.0),
                approaching=Interval(1.5, 2.0),
                operating=Interval(2.0, 3.0),
            )

    def test_span_properties(self):
        ou = OperationUnit(0, Interval(0.0, 1.0), Interval(1.0, 2.0), Interval(2.0, 5.0))
        assert ou.start == 0.0
        assert ou.end == 5.0
        assert ou.operating.duration == 3.0


class TestDistanceSeries:
    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            DistanceSeries(times=np.array([0.0, 0.1]), values=np.array([1.0, -0.5]), kind="AO")

    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            DistanceSeries(times=np.array([0.0, 0.0]), values=np.array([1.0, 1.0]), kind="AO")

    def test_span(self):
        d = DistanceSeries(times=np.array([1.0, 1.5, 2.0]), values=np.zeros(3), kind="AH")
        assert d.span == 1.0
        single = DistanceSeries(times=np.array([1.0]), values=np.array([2.0]), kind="AH")
        assert single.span == 0.0


class TestFeatureVector:
    def _kwargs(self, **over):
        base = dict(
            ou_index=0, hotspot_id=0, step_id=None,
            dur_gazing=2.0, dur_approaching=1.0, dur_operating=5.0,
            ratio_gazing=0.25, ratio_approaching=0.125, ratio_operating=0.625,
            operating_mean_dist=1.0, early_shift_ratio=0.5,
            gaze_pattern="search", shift_kind="early",
        )
        base.update(over)
        return base

    def test_ratios_must_sum_to_one(self):
        with pytest.raises(ValueError, match="ratios"):
            FeatureVector(**self._kwargs(ratio_gazing=0.5))

    def test_ratio_bound_check(self):
        with pytest.raises(ValueError):
            FeatureVector(**self._kwargs(early_shift_ratio=1.2))

    def test_valid_vector_accepted(self):
        fv = FeatureVector(**self._kwargs())
        assert fv.gaze_pattern == "search"
        assert fv.gazing_sign_changes is None and fv.corr_attention_hand is None

    @pytest.mark.parametrize("name", ["gazing_sign_changes", "operating_dist_var"])
    def test_negative_kinematics_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            FeatureVector(**self._kwargs(**{name: -1.0}))


class TestDifficultyRatings:
    def _ratings(self):
        return DifficultyRatings(by_step={
            "s1": (Rating("e1", "expert", -4), Rating("b1", "beginner", -2)),
            "s2": (Rating("e1", "expert", 3),),
        })

    def test_mean_score_pools_roles(self):
        assert self._ratings().mean_score("s1") == -3.0

    def test_mean_score_by_role(self):
        r = self._ratings()
        assert r.mean_score("s1", role="expert") == -4.0
        assert r.mean_score("s1", role="beginner") == -2.0

    def test_difficulty_is_negated_score(self):
        # scale runs -5 (most difficult) .. 5 (easiest)
        assert self._ratings().mean_difficulty("s1") == 3.0

    def test_missing_role_raises(self):
        with pytest.raises(ValueError, match="no raters"):
            self._ratings().mean_score("s2", role="beginner")

    def test_score_bounds(self):
        with pytest.raises(ValueError):
            Rating("x", "expert", 6)

    def test_step_without_raters_rejected(self):
        with pytest.raises(ValueError):
            DifficultyRatings(by_step={"s1": ()})
