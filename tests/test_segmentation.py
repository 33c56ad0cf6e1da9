"""Operation-unit segmentation behaviors and a straight-line reference check."""

from __future__ import annotations

import numpy as np
import pytest

from opgaze import SegmentationParams, period_durations, segment_units

from conftest import frame, make_session


def hand_touch_session(spans, rate=10.0, total=8.0, **kw):
    """Frames at `rate`; hand in sight and touching over each (start, end) span."""
    frames = []
    n = int(round(total * rate)) + 1
    for i in range(n):
        t = i / rate
        on = any(a <= t <= b for a, b in spans)
        frames.append(frame(t, hx=1.0 if on else None, hy=1.0 if on else None, touch=on))
    return make_session(frames, rate=rate, **kw)


class TestWorkedExample:
    def test_period_boundaries(self, simple_ou_session):
        units = segment_units(simple_ou_session, SegmentationParams())
        assert len(units) == 1
        u = units[0]
        assert (u.gazing.start, u.gazing.end) == (0.0, 2.0)
        assert (u.approaching.start, u.approaching.end) == (2.0, 3.0)
        assert (u.operating.start, u.operating.end) == (3.0, 5.0)

    def test_span_properties(self, simple_ou_session):
        u = segment_units(simple_ou_session, SegmentationParams())[0]
        assert u.start == 0.0 and u.end == 5.0
        assert u.end - u.start == pytest.approx(5.0)


class TestMerge:
    def test_bouts_within_gap_merge(self):
        s = hand_touch_session([(2.0, 3.0), (3.5, 4.5)])
        units = segment_units(s, SegmentationParams(touch_merge_gap=1.0))
        assert len(units) == 1
        assert units[0].operating.end == 4.5

    def test_gap_exactly_at_threshold_does_not_merge(self):
        # merge rule is strict: next.start - prev.end < gap
        s = hand_touch_session([(2.0, 3.0), (4.0, 5.0)])
        units = segment_units(s, SegmentationParams(touch_merge_gap=1.0, min_operating=0.5))
        assert len(units) == 2

    def test_gap_just_under_threshold_merges(self):
        s = hand_touch_session([(2.0, 3.0), (3.9, 5.0)])
        units = segment_units(s, SegmentationParams(touch_merge_gap=1.0))
        assert len(units) == 1


class TestMinOperating:
    def test_short_bout_dropped_and_logged(self, caplog):
        s = hand_touch_session([(2.0, 2.2)])
        with caplog.at_level("INFO", logger="opgaze.segmentation"):
            units = segment_units(s, SegmentationParams(min_operating=0.5))
        assert units == []
        assert any("drop" in r.message for r in caplog.records)

    def test_duration_exactly_at_min_kept(self):
        # drop rule is strict: duration < min_operating
        s = hand_touch_session([(2.0, 2.5)])
        units = segment_units(s, SegmentationParams(min_operating=0.5))
        assert len(units) == 1

    def test_only_long_bout_survives(self):
        s = hand_touch_session([(1.0, 1.2), (4.0, 6.0)])
        units = segment_units(s, SegmentationParams(min_operating=0.5, touch_merge_gap=1.0))
        assert len(units) == 1
        assert units[0].operating.start == 4.0


class TestHandAppearance:
    def test_hand_never_absent_gives_zero_gazing(self):
        frames = [frame(i / 10.0, hx=1.0, hy=1.0, touch=i >= 20) for i in range(41)]
        s = make_session(frames)
        u = segment_units(s, SegmentationParams())[0]
        assert u.gazing.duration == 0.0
        assert u.approaching.start == 0.0
        assert u.operating.start == 2.0

    def test_second_unit_gazing_starts_at_prior_operating_end(self):
        s = hand_touch_session([(1.0, 2.0), (5.0, 6.0)], total=7.0,
                               rate=10.0)
        units = segment_units(s, SegmentationParams(touch_merge_gap=1.0, min_operating=0.5))
        assert len(units) == 2
        assert units[1].gazing.start == units[0].operating.end

    def test_debounce_ignores_single_frame_flicker(self):
        frames = []
        for i in range(61):
            t = i / 10.0
            visible = 2.0 <= t
            if i == 25:
                visible = False  # one-frame dropout
            touch = 4.0 <= t
            frames.append(frame(t, hx=1.0 if visible or touch else None,
                                hy=1.0 if visible or touch else None, touch=touch))
        s = make_session(frames)
        units = segment_units(s, SegmentationParams(hand_presence_debounce=2))
        assert len(units) == 1
        assert units[0].approaching.start == 2.0

    def test_no_touches_no_units(self):
        s = make_session([frame(i / 10.0) for i in range(30)])
        assert segment_units(s, SegmentationParams()) == []


class TestInvariants:
    def _random_session(self, rng, rate=10.0):
        n = int(rng.integers(30, 200))
        frames = []
        visible = False
        touch = False
        for i in range(n):
            if rng.random() < 0.1:
                visible = not visible
            if rng.random() < 0.15:
                touch = not touch
            v = visible or touch
            frames.append(frame(i / rate, hx=1.0 if v else None, hy=1.0 if v else None,
                                touch=touch))
        return make_session(frames, rate=rate)

    def _reference(self, s, params):
        """Independent re-derivation of kept operating intervals."""
        ts = [f.t for f in s.frames]
        touching = [f.touching for f in s.frames]
        bouts = []
        i = 0
        while i < len(ts):
            if touching[i]:
                j = i
                while j + 1 < len(ts) and touching[j + 1]:
                    j += 1
                bouts.append([i, j])
                i = j + 1
            else:
                i += 1
        merged = []
        for b in bouts:
            if merged and ts[b[0]] - ts[merged[-1][1]] < params.touch_merge_gap:
                merged[-1][1] = b[1]
            else:
                merged.append(b)
        return [(ts[a], ts[b]) for a, b in merged if ts[b] - ts[a] >= params.min_operating]

    def test_touching_frames_partition(self):
        rng = np.random.default_rng(17)
        params = SegmentationParams(min_operating=0.4, touch_merge_gap=0.8)
        for _ in range(25):
            s = self._random_session(rng)
            units = segment_units(s, params)
            kept = self._reference(s, params)
            assert [(u.operating.start, u.operating.end) for u in units] == kept
            # every touching frame inside a kept bout falls in exactly one unit
            for f in s.frames:
                if not f.touching:
                    continue
                hits = sum(1 for u in units if u.operating.start <= f.t <= u.operating.end)
                in_kept = any(a <= f.t <= b for a, b in kept)
                assert hits == (1 if in_kept else 0)

    def test_approach_starts_match_frame_by_frame_rule(self):
        """Approaching starts where a frame-by-frame walk puts them: at the
        first frame of a debounced hand-presence run since the previous
        contact, or at that contact's end if the hand never left."""
        def visible_flags(frames, debounce):
            flags = [False] * len(frames)
            i = 0
            while i < len(frames):
                j = i
                while j < len(frames) and frames[j].hand is not None:
                    j += 1
                if j - i >= max(debounce, 1):
                    flags[i:j] = [True] * (j - i)
                i = max(j, i + 1)
            return flags

        rng = np.random.default_rng(29)
        for debounce in (0, 1, 2, 3, 5):
            for _ in range(10):
                s = self._random_session(rng)
                frames = s.frames
                ts = [f.t for f in frames]
                visible = visible_flags(frames, debounce)
                params = SegmentationParams(min_operating=0.2, hand_presence_debounce=debounce)
                prev_t, prev_i = ts[0], -1
                for u in segment_units(s, params):
                    ob, oe = ts.index(u.operating.start), ts.index(u.operating.end)
                    want = u.operating.start
                    for j in range(prev_i + 1, ob + 1):
                        if visible[j]:
                            want = prev_t if j == prev_i + 1 else ts[j]
                            break
                    assert u.approaching.start == min(max(want, prev_t), u.operating.start)
                    prev_t, prev_i = u.operating.end, oe

    def test_units_ordered_and_disjoint(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            s = self._random_session(rng)
            units = segment_units(s, SegmentationParams(min_operating=0.3))
            for a, b in zip(units, units[1:]):
                assert a.end <= b.start
                assert a.operating.end <= b.gazing.start

    def test_time_shift_invariance(self):
        base = hand_touch_session([(2.0, 3.0), (5.0, 6.5)], total=8.0)
        shifted_frames = [frame(f.t + 40.0,
                                hx=f.hand.x if f.hand else None,
                                hy=f.hand.y if f.hand else None,
                                touch=f.touching) for f in base.frames]
        shifted = make_session(shifted_frames)
        params = SegmentationParams(touch_merge_gap=1.0, min_operating=0.5)
        u0 = segment_units(base, params)
        u1 = segment_units(shifted, params)
        assert len(u0) == len(u1)
        for a, b in zip(u0, u1):
            assert b.gazing.start - a.gazing.start == pytest.approx(40.0)
            assert b.operating.end - a.operating.end == pytest.approx(40.0)


class TestStepAssignment:
    def test_majority_overlap_wins(self):
        from opgaze import StepLabel
        s = hand_touch_session([(2.0, 4.0)], total=6.0,
                               step_labels=[StepLabel(0.0, 2.5, "a"), StepLabel(2.5, 6.0, "b")])
        u = segment_units(s, SegmentationParams())[0]
        assert u.step_id == "b"

    def test_no_majority_is_none(self):
        from opgaze import StepLabel
        s = hand_touch_session([(2.0, 4.0)], total=6.0,
                               step_labels=[StepLabel(0.0, 3.0, "a"), StepLabel(3.0, 6.0, "b")])
        u = segment_units(s, SegmentationParams())[0]
        assert u.step_id is None


class TestPeriodDurations:
    def test_ratios(self, simple_ou_session):
        units = segment_units(simple_ou_session, SegmentationParams())
        dur_g, dur_h, dur_o, rg, rh, ro = period_durations(units[0])
        assert (dur_g, dur_h, dur_o) == (2.0, 1.0, 2.0)
        assert (rg, rh, ro) == pytest.approx((0.4, 0.2, 0.4))

    def test_degenerate_zero_duration(self):
        from opgaze import Interval, OperationUnit
        u = OperationUnit(index=0, gazing=Interval(1.0, 1.0), approaching=Interval(1.0, 1.0),
                          operating=Interval(1.0, 1.0))
        dur_g, dur_h, dur_o, rg, rh, ro = period_durations(u)
        assert (dur_g, dur_h, dur_o) == (0.0, 0.0, 0.0)
        assert (rg, rh, ro) == (0.0, 0.0, 1.0)
