"""Operation-unit segmentation behaviors and a straight-line reference check."""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opgaze import SegmentationParams, Session, StepLabel, period_durations, segment_units

import reference_segmentation
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


def contact_session(times, touching, step_labels) -> Session:
    """A session of the given frames, the hand in sight only while touching."""
    touching = np.asarray(touching, dtype=bool)
    hand_xy = np.where(touching[:, None], 1.0, np.nan) * np.ones((len(touching), 2))
    return Session(id="s1", operator="op1", ordinal="earlier", sample_rate_hz=10.0,
                   step_labels=step_labels, times=times, attention_xy=np.zeros((len(touching), 2)),
                   hand_xy=hand_xy, touching_mask=touching)


# each period its own unit: no bout is merged or dropped
EXACT = SegmentationParams(touch_merge_gap=0.0, min_operating=0.0)


def periods_session(periods, step_labels) -> Session:
    """A session whose operating periods are the ordered, disjoint (start, end)
    ``periods``: touching frames at each period's ends, and one frame out of
    contact halfway between two periods."""
    times, touching = [], []
    for k, (a, b) in enumerate(periods):
        if k:
            times.append((periods[k - 1][1] + a) / 2)
            touching.append(False)
        ends = [a] if a == b else [a, b]
        times.extend(ends)
        touching.extend([True] * len(ends))
    return contact_session(times, touching, step_labels)


@st.composite
def labels_and_periods(draw):
    """Step labels on a half-second grid, touching or apart, and operating
    periods (instants among them) whose ends fall often on a label edge."""
    labels, tick = [], draw(st.integers(0, 4))
    for k in range(draw(st.integers(0, 12))):
        tick += draw(st.integers(0, 3))  # 0: touching the previous label
        length = draw(st.integers(1, 6))
        labels.append(StepLabel(tick / 2, (tick + length) / 2, f"s{k}"))
        tick += length
    point = st.integers(0, tick + 4).map(lambda i: i / 2)  # before, among and after the labels
    edges = sorted({t for label in labels for t in (label.start_t, label.end_t)})
    if edges:
        point = st.one_of(st.sampled_from(edges), point)
    points = sorted(set(draw(st.lists(point, min_size=1, max_size=30))))
    periods = []
    while points:
        instant = len(points) == 1 or draw(st.booleans())
        periods.append((points[0], points[0] if instant else points[1]))
        del points[:1 if instant else 2]
    step_labels = draw(st.permutations(labels)) if labels else draw(st.sampled_from([None, ()]))
    return step_labels, periods


class TestStepAssignment:
    def test_majority_overlap_wins(self):
        s = hand_touch_session([(2.0, 4.0)], total=6.0,
                               step_labels=[StepLabel(0.0, 2.5, "a"), StepLabel(2.5, 6.0, "b")])
        u = segment_units(s, SegmentationParams())[0]
        assert u.step_id == "b"

    @pytest.mark.parametrize("period, step", [
        ((1.0, 1.0), "a"),  # an instant on a label's start
        ((2.0, 2.0), "b"),  # on the edge of two touching labels
        ((3.0, 3.0), None),  # on a label's end, with a gap after it
        ((6.0, 6.0), None),  # on the last label's end
        ((4.0, 6.0), "c"),
        ((5.0, 7.0), None),  # exactly half covered
        ((3.5, 6.5), "c"),
        ((0.5, 6.5), None),  # spanning every label, none over half
        ((0.0, 0.5), None),  # before every label
        ((7.0, 9.0), None),  # after every label
    ])
    def test_step_rule_at_label_edges(self, period, step):
        labels = (StepLabel(1.0, 2.0, "a"), StepLabel(2.0, 3.0, "b"), StepLabel(4.0, 6.0, "c"))
        (u,) = segment_units(periods_session([period], labels), EXACT)
        assert (u.operating.start, u.operating.end) == period
        assert u.step_id == step

    @settings(max_examples=300, deadline=None)
    @given(case=labels_and_periods())
    def test_steps_match_the_two_scan_oracle(self, case):
        step_labels, periods = case
        s = periods_session(periods, step_labels)
        units = segment_units(s, EXACT)
        assert [(u.operating.start, u.operating.end) for u in units] == periods
        assert [u.step_id for u in units] == [
            reference_segmentation.majority_step(s, a, b) for a, b in periods]

    def test_8000_labelled_units_segment_in_linear_time(self):
        # with every label scanned for every unit, these took 21.7 s on a 2-core VM
        n = 8000
        times = np.arange(4 * n) / 4.0
        s = contact_session(times, times % 1.0 < 0.75,  # touching over [k, k + 0.5]
                            [StepLabel(k, k + 1.0, f"s{k}") for k in range(n)])
        started = time.perf_counter()
        units = segment_units(s)
        assert time.perf_counter() - started < 5.0
        assert [u.step_id for u in units] == [f"s{k}" for k in range(n)]

    def test_no_majority_is_none(self):
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
