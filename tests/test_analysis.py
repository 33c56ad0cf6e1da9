"""Correlation math, session summaries, and the two study reports."""

from __future__ import annotations

import dataclasses
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opgaze import (
    SCALAR_FEATURES,
    DifficultyRatings,
    Rating,
    difficulty_correlation,
    pairwise_comparison,
    pearson,
    step_feature_means,
    summarize_rows,
)
from opgaze.analysis import pairwise_mean, pairwise_sum
from opgaze.features import _pearson as numpy_pearson
from opgaze.segmentation import SegmentationParams, segment_units

from conftest import unit_features


def make_rows(*partials):
    """features.csv rows: every scalar None and the classifications "shift"
    and "undefined" where a partial stays silent."""
    rows = []
    for partial in partials:
        row = {name: None for name in SCALAR_FEATURES}
        row.update(gaze_pattern="shift", shift_kind="undefined")
        row.update(partial)
        rows.append(row)
    return rows


def make_summary(means):
    return summarize_rows("s", make_rows(means))


class TestPearson:
    def test_identity_is_one(self):
        r = pearson([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])
        assert r == pytest.approx(1.0) and r <= 1.0

    def test_negation_is_minus_one(self):
        r = pearson([1.0, 2.0, 3.0], [-1.0, -2.0, -3.0])
        assert r == pytest.approx(-1.0) and r >= -1.0

    def test_hand_worked_value(self):
        # x=[1,2,3], y=[2,4,7]: sum(dx*dy)=5, sum(dx^2)=2, sum(dy^2)=38/3
        assert pearson([1, 2, 3], [2, 4, 7]) == pytest.approx(5.0 / math.sqrt(76.0 / 3.0))

    def test_too_few_points(self):
        assert pearson([1.0, 2.0], [3.0, 4.0]) is None

    def test_constant_input(self):
        assert pearson([5.0, 5.0, 5.0], [1.0, 2.0, 3.0]) is None
        assert pearson([1.0, 2.0, 3.0], [7.0, 7.0, 7.0]) is None

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            pearson([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_result_stays_in_bounds(self):
        r = pearson([1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 4.0, 6.0, 8.0, 10.0])
        assert -1.0 <= r <= 1.0
        assert r == pytest.approx(1.0)

    @given(st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
                    min_size=3, max_size=20))
    def test_symmetry(self, pairs):
        x = [float(a) for a, _ in pairs]
        y = [float(b) for _, b in pairs]
        assert pearson(x, y) == pearson(y, x)

    @given(st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
                    min_size=3, max_size=20),
           st.integers(1, 9), st.integers(-30, 30))
    def test_positive_affine_invariance(self, pairs, scale, shift):
        x = [float(a) for a, _ in pairs]
        y = [float(b) for _, b in pairs]
        base = pearson(x, y)
        moved = pearson([scale * v + shift for v in x], y)
        if base is None:
            assert moved is None
        else:
            assert moved == pytest.approx(base)


def bits(value: float) -> bytes:
    """The bytes of a float, so that -0.0 differs from 0.0 and NaN equals
    NaN.  A NaN's sign and payload follow the operand order the C compiler
    chose and never reach an output (``repr`` gives ``nan``), so every NaN
    counts as one."""
    return struct.pack("<d", math.nan if math.isnan(value) else value)


# lengths at numpy's branch points: the plain loop below 8, one unrolled
# block up to 128, and the split above it
EDGE_LENGTHS = (*range(10), 127, 128, 129, 255, 256, 257)
SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308, -1e308)
elements = st.one_of(st.floats(), st.floats(-1e3, 1e3), st.sampled_from(SPECIAL))


@st.composite
def float_lists(draw, n=None):
    """Floats of mixed magnitudes with zeros of both signs, infinities and
    NaN.  Lists over 16 long mix a drawn pool into seeded values over 16
    decades, since drawing each value would cost seconds per test."""
    if n is None:
        n = draw(st.one_of(st.sampled_from(EDGE_LENGTHS), st.integers(0, 2000)))
    if n <= 16:
        return draw(st.lists(elements, min_size=n, max_size=n))
    pool = draw(st.lists(elements, min_size=1, max_size=16))
    share = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return [rng.choice(pool) if rng.random() < share else rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-8, 8)
            for _ in range(n)]


@st.composite
def float_list_pairs(draw):
    x = draw(float_lists())
    return x, draw(float_lists(len(x)))


# bounded, and no deadline: the speed of a shared test host drifts
ORACLE = settings(max_examples=300, deadline=None)


class TestNumpyBits:
    """The pure-Python sums and ``pearson`` that the study commands use give
    the bits of numpy's, on every input."""

    @ORACLE
    @given(float_lists())
    def test_pairwise_sum_and_mean(self, values):
        arr = np.array(values, dtype=float)
        with np.errstate(all="ignore"):  # inf - inf and overflow are inputs here
            assert bits(pairwise_sum(values)) == bits(float(np.sum(arr)))
            if values:
                assert bits(pairwise_mean(values)) == bits(float(np.mean(arr)))

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 128, 129, 300])
    def test_negative_zeros_sum_to_positive_zero(self, n):
        assert bits(pairwise_sum([-0.0] * n)) == bits(float(np.sum(np.full(n, -0.0))))

    @ORACLE
    @given(float_list_pairs())
    def test_pearson(self, xy):
        x, y = xy
        with np.errstate(all="ignore"):
            want = numpy_pearson(x, y)
        got = pearson(x, y)
        assert (got is None) == (want is None)
        if got is not None:
            assert bits(got) == bits(want)

    def test_overflowed_compare_delta_mean(self):
        # (l - e) / e * 100 overflows for a tiny earlier mean
        deltas = [(1e300 - 1e-10) / 1e-10 * 100.0, 5.0, -(1e308 * 10.0)]
        with np.errstate(all="ignore"):
            assert bits(pairwise_mean(deltas)) == bits(float(np.mean(deltas)))
        assert math.isnan(pairwise_mean(deltas))


class TestScalarFeatures:
    def test_covers_all_names(self, simple_ou_session):
        from opgaze import ClusterParams, cluster_touches, extract_touches
        touches = extract_touches(simple_ou_session)
        hotspots = cluster_touches(touches, ClusterParams(spatial_eps=5.0))
        u = segment_units(simple_ou_session, SegmentationParams(), hotspots)[0]
        fv = unit_features(simple_ou_session, u, hotspots[u.hotspot_id])
        assert all(isinstance(getattr(fv, name), float) for name in SCALAR_FEATURES)
        assert fv.dur_gazing == 2.0
        assert fv.ratio_operating == pytest.approx(0.4)
        assert repr(fv.operating_sign_changes) == "0.0"  # a float count

    def test_none_propagates_for_missing_kinematics(self, simple_ou_session):
        u = segment_units(simple_ou_session, SegmentationParams())[0]
        fv = unit_features(simple_ou_session, u, None)
        assert fv.gazing_sign_changes is None
        assert fv.operating_mean_dist is None
        assert fv.dur_operating == 2.0


class TestSummarize:
    def test_means_over_defined_only(self):
        rows = make_rows({"dur_gazing": 2.0, "early_shift_ratio": 0.4,
                          "gaze_pattern": "search", "shift_kind": "early"},
                         {"dur_gazing": 4.0, "early_shift_ratio": None})
        s = summarize_rows("s", rows)
        assert s["dur_gazing"] == 3.0
        assert s["early_shift_ratio"] == 0.4
        assert s["corr_attention_hand"] is None

    def test_empty_rows_raise(self):
        with pytest.raises(ValueError, match="no operation units"):
            summarize_rows("s", [])

    def test_from_feature_vectors(self, simple_ou_session):
        u = segment_units(simple_ou_session, SegmentationParams())[0]
        fv = unit_features(simple_ou_session, u, None)
        s = summarize_rows("s1", [dataclasses.asdict(fv)])
        assert s["dur_operating"] == 2.0


def pair_with(feature, earlier_value, later_value, operator="op1"):
    return (operator, make_summary({feature: earlier_value}), make_summary({feature: later_value}))


class TestPairwiseComparison:
    def test_identical_sessions_zero_delta(self):
        pairs = [pair_with("dur_gazing", 5.0, 5.0)]
        report = pairwise_comparison(pairs, features=("dur_gazing",))
        row = report.row("dur_gazing")
        assert row.mean_delta_pct == 0.0
        assert row.n_pairs == 1 and row.n_later_smaller == 0

    def test_injected_reduction(self):
        pairs = [pair_with("dur_gazing", 10.0, 8.0, operator=f"op{i}") for i in range(3)]
        row = pairwise_comparison(pairs, features=("dur_gazing",)).row("dur_gazing")
        assert row.mean_delta_pct == pytest.approx(-20.0)
        assert row.n_pairs == 3 and row.n_later_smaller == 3

    def test_mixed_directions(self):
        pairs = [pair_with("dur_gazing", 10.0, 5.0, "a"),   # -50 %
                 pair_with("dur_gazing", 10.0, 20.0, "b")]  # +100 %
        row = pairwise_comparison(pairs, features=("dur_gazing",)).row("dur_gazing")
        assert row.mean_delta_pct == pytest.approx(25.0)
        assert row.n_later_smaller == 1
        assert row.deltas_pct == pytest.approx((-50.0, 100.0))

    def test_undefined_side_skipped_and_logged(self, caplog):
        pairs = [pair_with("dur_gazing", None, 5.0, "a"),
                 pair_with("dur_gazing", 10.0, 5.0, "b")]
        with caplog.at_level("WARNING", logger="opgaze.analysis"):
            row = pairwise_comparison(pairs, features=("dur_gazing",)).row("dur_gazing")
        assert row.n_pairs == 1
        assert row.mean_delta_pct == pytest.approx(-50.0)
        assert any("undefined" in r.message for r in caplog.records)

    def test_zero_earlier_skipped_and_logged(self, caplog):
        pairs = [pair_with("dur_gazing", 0.0, 5.0)]
        with caplog.at_level("WARNING", logger="opgaze.analysis"):
            row = pairwise_comparison(pairs, features=("dur_gazing",)).row("dur_gazing")
        assert row.n_pairs == 0 and row.mean_delta_pct is None
        assert any("relative change undefined" in r.message for r in caplog.records)

    def test_overflowing_relative_change_skipped_and_logged(self, caplog):
        pairs = [pair_with("dur_gazing", 5e-324, 1e150, "a"),
                 pair_with("dur_gazing", 10.0, 5.0, "b")]
        with caplog.at_level("WARNING", logger="opgaze.analysis"):
            row = pairwise_comparison(pairs, features=("dur_gazing",)).row("dur_gazing")
        assert (row.n_pairs, row.mean_delta_pct, row.deltas_pct) == (1, -50.0, (-50.0,))
        assert row.n_later_smaller == 1
        assert any("pair a" in r.getMessage() and "not finite" in r.getMessage()
                   for r in caplog.records)

    def test_overflowing_mean_change_is_undefined_and_logged(self, caplog):
        # each change is finite, about 1.4e308, but their sum is not
        pairs = [pair_with("dur_gazing", 2e-156, 2.8e150, op) for op in ("a", "b")]
        with caplog.at_level("WARNING", logger="opgaze.analysis"):
            row = pairwise_comparison(pairs, features=("dur_gazing",)).row("dur_gazing")
        assert row.n_pairs == 2 and all(math.isfinite(d) for d in row.deltas_pct)
        assert row.mean_delta_pct is None
        assert any("mean relative change" in r.getMessage() for r in caplog.records)

    def test_scale_invariance(self):
        base = pairwise_comparison([pair_with("dur_gazing", 10.0, 7.0)],
                                   features=("dur_gazing",)).row("dur_gazing")
        scaled = pairwise_comparison([pair_with("dur_gazing", 30.0, 21.0)],
                                     features=("dur_gazing",)).row("dur_gazing")
        assert scaled.mean_delta_pct == pytest.approx(base.mean_delta_pct)

    def test_unknown_feature_lookup_raises(self):
        report = pairwise_comparison([], features=("dur_gazing",))
        with pytest.raises(KeyError):
            report.row("nope")
        assert report.n_pairs_total == 0


def unit(step_id, **features):
    return make_rows({"step_id": step_id, **features})[0]


class TestStepFeatureMeans:
    def test_groups_by_step(self):
        units = [unit("a", dur_gazing=1.0), unit("a", dur_gazing=3.0),
                 unit("b", dur_gazing=10.0), unit(None, dur_gazing=99.0)]
        means = step_feature_means(units, features=("dur_gazing",))
        assert list(means) == ["a", "b"]
        assert means["a"]["dur_gazing"] == 2.0
        assert means["b"]["dur_gazing"] == 10.0

    def test_all_undefined_feature(self):
        means = step_feature_means([unit("a")], features=("dur_gazing",))
        assert means["a"]["dur_gazing"] is None


def ratings_for(scores_by_step, role="expert"):
    return DifficultyRatings(by_step={
        sid: (Rating("r1", role, s),) for sid, s in scores_by_step.items()
    })


class TestDifficultyCorrelation:
    def test_proportional_feature_correlates(self):
        # harder steps (lower score) get longer gazing
        units = [unit("s1", dur_gazing=1.0), unit("s2", dur_gazing=2.0),
                 unit("s3", dur_gazing=3.0), unit("s4", dur_gazing=4.0)]
        ratings = ratings_for({"s1": 4, "s2": 2, "s3": 0, "s4": -2})
        report = difficulty_correlation(units, ratings, features=("dur_gazing",))
        row = report.row("dur_gazing")
        assert row.r_vs_difficulty == pytest.approx(1.0)
        assert row.r_vs_score == pytest.approx(-1.0)
        assert row.n_steps == 4
        assert report.step_ids == ("s1", "s2", "s3", "s4")

    def test_difficulty_is_negated_score(self):
        units = [unit(f"s{i}", dur_gazing=float(i)) for i in range(1, 5)]
        ratings = ratings_for({f"s{i}": i - 2 for i in range(1, 5)})
        row = difficulty_correlation(units, ratings, features=("dur_gazing",)).row("dur_gazing")
        assert row.r_vs_difficulty == pytest.approx(-row.r_vs_score)

    def test_fewer_than_three_steps_undefined(self):
        units = [unit("s1", dur_gazing=1.0), unit("s2", dur_gazing=2.0)]
        ratings = ratings_for({"s1": 1, "s2": 2})
        row = difficulty_correlation(units, ratings, features=("dur_gazing",)).row("dur_gazing")
        assert row.r_vs_difficulty is None and row.n_steps == 2

    def test_unrated_steps_logged_and_ignored(self, caplog):
        units = [unit("s1", dur_gazing=1.0), unit("s2", dur_gazing=2.0),
                 unit("s3", dur_gazing=3.0), unit("zz", dur_gazing=9.0)]
        ratings = ratings_for({"s1": 1, "s2": 0, "s3": -1})
        with caplog.at_level("WARNING", logger="opgaze.analysis"):
            report = difficulty_correlation(units, ratings, features=("dur_gazing",))
        assert report.step_ids == ("s1", "s2", "s3")
        assert any("zz" in r.message for r in caplog.records)

    def test_role_filter_changes_scores(self):
        step_scores = {"s1": {"expert": 4, "beginner": -4},
                       "s2": {"expert": 2, "beginner": -2},
                       "s3": {"expert": 0, "beginner": 0},
                       "s4": {"expert": -2, "beginner": 2}}
        ratings = DifficultyRatings(by_step={
            sid: (Rating("e", "expert", rs["expert"]), Rating("b", "beginner", rs["beginner"]))
            for sid, rs in step_scores.items()
        })
        units = [unit(sid, dur_gazing=float(i)) for i, sid in enumerate(sorted(step_scores), 1)]
        expert = difficulty_correlation(units, ratings, ("dur_gazing",), role="expert")
        beginner = difficulty_correlation(units, ratings, ("dur_gazing",), role="beginner")
        assert expert.row("dur_gazing").r_vs_score == pytest.approx(-1.0)
        assert beginner.row("dur_gazing").r_vs_score == pytest.approx(1.0)
