"""Generator ground truth: planned labels must survive the real pipeline."""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opgaze import (
    ClusterParams,
    Hotspot,
    SegmentationParams,
    cluster_touches,
    extract_touches,
    feature_vector,
    segment_units,
    validate_session,
)
from opgaze.featurerow import GAZE_PATTERNS
from opgaze.synth import (
    CLASSIFICATION_COMBOS,
    ArchetypeSpec,
    CohortSpec,
    cohort_spec_from_dict,
    generate_classification_set,
    generate_cohort,
    generate_ou_trace,
    generate_session,
    oscillation_cycles,
    session_seed,
    write_cohort,
)

import reference_synth
from conftest import frame_columns


def run_pipeline(gen, rate=30.0):
    """Segment and featurize a generated session with its own hotspots."""
    s = gen.session
    touches = extract_touches(s)
    hotspots = cluster_touches(touches, ClusterParams().resolve([s]))
    units = segment_units(s, SegmentationParams(), hotspots)
    fvs = [feature_vector(s, u, None if u.hotspot_id is None else hotspots[u.hotspot_id])
           for u in units]
    return units, fvs


class TestOscillationCycles:
    def test_half_cycle_offset(self):
        assert oscillation_cycles(8) == pytest.approx(4.2)
        assert oscillation_cycles(1) == pytest.approx(0.7)
        with pytest.raises(ValueError):
            oscillation_cycles(0)

    @pytest.mark.parametrize("reversals", [2, 5, 8, 11])
    def test_sampled_reversals_match_request(self, reversals):
        a = ArchetypeSpec(
            oscillation_freq_hz=oscillation_cycles(reversals) / 2.0,  # cycles over 2 s gazing
            dur_gazing=2.0,
        )
        columns, planned = generate_ou_trace(a, seed=3)
        assert planned.gazing_reversals == reversals
        # independent count on the realized attention-hotspot distance
        hx, hy = a.hotspot.x, a.hotspot.y
        n_g = round(a.dur_gazing * 30.0)
        d = [np.hypot(x - hx, y - hy) for x, y in columns["attention_xy"][:n_g].tolist()]
        diffs = np.diff(d)
        symbols = [s for s in np.sign(diffs) if s != 0]
        changes = sum(1 for p, q in zip(symbols, symbols[1:]) if p != q)
        assert changes == reversals


class TestGenerateOuTrace:
    def test_frames_on_global_grid(self):
        columns, planned = generate_ou_trace(ArchetypeSpec(), seed=1, start_index=90)
        times = columns["times"]
        assert times[0] == pytest.approx(3.0)
        assert times[1] - times[0] == pytest.approx(1.0 / 30.0)
        assert planned.start_index == 90
        assert planned.n_frames == len(times)

    def test_touching_frames_pin_hand_to_hotspot(self):
        a = ArchetypeSpec()
        columns, _ = generate_ou_trace(a, seed=2)
        touch_hands = columns["hand_xy"][columns["touching_mask"]]
        assert len(touch_hands)
        for x, y in touch_hands.tolist():
            assert (x, y) == (a.hotspot.x, a.hotspot.y)

    def test_lag_longer_than_approach_rejected(self):
        with pytest.raises(ValueError, match="lag"):
            generate_ou_trace(ArchetypeSpec(lag_s=2.6, dur_approaching=2.5), seed=0)

    def test_same_seed_same_frames(self):
        a = ArchetypeSpec(noise_sigma=0.5)
        c1, p1 = generate_ou_trace(a, seed=99)
        c2, p2 = generate_ou_trace(a, seed=99)
        assert p1 == p2
        assert {k: v.tobytes() for k, v in c1.items()} == {k: v.tobytes() for k, v in c2.items()}

    @settings(max_examples=60, deadline=None)
    @given(pattern=st.sampled_from(GAZE_PATTERNS), kind=st.sampled_from(("early", "non-early")),
           noise=st.just(0.0) | st.floats(0.01, 3.0), rate=st.sampled_from([10.0, 30.0, 120.0]),
           start_index=st.sampled_from([0, 7, 1000]), seed=st.integers(0, 2 ** 32 - 1))
    def test_columns_match_per_frame_reference(self, pattern, kind, noise, rate, start_index, seed):
        a = ArchetypeSpec(gaze_pattern=pattern, shift_kind=kind, noise_sigma=noise,
                          early_ratio=0.3 if kind == "early" else 0.0)
        columns, planned = generate_ou_trace(a, [seed, 3], rate, start_index)
        frames, want_planned = reference_synth.generate_ou_trace(a, [seed, 3], rate, start_index)
        assert planned == want_planned
        want = frame_columns(frames)
        for name, dtype in (("times", float), ("attention_xy", float), ("hand_xy", float),
                            ("touching_mask", bool)):
            assert columns[name].dtype == dtype
            assert columns[name].tobytes() == np.asarray(want[name], dtype=dtype).tobytes(), name


class TestPlannedGroundTruth:
    def test_early_ratio_and_lag_recovered(self):
        a = dataclasses.replace(ArchetypeSpec(), shift_kind="early", early_ratio=0.25,
                                lag_s=0.2)
        gen = generate_session("gt1", "op", "earlier", [a], seed=5)
        units, fvs = run_pipeline(gen)
        assert len(units) == 1
        fv, planned = fvs[0], gen.planned[0]
        assert fv.early_shift_ratio == pytest.approx(planned.early_ratio, abs=1e-9)
        # the plan snaps the requested ratio to the sample grid
        assert abs(planned.early_ratio - 0.25) <= 1.0 / (30.0 * a.dur_operating) + 1e-9
        assert fv.shift_kind == "early" == planned.shift_kind
        assert fv.attention_lead_lag == pytest.approx(planned.lag_s, abs=1e-9)

    def test_all_four_label_combinations_recovered(self):
        combos = [("search", "early"), ("search", "non-early"),
                  ("shift", "early"), ("shift", "non-early")]
        specs = []
        for pattern, kind in combos:
            specs.append(dataclasses.replace(
                ArchetypeSpec(), gaze_pattern=pattern, shift_kind=kind,
                early_ratio=0.3 if kind == "early" else 0.0,
            ))
        gen = generate_session("gt2", "op", "earlier", specs, seed=6)
        units, fvs = run_pipeline(gen)
        assert len(fvs) == 4
        for fv, planned, (pattern, kind) in zip(fvs, gen.planned, combos):
            assert planned.gaze_pattern == pattern
            assert planned.shift_kind == kind
            assert fv.gaze_pattern == pattern
            assert fv.shift_kind == kind

    def test_zero_lag_and_half_second_lag(self):
        for lag in (0.0, 0.5):
            a = dataclasses.replace(ArchetypeSpec(), lag_s=lag)
            gen = generate_session(f"lag{lag}", "op", "earlier", [a], seed=8)
            _, fvs = run_pipeline(gen)
            assert fvs[0].attention_lead_lag == pytest.approx(lag, abs=1e-9)


class TestGenerateSession:
    def test_one_unit_per_archetype_and_clean_validation(self):
        specs = [ArchetypeSpec(), dataclasses.replace(ArchetypeSpec(), gaze_pattern="shift")]
        gen = generate_session("s_two", "op", "later", specs, seed=4,
                               step_ids=["stepA", "stepB"])
        assert len(gen.planned) == 2
        assert [l.step_id for l in gen.step_labels] == ["stepA", "stepB"]
        units, _ = run_pipeline(gen)
        assert [u.step_id for u in units] == ["stepA", "stepB"]
        report = validate_session(gen.session, expected_rate=30.0)
        assert report.warnings == []

    def test_empty_archetypes_rejected(self):
        with pytest.raises(ValueError):
            generate_session("x", "op", "earlier", [], seed=0)

    def test_session_seed_is_content_addressed(self):
        digest = hashlib.sha256(b"some_id").digest()
        assert session_seed(42, "some_id") == [42, int.from_bytes(digest[:8], "big")]
        assert session_seed(42, "some_id") == session_seed(42, "some_id")
        assert session_seed(42, "a") != session_seed(42, "b")


@pytest.fixture(scope="module")
def small_cohort():
    return generate_cohort(CohortSpec(seed=314, n_pairs=2))


class TestCohort:
    def test_shape(self, small_cohort):
        assert len(small_cohort.sessions) == 4
        assert len(small_cohort.pairs) == 2
        for ref in small_cohort.pairs:
            ids = {g.session.id for g in small_cohort.sessions}
            assert ref.earlier_id in ids and ref.later_id in ids

    def test_all_sessions_validate_clean(self, small_cohort):
        for gen in small_cohort.sessions:
            report = validate_session(gen.session, expected_rate=30.0)
            assert report.warnings == [], gen.session.id

    def test_every_step_rated_by_both_roles(self, small_cohort):
        ratings = small_cohort.ratings
        step_ids = {l.step_id for g in small_cohort.sessions for l in g.step_labels}
        for sid in step_ids:
            roles = {r.role for r in ratings.by_step[sid]}
            assert roles == {"expert", "beginner"}

    def test_regeneration_is_identical(self, small_cohort):
        again = generate_cohort(CohortSpec(seed=314, n_pairs=2))
        for a, b in zip(small_cohort.sessions, again.sessions):
            assert a.session == b.session
            assert a.planned == b.planned

    def test_write_cohort_byte_identical(self, small_cohort, tmp_path):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        write_cohort(small_cohort, d1)
        write_cohort(small_cohort, d2)
        files1 = sorted(p.relative_to(d1) for p in d1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(d2) for p in d2.rglob("*") if p.is_file())
        assert files1 == files2 and files1
        for rel in files1:
            assert (d1 / rel).read_bytes() == (d2 / rel).read_bytes(), rel

    def test_write_cohort_layout(self, small_cohort, tmp_path):
        paths = write_cohort(small_cohort, tmp_path / "c")
        base = tmp_path / "c"
        assert (base / "pairs.json").is_file()
        assert (base / "ratings.csv").is_file()
        session_files = list((base / "sessions").glob("*.jsonl"))
        sidecars = list((base / "sessions").glob("*.steps.csv"))
        assert len(session_files) == 4 and len(sidecars) == 4
        assert all(p.exists() for p in paths.values())


class TestCohortSpecFromDict:
    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            cohort_spec_from_dict({"seed": 1, "wat": 2})

    def test_seed_override_wins(self):
        spec = cohort_spec_from_dict({"seed": 1, "n_pairs": 3}, seed_override=9)
        assert spec.seed == 9 and spec.n_pairs == 3

    def test_missing_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            cohort_spec_from_dict({"n_pairs": 3})

    def test_collection_coercion(self):
        spec = cohort_spec_from_dict({"seed": 1, "step_scores": [1, 2, 3],
                                      "injected": {"dur_gazing": -20}})
        assert spec.step_scores == (1, 2, 3)
        assert spec.injected == {"dur_gazing": -20.0}


class TestClassificationSet:
    def test_combo_coverage_and_noise_free_recovery(self):
        sessions = generate_classification_set(seed=77, n_per_combo=3)
        assert len(sessions) == 4
        seen = []
        for gen, (pattern, kind) in zip(sessions, CLASSIFICATION_COMBOS):
            assert len(gen.planned) == 3
            for p in gen.planned:
                assert (p.gaze_pattern, p.shift_kind) == (pattern, kind)
            report = validate_session(gen.session, expected_rate=10.0)
            assert report.warnings == []
            units, fvs = run_pipeline(gen, rate=10.0)
            for fv in fvs:
                seen.append((fv.gaze_pattern, fv.shift_kind))
                assert (fv.gaze_pattern, fv.shift_kind) == (pattern, kind)
        assert len(seen) == 12
