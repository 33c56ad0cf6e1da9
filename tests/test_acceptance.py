"""Acceptance gate: ten binding criteria, one test (and one verdict line) each.

Each test is self-contained and uses independent reference implementations
for oracle comparisons; tolerances and runtimes are asserted as stated.
"""

from __future__ import annotations

import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest

from opgaze import (
    ClusterParams,
    DistanceSeries,
    FeatureParams,
    SegmentationParams,
    attention_lead_lag,
    cluster_touches,
    compensate_offset,
    count_sign_changes,
    early_shift_ratio,
    extract_touches,
    feature_vector,
    scene_diagonal,
    segment_units,
    sign_series,
)
from opgaze.cli import main
from opgaze.session import FrameRecord, Point2, Session
from opgaze.synth import (
    DEFAULT_INJECTED,
    ArchetypeSpec,
    CohortSpec,
    generate_classification_set,
    generate_cohort,
    generate_ou_trace,
    write_cohort,
)

from conftest import frame_columns

RATE = 30.0
COHORT_SEED = 20260822
CLASSIFICATION_SEED = 424242


def make_series(values, rate=10.0):
    times = np.arange(len(values)) / rate
    return DistanceSeries(times=times, values=np.asarray(values, dtype=float), kind="AO")


def test_criterion_01_offset_compensation_invariants():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(1, 400))
        d = make_series(rng.uniform(0.0, 1000.0, n))
        d_star = compensate_offset(d)
        assert float(np.min(d_star.values)) == 0.0
        assert np.all(d_star.values >= 0.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"offset invariant suite took {elapsed:.2f}s"


def test_criterion_02_sign_change_oracle_equivalence():
    def oracle(diffs, eps):
        symbols = []
        for v in diffs:
            if v > eps:
                symbols.append(1)
            elif v < -eps:
                symbols.append(-1)
        return sum(1 for a, b in zip(symbols, symbols[1:]) if a != b)

    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    mismatches = 0
    for i in range(1000):
        n = int(round(10 ** rng.uniform(np.log10(2), 4)))
        values = np.cumsum(rng.normal(0.0, 0.05, n))
        values -= values.min()
        eps = (0.0, 0.01, 0.1)[i % 3]
        diffs = np.diff(values)
        got = count_sign_changes(sign_series(diffs, eps))
        if got != oracle(diffs, eps):
            mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 10.0, f"sign-change oracle suite took {elapsed:.2f}s"


def test_criterion_03_early_shift_ratio_contract():
    rng = np.random.default_rng(1003)
    # bounded whenever defined
    for _ in range(200):
        n = int(rng.integers(2, 120))
        d = make_series(rng.uniform(0.0, 50.0, n))
        dur = float(rng.uniform(1.0, 5.0))
        r = early_shift_ratio(d, dur)
        assert r is not None and 0.0 <= r <= 1.0

    # undefined exactly below the 1.0 s boundary
    probe = make_series([5.0, 4.0, 3.0, 2.0, 3.0, 4.0])
    assert early_shift_ratio(probe, 0.999) is None
    assert early_shift_ratio(probe, 1.0) is not None

    # planned ratios recovered through the full pipeline
    for requested in (0.0, 0.15, 0.3, 0.6):
        a = ArchetypeSpec(shift_kind="early" if requested >= 0.1 else "non-early",
                          early_ratio=requested)
        columns, planned = generate_ou_trace(a, seed=33)
        s = Session(id="r", operator="op", ordinal="earlier", **columns,
                    sample_rate_hz=RATE)
        hotspots = cluster_touches(extract_touches(s), ClusterParams().resolve([s]))
        u = segment_units(s, SegmentationParams(), hotspots)[0]
        fv = feature_vector(s, u, hotspots[u.hotspot_id])
        one_sample = (1.0 / RATE) / fv.dur_operating
        assert fv.early_shift_ratio == pytest.approx(planned.early_ratio, abs=1e-9)
        assert abs(fv.early_shift_ratio - requested) <= one_sample + 1e-9


def _reference_operating_intervals(ts, touching, merge_gap, min_operating):
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
        if merged and ts[b[0]] - ts[merged[-1][1]] < merge_gap:
            merged[-1][1] = b[1]
        else:
            merged.append(b)
    return [(ts[a], ts[b]) for a, b in merged if ts[b] - ts[a] >= min_operating]


def test_criterion_04_segmentation_reference_equivalence():
    rng = np.random.default_rng(1004)
    params = SegmentationParams(min_operating=0.4, touch_merge_gap=0.8)
    for _ in range(200):
        n = int(rng.integers(30, 250))
        visible = False
        touch = False
        frames = []
        for k in range(n):
            if rng.random() < 0.08:
                visible = not visible
            if rng.random() < 0.12:
                touch = not touch
            on = visible or touch
            frames.append(FrameRecord(
                t=k / 10.0, attention=Point2(0.0, 0.0),
                hand=Point2(1.0, 1.0) if on else None, touching=touch))
        s = Session(id="r", operator="op", ordinal="earlier", **frame_columns(frames),
                    sample_rate_hz=10.0)
        ts = [f.t for f in frames]
        touching = [f.touching for f in frames]

        units = segment_units(s, params)
        want = _reference_operating_intervals(ts, touching, params.touch_merge_gap,
                                              params.min_operating)
        assert [(u.operating.start, u.operating.end) for u in units] == want

        # with no minimum duration, every touching frame lands in exactly
        # one operating period
        permissive = segment_units(s, SegmentationParams(min_operating=0.0,
                                                         touch_merge_gap=0.8))
        for t, is_touch in zip(ts, touching):
            if not is_touch:
                continue
            hits = sum(1 for u in permissive
                       if u.operating.start <= t <= u.operating.end)
            assert hits == 1


def test_criterion_05_clustering_oracle_equivalence():
    def brute_force(touches, eps, gap, min_points):
        n = len(touches)
        adj = [[] for _ in range(n)]
        for i in range(n):
            ti, pi = touches[i]
            for j in range(i + 1, n):
                tj, pj = touches[j]
                if abs(ti - tj) <= gap and pi.distance_to(pj) <= eps:
                    adj[i].append(j)
                    adj[j].append(i)
        seen = [False] * n
        comps = []
        for start in range(n):
            if seen[start]:
                continue
            stack, members = [start], []
            seen[start] = True
            while stack:
                node = stack.pop()
                members.append(node)
                for nxt in adj[node]:
                    if not seen[nxt]:
                        seen[nxt] = True
                        stack.append(nxt)
            if len(members) >= min_points:
                comps.append(sorted(members))
        comps.sort(key=lambda m: min(touches[i][0] for i in m))
        return comps

    rng = np.random.default_rng(1005)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(0, 201))
        times = np.sort(rng.uniform(0.0, 60.0, n))
        pts = rng.uniform(0.0, 100.0, size=(n, 2))
        touches = [(float(times[i]), Point2(float(pts[i, 0]), float(pts[i, 1])))
                   for i in range(n)]
        params = ClusterParams(
            spatial_eps=float(rng.uniform(2.0, 30.0)),
            temporal_gap_max=float(rng.uniform(0.5, 15.0)),
            min_points=int(rng.integers(1, 5)),
        )
        got = [sorted(h.member_touch_indices)
               for h in cluster_touches(touches, params)]
        want = brute_force(touches, params.spatial_eps, params.temporal_gap_max,
                           params.min_points)
        if got != want:
            mismatches += 1
    assert mismatches == 0


def test_criterion_06_lag_recovery_at_30hz():
    far, near, ramp_n, pad = 100.0, 2.0, 30, 15

    def profile(k):
        if k < pad:
            return far
        if k < pad + ramp_n:
            return far - (far - near) * (k - pad) / ramp_n
        return near

    n = pad + ramp_n + 40
    for delta in (0.0, 0.1, 0.2, 0.5):
        lag_frames = round(delta * RATE)
        ao = [profile(k) for k in range(n)]
        ho = [profile(max(k - lag_frames, 0)) for k in range(n)]
        times = np.arange(n) / RATE
        d_ao = compensate_offset(DistanceSeries(times=times, values=np.array(ao), kind="AO"))
        d_ho = compensate_offset(DistanceSeries(times=times, values=np.array(ho), kind="HO"))
        lag = attention_lead_lag(d_ao, d_ho)
        assert lag is not None
        assert abs(lag - delta) <= 1.0 / RATE + 1e-9, f"delta {delta}: got {lag}"


@pytest.fixture(scope="module")
def cohort_run(tmp_path_factory):
    """Generate the 20-pair cohort and push it through analyze + compare."""
    base = tmp_path_factory.mktemp("cohort")
    data = base / "data"
    out = base / "out"
    cmp_dir = base / "cmp"
    start = time.perf_counter()
    cohort = generate_cohort(CohortSpec(seed=COHORT_SEED, n_pairs=20))
    write_cohort(cohort, data)
    assert main(["analyze", str(data / "sessions"), "--out", str(out),
                 "--jobs", "4"]) == 0
    assert main(["compare", str(out), str(data / "pairs.json"),
                 "--out", str(cmp_dir)]) == 0
    elapsed = time.perf_counter() - start
    return {"data": data, "out": out, "cmp": cmp_dir, "elapsed": elapsed}


def test_criterion_07_cohort_recovery(cohort_run):
    targets = {
        "dur_gazing": -45.0,
        "dur_approaching": -32.0,
        "dur_operating": -20.0,
        "gazing_sign_changes": -12.1,
        "early_shift_ratio": 6.1,
    }
    # durations and the ratio are injected multiplicatively; the gazing
    # frequency change rides the integer reversal count (8 -> 7 = -12.5%)
    assert DEFAULT_INJECTED == {k: v for k, v in targets.items()
                                if k != "gazing_sign_changes"}
    with (cohort_run["cmp"] / "comparison.csv").open() as fh:
        rows = {r["feature"]: r for r in csv.DictReader(fh)}
    for feature, target in targets.items():
        measured = float(rows[feature]["mean_delta_pct"])
        assert abs(measured - target) <= 5.0, \
            f"{feature}: measured {measured:+.3f}%, injected {target:+.1f}%"
        assert int(rows[feature]["n_pairs"]) == 20
    assert cohort_run["elapsed"] < 30.0, f"cohort run took {cohort_run['elapsed']:.1f}s"


def test_criterion_08_correlation_recovery(cohort_run):
    cor_dir = cohort_run["out"].parent / "cor"
    assert main(["correlate", str(cohort_run["out"]),
                 str(cohort_run["data"] / "ratings.csv"),
                 "--out", str(cor_dir)]) == 0
    with (cor_dir / "correlation.csv").open() as fh:
        rows = {r["feature"]: r for r in csv.DictReader(fh)}
    injected = float(rows["dur_approaching"]["r_vs_difficulty"])
    null = float(rows["dur_gazing"]["r_vs_difficulty"])
    assert int(rows["dur_approaching"]["n_steps"]) == 15
    assert injected >= 0.9, f"injected-feature r = {injected:.4f}"
    assert abs(null) < 0.3, f"null-feature r = {null:.4f}"


def test_criterion_09_determinism_across_jobs(tmp_path):
    data = tmp_path / "data"
    cohort = generate_cohort(CohortSpec(seed=8128, n_pairs=4))
    write_cohort(cohort, data)
    trees = []
    for jobs in ("1", "2", "4"):
        root = tmp_path / f"run_j{jobs}"
        assert main(["analyze", str(data / "sessions"), "--out", str(root / "out"),
                     "--jobs", jobs]) == 0
        assert main(["compare", str(root / "out"), str(data / "pairs.json"),
                     "--out", str(root / "cmp"), "--jobs", jobs]) == 0
        assert main(["correlate", str(root / "out"), str(data / "ratings.csv"),
                     "--out", str(root / "cor"), "--jobs", jobs]) == 0
        tree = {}
        for p in sorted(root.rglob("*")):
            if p.is_file():
                tree[str(p.relative_to(root))] = p.read_bytes()
        trees.append(tree)
    assert trees[0] and trees[0].keys() == trees[1].keys() == trees[2].keys()
    for rel in trees[0]:
        assert trees[0][rel] == trees[1][rel] == trees[2][rel], rel


def _classify_all(sessions, deadband=0.0):
    got, want = [], []
    for gen in sessions:
        s = gen.session
        hotspots = cluster_touches(extract_touches(s), ClusterParams().resolve([s]))
        units = segment_units(s, SegmentationParams(), hotspots)
        assert len(units) == len(gen.planned)
        params = FeatureParams(sign_deadband=deadband)
        for u, planned in zip(units, gen.planned):
            fv = feature_vector(s, u, None if u.hotspot_id is None else hotspots[u.hotspot_id],
                                params)
            got.append((fv.gaze_pattern, fv.shift_kind))
            want.append((planned.gaze_pattern, planned.shift_kind))
    return got, want


def test_criterion_10_pattern_classification_accuracy():
    clean = generate_classification_set(CLASSIFICATION_SEED, n_per_combo=50,
                                        sample_rate_hz=10.0, noise_sigma=0.0)
    got, want = _classify_all(clean)
    assert len(got) == 200
    assert got == want, "noise-free classification must be perfect"

    sigma = 0.02 * scene_diagonal([g.session for g in clean])
    noisy = generate_classification_set(CLASSIFICATION_SEED, n_per_combo=50,
                                        sample_rate_hz=10.0, noise_sigma=sigma)
    # deadband sized to the noise of a distance difference: each distance
    # mixes two noisy points, each increment two distances
    deadband = 3.0 * sigma * np.sqrt(2.0)
    got, want = _classify_all(noisy, deadband=deadband)
    correct = sum(1 for g, w in zip(got, want) if g == w)
    assert len(got) == 200
    assert correct >= 190, f"noisy accuracy {correct}/200"
