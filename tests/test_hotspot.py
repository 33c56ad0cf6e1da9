"""Clustering against a brute-force oracle, plus touch statistics."""

from __future__ import annotations

import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opgaze import ClusterParams, Hotspot, Point2, cluster_touches, extract_touches, touch_distribution
from opgaze import hotspot
from opgaze.hotspot import TouchDistribution, assign_operating_hotspot

from conftest import frame, make_session


def noise(touches, hotspots) -> list[int]:
    """Indices of the touches that belong to no hotspot."""
    members = {i for h in hotspots for i in h.member_touch_indices}
    return [i for i in range(len(touches)) if i not in members]


def touches_at(points, t0=0.0, dt=0.1):
    return [(t0 + i * dt, Point2(x, y)) for i, (x, y) in enumerate(points)]


def brute_force_clusters(touches, eps, gap, min_points):
    """Independent oracle: full O(n^2) neighbor graph, BFS components."""
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
    components = []
    for start in range(n):
        if seen[start]:
            continue
        queue = [start]
        seen[start] = True
        members = []
        while queue:
            node = queue.pop()
            members.append(node)
            for nxt in adj[node]:
                if not seen[nxt]:
                    seen[nxt] = True
                    queue.append(nxt)
        if len(members) >= min_points:
            components.append(sorted(members))
    components.sort(key=lambda m: min(touches[i][0] for i in m))
    return components


def matrix_oracle(touches, params):
    """Independent oracle for the exact result: the full n x n neighbor
    matrix with cluster_touches' own predicates (|dt| <= gap, dx^2 + dy^2 <=
    eps^2), components by graph search, members in (t, x, y, index) order."""
    n = len(touches)
    t = np.array([tt for tt, _ in touches], dtype=float)
    x = np.array([p.x for _, p in touches], dtype=float)
    y = np.array([p.y for _, p in touches], dtype=float)
    eps_sq = params.spatial_eps ** 2
    adj = np.zeros((n, n), dtype=bool)
    for lo in range(0, n, 256):  # row blocks keep the float temporaries small
        rows = slice(lo, lo + 256)
        dx = x[rows, None] - x[None, :]
        dy = y[rows, None] - y[None, :]
        adj[rows] = ((np.abs(t[rows, None] - t[None, :]) <= params.temporal_gap_max)
                     & (dx * dx + dy * dy <= eps_sq))
    seen = np.zeros(n, dtype=bool)
    components = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack, members = [root], []
        while stack:
            k = stack.pop()
            members.append(k)
            fresh = np.flatnonzero(adj[k] & ~seen)
            seen[fresh] = True
            stack.extend(fresh.tolist())
        if len(members) >= params.min_points:
            components.append(sorted(members, key=lambda k: (t[k], x[k], y[k], k)))
    components.sort(key=lambda m: (t[m[0]], x[m[0]], y[m[0]], m[0]))
    return [
        Hotspot(id=cid, centroid=Point2(float(np.mean(x[m])), float(np.mean(y[m]))),
                touch_count=len(m), first_t=float(t[m[0]]), last_t=float(t[m[-1]]),
                member_touch_indices=tuple(sorted(m)))
        for cid, m in enumerate(components)
    ]


def assert_matches_oracle(touches, params):
    got = cluster_touches(touches, params)
    want = brute_force_clusters(touches, params.spatial_eps, params.temporal_gap_max, params.min_points)
    assert [sorted(h.member_touch_indices) for h in got] == want
    for h, members in zip(got, want):
        assert h.id == got.index(h)
        assert h.touch_count == len(members)
        ts = [touches[i][0] for i in members]
        assert h.first_t == pytest.approx(min(ts))
        assert h.last_t == pytest.approx(max(ts))
        assert h.centroid.x == pytest.approx(np.mean([touches[i][1].x for i in members]))
        assert h.centroid.y == pytest.approx(np.mean([touches[i][1].y for i in members]))


class TestClusterTouches:
    def test_two_distant_groups(self):
        pts = [(0.0 + 0.1 * i, 0.0) for i in range(10)] + [(100.0 + 0.1 * i, 0.0) for i in range(10)]
        touches = touches_at(pts)
        params = ClusterParams(spatial_eps=10.0, temporal_gap_max=60.0, min_points=3)
        got = cluster_touches(touches, params)
        assert len(got) == 2
        assert_matches_oracle(touches, params)

    def test_isolated_touch_is_noise(self):
        touches = touches_at([(0.0, 0.0)])
        got = cluster_touches(touches, ClusterParams(spatial_eps=5.0, min_points=3))
        assert got == []
        assert noise(touches, got) == [0]

    def test_temporal_split_of_colocated_groups(self):
        early = touches_at([(0.0, 0.0)] * 5, t0=0.0)
        late = touches_at([(0.0, 0.0)] * 5, t0=100.0)
        touches = early + late
        params = ClusterParams(spatial_eps=5.0, temporal_gap_max=3.0, min_points=3)
        got = cluster_touches(touches, params)
        assert len(got) == 2
        assert_matches_oracle(touches, params)

    def test_empty_input(self):
        assert cluster_touches([], ClusterParams(spatial_eps=1.0)) == []

    def test_unresolved_eps_raises(self):
        with pytest.raises(ValueError, match="unresolved"):
            cluster_touches(touches_at([(0, 0)]), ClusterParams())

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        pts = [(float(x), float(y)) for x, y in rng.uniform(0, 50, size=(40, 2))]
        touches = touches_at(pts)
        params = ClusterParams(spatial_eps=8.0, temporal_gap_max=2.0, min_points=3)
        base = cluster_touches(touches, params)
        order = rng.permutation(len(touches))
        shuffled = [touches[i] for i in order]
        remapped = cluster_touches(shuffled, params)
        # map shuffled member indices back to original positions
        back = [sorted(int(order[i]) for i in h.member_touch_indices) for h in remapped]
        assert back == [sorted(h.member_touch_indices) for h in base]

    def test_oracle_on_random_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(0, 80))
            times = np.sort(rng.uniform(0, 30, n))
            pts = rng.uniform(0, 100, size=(n, 2))
            touches = [(float(times[i]), Point2(float(pts[i, 0]), float(pts[i, 1]))) for i in range(n)]
            params = ClusterParams(
                spatial_eps=float(rng.uniform(2, 25)),
                temporal_gap_max=float(rng.uniform(0.5, 10)),
                min_points=int(rng.integers(1, 5)),
            )
            assert_matches_oracle(touches, params)

    def test_eps_growth_never_splits_components(self):
        # growing eps only adds edges, so component count cannot increase
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 60, size=(50, 2))
        touches = [(0.1 * i, Point2(float(x), float(y))) for i, (x, y) in enumerate(pts)]
        counts = []
        for eps in (3.0, 6.0, 12.0, 24.0, 48.0):
            comps = brute_force_clusters(touches, eps, 1e9, 1)
            counts.append(len(comps))
        assert counts == sorted(counts, reverse=True)

    def test_every_touch_clustered_or_noise(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(0, 40, size=(60, 2))
        touches = [(0.05 * i, Point2(float(x), float(y))) for i, (x, y) in enumerate(pts)]
        params = ClusterParams(spatial_eps=6.0, temporal_gap_max=2.0, min_points=3)
        got = cluster_touches(touches, params)
        member_sets = [set(h.member_touch_indices) for h in got]
        for a in member_sets:
            assert len(a) >= 3
            for b in member_sets:
                assert a is b or not (a & b)
        covered = set().union(*member_sets) if member_sets else set()
        assert covered | set(noise(touches, got)) == set(range(60))


class TestMultiChunk:
    """Inputs whose candidate pairs span several pair chunks, on grids that
    put ties, coincident points, pairs exactly ``spatial_eps`` apart and time
    gaps of exactly ``temporal_gap_max`` on every chunk boundary."""

    @settings(max_examples=60, deadline=None)
    @given(
        cells=st.lists(st.tuples(st.integers(0, 16), st.integers(0, 8), st.integers(0, 8)),
                       min_size=30, max_size=300),
        t_step=st.sampled_from([0.25, 0.1]),
        s_step=st.sampled_from([0.5, 0.1, 1.0]),
        gap_steps=st.integers(1, 8),
        eps_steps=st.integers(1, 3),
        min_points=st.integers(1, 4),
        chunk=st.sampled_from([13, 257, hotspot._PAIR_CHUNK]),
    )
    def test_matches_matrix_oracle(self, cells, t_step, s_step, gap_steps, eps_steps,
                                   min_points, chunk):
        # drawn lists are in no particular order, so input order is shuffled
        touches = [(k * t_step, Point2(i * s_step, j * s_step)) for k, i, j in cells]
        params = ClusterParams(spatial_eps=eps_steps * s_step,
                               temporal_gap_max=gap_steps * t_step, min_points=min_points)
        with mock.patch.object(hotspot, "_PAIR_CHUNK", chunk):
            got = cluster_touches(touches, params)
        assert got == matrix_oracle(touches, params)

    def test_pair_that_rounds_onto_the_gap_is_kept(self):
        # 1.0411663480752398 - 0.34116634807523977 rounds to <= 0.7, although
        # 0.34116634807523977 < 1.0411663480752398 - 0.7: the window must not
        # cut this pair before the exact test sees it
        touches = [(0.34116634807523977, Point2(0.0, 0.0)), (1.0411663480752398, Point2(0.0, 0.0))]
        params = ClusterParams(spatial_eps=1.0, temporal_gap_max=0.7, min_points=2)
        got = cluster_touches(touches, params)
        assert [h.member_touch_indices for h in got] == [(0, 1)]
        assert got == matrix_oracle(touches, params)

    def test_dense_window_at_real_chunk_size(self):
        rng = np.random.default_rng(2)
        n = 3000
        times = rng.integers(0, 25, n) * 0.25  # 6 s: ties and gaps of exactly 3.0
        cells = rng.integers(0, 70, (n, 2)) * 0.5  # neighbors exactly eps apart
        touches = [(float(t), Point2(float(x), float(y))) for t, (x, y) in zip(times, cells)]
        params = ClusterParams(spatial_eps=0.5, temporal_gap_max=3.0, min_points=3)
        ts = np.sort(times)
        candidate_pairs = int((np.arange(n) - np.searchsorted(ts, ts - 3.0)).sum())
        assert candidate_pairs > 100 * hotspot._PAIR_CHUNK
        got = cluster_touches(touches, params)
        assert len(got) > 10 and noise(touches, got)
        assert got == matrix_oracle(touches, params)


class TestResolve:
    def test_eps_from_scene_diagonal(self):
        s = make_session([frame(0.0, ax=0.0, ay=0.0), frame(0.1, ax=30.0, ay=40.0)])
        params = ClusterParams().resolve([s])
        assert params.spatial_eps == pytest.approx(0.05 * 50.0)

    def test_explicit_eps_kept(self):
        assert ClusterParams(spatial_eps=7.0).resolve([]).spatial_eps == 7.0

    def test_degenerate_scene_falls_back(self):
        s = make_session([frame(0.0), frame(0.1)])
        assert ClusterParams().resolve([s]).spatial_eps == 1.0

    def test_eps_whose_square_overflows_is_rejected(self):
        bound = math.sqrt(sys.float_info.max)
        ClusterParams(spatial_eps=bound)
        for eps in (math.nextafter(bound, math.inf), 1e200, math.inf):
            with pytest.raises(ValueError, match="spatial_eps"):
                ClusterParams(spatial_eps=eps)


class TestExtractTouches:
    def test_only_touching_frames(self):
        s = make_session([
            frame(0.0, hx=1.0, hy=1.0),
            frame(0.1, hx=2.0, hy=2.0, touch=True),
            frame(0.2, hx=3.0, hy=3.0),
            frame(0.3, hx=4.0, hy=4.0, touch=True),
        ])
        got = extract_touches(s)
        assert got.tolist() == [[0.1, 2.0, 2.0], [0.3, 4.0, 4.0]]

    def test_no_touches(self):
        assert extract_touches(make_session([frame(0.0)])).shape == (0, 3)

    def test_rows_cluster_like_pairs(self):
        touches = [(i * 0.1, Point2(float(i % 3), 0.0)) for i in range(12)]
        rows = np.array([(t, p.x, p.y) for t, p in touches])
        params = ClusterParams(spatial_eps=0.5, min_points=2)
        assert cluster_touches(rows, params) == cluster_touches(touches, params)
        hotspots = cluster_touches(rows, params)
        assert assign_operating_hotspot(rows[:3], hotspots) == assign_operating_hotspot(touches[:3], hotspots)


class TestAssignHotspot:
    def _hotspots(self):
        mk = lambda i, x: dict(id=i, centroid=Point2(x, 0.0), touch_count=1,
                               first_t=0.0, last_t=1.0, member_touch_indices=(0,))
        from opgaze import Hotspot
        return [Hotspot(**mk(0, 0.0)), Hotspot(**mk(1, 10.0)), Hotspot(**mk(2, 20.0))]

    def test_nearest_centroid(self):
        got = assign_operating_hotspot([(0.0, Point2(19.0, 0.0))], self._hotspots())
        assert got == 2

    def test_tie_breaks_low_id(self):
        got = assign_operating_hotspot([(0.0, Point2(5.0, 0.0))], self._hotspots())
        assert got == 0

    def test_no_hotspots_is_none(self):
        assert assign_operating_hotspot([(0.0, Point2(0, 0))], []) is None


class TestTouchDistribution:
    def test_touch_at_attention_point_zero_bias(self):
        s = make_session([frame(0.0, ax=7.0, ay=7.0, hx=7.0, hy=7.0, touch=True)])
        dist = touch_distribution([s])
        assert (dist.bias_vector.x, dist.bias_vector.y) == (0.0, 0.0)

    def test_hand_computed_moments(self):
        # touches at (+-1, 0) around attention at the origin
        s = make_session([
            frame(0.0, ax=0.0, ay=0.0, hx=1.0, hy=0.0, touch=True),
            frame(0.1, ax=0.0, ay=0.0, hx=-1.0, hy=0.0, touch=True),
        ])
        dist = touch_distribution([s])
        assert (dist.centroid.x, dist.centroid.y) == (0.0, 0.0)
        assert dist.covariance == ((1.0, 0.0), (0.0, 0.0))

    def test_single_touch_bias(self):
        s = make_session([frame(0.0, ax=0.0, ay=0.0, hx=3.0, hy=4.0, touch=True)])
        dist = touch_distribution([s])
        assert (dist.bias_vector.x, dist.bias_vector.y) == (3.0, 4.0)
        assert dist.touch_count == 1

    def test_zero_touches_error(self):
        with pytest.raises(ValueError, match="no touches"):
            touch_distribution([make_session([frame(0.0)])])

    def test_collinear_touches_accepted(self):
        # two touches: a rank-1 covariance whose determinant rounds to -1.49e-08
        s = make_session([frame(0.0, hx=633.1, hy=1513.8, touch=True),
                          frame(0.1, hx=582.1, hy=870.7, touch=True)])
        (cxx, cxy), (_, cyy) = touch_distribution([s]).covariance
        assert cxx * cyy - cxy * cxy < -1e-9

    def test_indefinite_covariance_rejected(self):
        with pytest.raises(ValueError, match="positive semi-definite"):
            TouchDistribution(Point2(0.0, 0.0), Point2(0.0, 0.0), ((1.0, 2.0), (2.0, 1.0)), 2)
