"""Hotspot detection by spatio-temporal clustering of touch points.

Two touches are neighbors when they are within ``spatial_eps`` scene units
AND within ``temporal_gap_max`` seconds of each other; hotspots are the
connected components of that neighbor graph with at least ``min_points``
members.  Touches in smaller components are noise: they are the touches
that no hotspot's ``member_touch_indices`` names.

Clustering is array code.  Touches are put in a canonical (t, x, y, input
index) order.  A touch that is a neighbor of the touch just before it
continues that touch's run, and a run of consecutive neighbors lies in one
component, so each touch starts labeled with the first index of its run.
A binary search on the sorted times gives each touch the window of earlier
touches that can be its neighbors; only the part of the window before the
touch's own run can join it to another component, and only that part is
walked.  Those candidate pairs are walked in fixed-size chunks, so memory
does not grow with touch density, and each pair is kept only if it passes
both neighbor tests.  A union-find over canonical indices merges each
chunk's kept pairs: the pairs' labels are followed to their roots, and
every root is hooked to the smaller root it is paired with, so a root is
always the smallest canonical index of its component.  At the end the
labels are pointer-jumped until each names its root.

Also computes the accumulated touch distribution (centroid, bias relative
to the attention point, covariance) across sessions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .session import Hotspot, Point2, Session, scene_diagonal

DEFAULT_EPS_DIAGONAL_FRACTION = 0.05
DEFAULT_TEMPORAL_GAP_MAX = 3.0
DEFAULT_MIN_POINTS = 3
# clustering compares squared distances with spatial_eps ** 2, which must be finite
SPATIAL_EPS_MAX = math.sqrt(sys.float_info.max)

@dataclass(frozen=True)
class ClusterParams:
    """Neighborhood thresholds for touch clustering.

    ``spatial_eps`` of None means "resolve from the data": 5% of the scene
    diagonal of the sessions being analyzed.
    """

    spatial_eps: Optional[float] = None
    temporal_gap_max: float = DEFAULT_TEMPORAL_GAP_MAX
    min_points: int = DEFAULT_MIN_POINTS

    def __post_init__(self) -> None:
        if self.spatial_eps is not None and not 0 < self.spatial_eps <= SPATIAL_EPS_MAX:
            raise ValueError(f"spatial_eps must be in (0, {SPATIAL_EPS_MAX!r}], got {self.spatial_eps!r}")
        if not self.temporal_gap_max > 0:
            raise ValueError("temporal_gap_max must be strictly positive")
        if not self.min_points > 0:
            raise ValueError("min_points must be strictly positive")

    def resolve(self, sessions: Sequence[Session]) -> "ClusterParams":
        """Return params with a concrete spatial_eps for these sessions."""
        if self.spatial_eps is not None:
            return self
        diag = scene_diagonal(sessions)
        eps = DEFAULT_EPS_DIAGONAL_FRACTION * diag
        if eps <= 0:
            eps = 1.0  # degenerate scene: all points coincide
        return ClusterParams(spatial_eps=eps,
                             temporal_gap_max=self.temporal_gap_max,
                             min_points=self.min_points)


@dataclass(frozen=True)
class TouchDistribution:
    """Accumulated touch statistics: where operators touch relative to
    where they look."""

    centroid: Point2
    bias_vector: Point2
    covariance: tuple[tuple[float, float], tuple[float, float]]
    touch_count: int

    def __post_init__(self) -> None:
        (cxx, cxy), (cyx, cyy) = self.covariance
        if abs(cxy - cyx) > 1e-9:
            raise ValueError("covariance must be symmetric")
        # PSD check for a symmetric 2x2: nonnegative diagonal and determinant.
        # Collinear points give a determinant of 0 up to a few ulps of
        # cxx * cyy, on either side, so the tolerance scales with it
        if cxx < 0 or cyy < 0 or cxx * cyy - cxy * cyx < -1e-9 * max(1.0, cxx * cyy):
            raise ValueError("covariance must be positive semi-definite")


def extract_touches(s: Session) -> np.ndarray:
    """(t, hand x, hand y) rows, one per frame with physical contact."""
    return np.column_stack((s.times, s.hand_xy))[s.touching_mask]


# Candidate pairs examined per step; bounds the working arrays.
_PAIR_CHUNK = 1 << 14


def _settle(label: np.ndarray) -> None:
    """Pointer-jump ``label`` in place until every entry names a root."""
    while True:
        jumped = label[label]
        if np.array_equal(jumped, label):
            return
        label[:] = jumped


def _roots(label: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The root of each of ``idx``, found by following labels.  Every label
    followed on the way is set to its root, so that chains of roots hooked
    in turn over many chunks are walked once, not on every lookup."""
    path = [idx]
    root = label[idx]
    while True:
        up = label[root]
        if np.array_equal(up, root):
            break
        path.append(root)
        root = up
    for step in path[:-1]:
        label[step] = root
    return root


def _join(label: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Merge the components of the pairs ``(a[k], b[k])``.

    On entry each label names an index of its own component that is no
    larger than itself, and a root names itself; a label need not name a
    root, as a run's head may have been hooked to a smaller root in an
    earlier chunk while the run's later touches still name the head.  Only
    the labels of ``a`` and ``b`` are followed to their roots, so the cost
    grows with the pairs, not with the span of indices they come from.  A
    root only ever points to a smaller index, so the root of a component
    is its smallest index.
    """
    ra, rb = _roots(label, a), _roots(label, b)
    while True:
        apart = ra != rb
        if not apart.any():
            return
        ra, rb = ra[apart], rb[apart]
        np.minimum.at(label, np.maximum(ra, rb), np.minimum(ra, rb))
        ra, rb = _roots(label, ra), _roots(label, rb)


def cluster_touches(touches: np.ndarray, params: ClusterParams) -> list[Hotspot]:
    """Cluster touches, (t, x, y) rows as :func:`extract_touches` returns
    them, into hotspots.

    The rows are canonicalized internally, so the result does not depend
    on their order.  Hotspots are ordered by first touch time and numbered
    from 0; member indices are row indices of ``touches``.
    """
    if params.spatial_eps is None:
        raise ValueError("spatial_eps unresolved; call ClusterParams.resolve first")
    n = len(touches)
    if n == 0:
        return []

    raw = touches.T
    # lexsort is stable, so ties on (t, x, y) keep input order
    order = np.lexsort(raw[::-1])
    times, xs, ys = np.ascontiguousarray(raw[:, order])

    gap = params.temporal_gap_max
    eps_sq = params.spatial_eps ** 2
    # A touch that passes both neighbor tests against the touch before it
    # (the same expressions as the pair test below) continues its run.
    dx = xs[:-1] - xs[1:]
    dy = ys[:-1] - ys[1:]
    head = np.ones(n, dtype=bool)
    head[1:] = ~((times[1:] - times[:-1] <= gap) & (dx * dx + dy * dy <= eps_sq))
    run_start = np.maximum.accumulate(np.where(head, np.arange(n), 0))
    # Window start of each touch: its first earlier touch within ``gap``.
    # The reach is wider than ``gap`` by far more than the rounding of
    # ``t - gap``, and the exact temporal test below drops the extra pairs.
    reach = gap + 1e-9 * (gap + float(np.abs(times).max()))
    start = np.searchsorted(times, times - reach, side="left")
    # a touch's pairs are with the window's touches before its own run
    counts = np.maximum(run_start - start, 0)
    first = np.cumsum(counts) - counts  # flat index of each touch's first pair
    total = int(first[-1] + counts[-1])

    label = run_start  # each run starts as one component, named by its head
    for p0 in range(0, total, _PAIR_CHUNK):
        p1 = min(p0 + _PAIR_CHUNK, total)
        # the touches whose pairs fall in [p0, p1), and how many each has there
        rows = np.arange(np.searchsorted(first, p0, side="right") - 1,
                         np.searchsorted(first, p1 - 1, side="right"))
        per_row = np.minimum(first[rows] + counts[rows], p1) - np.maximum(first[rows], p0)
        i = np.repeat(rows, per_row)
        j = start[i] + (np.arange(p0, p1) - first[i])
        dx = xs[j] - xs[i]
        dy = ys[j] - ys[i]
        keep = (times[i] - times[j] <= gap) & (dx * dx + dy * dy <= eps_sq)
        _join(label, i[keep], j[keep])
    _settle(label)

    sizes = np.bincount(label, minlength=n)
    # roots in ascending order are the components in first-touch order
    roots = np.flatnonzero(sizes >= params.min_points)
    members = np.flatnonzero(sizes[label] >= params.min_points)
    grouped = members[np.argsort(label[members], kind="stable")]
    ends = np.cumsum(sizes[roots])
    hotspots: list[Hotspot] = []
    for cluster_id, (lo, hi) in enumerate(zip(ends - sizes[roots], ends)):
        m = grouped[lo:hi]
        hotspots.append(Hotspot(
            id=cluster_id,
            centroid=Point2(float(np.mean(xs[m])), float(np.mean(ys[m]))),
            touch_count=len(m),
            first_t=float(times[m[0]]),
            last_t=float(times[m[-1]]),
            member_touch_indices=tuple(np.sort(order[m]).tolist()),
        ))
    return hotspots


def assign_operating_hotspot(ou_touches: np.ndarray, hotspots: Sequence[Hotspot]) -> Optional[int]:
    """Hotspot whose centroid is nearest the mean of a unit's touch
    positions, its (t, x, y) rows; ties break toward the lower id.  None
    when there are no hotspots to assign (flagged on the unit)."""
    if not hotspots:
        return None
    n = len(ou_touches)
    if not n:
        raise ValueError("ou_touches must be nonempty")
    # the builtin sum, in touch order, keeps the last bit of the mean stable
    mean = Point2(sum(ou_touches[:, 1].tolist()) / n, sum(ou_touches[:, 2].tolist()) / n)
    return min(hotspots, key=lambda h: (mean.distance_to(h.centroid), h.id)).id


def touching_points(s: Session) -> np.ndarray:
    """(hand x, hand y, attention x, attention y) rows, one per frame with
    physical contact."""
    return np.hstack((s.hand_xy, s.attention_xy))[s.touching_mask]


def touch_distribution(points: np.ndarray) -> TouchDistribution:
    """Accumulated touch centroid, bias, and covariance of touching points,
    (n, 4) rows as :func:`touching_points` returns them, of one or more
    sessions joined.

    The bias vector is the touch centroid minus the mean attention point
    over the same (touching) frames: how far contact sits from where the
    operator is looking when touching.
    """
    xs, ys, att_x, att_y = points.T
    if not len(xs):
        raise ValueError("no touches across sessions")
    cx, cy = float(np.mean(xs)), float(np.mean(ys))
    bias = Point2(cx - float(np.mean(att_x)), cy - float(np.mean(att_y)))
    dx = xs - cx
    dy = ys - cy
    n = len(xs)
    cxx = float(np.dot(dx, dx) / n)
    cyy = float(np.dot(dy, dy) / n)
    cxy = float(np.dot(dx, dy) / n)
    return TouchDistribution(
        centroid=Point2(cx, cy),
        bias_vector=bias,
        covariance=((cxx, cxy), (cxy, cyy)),
        touch_count=n,
    )


def touch_distribution_plot_data(dist: TouchDistribution, points: np.ndarray) -> dict:
    """Plot-ready payload: the distribution plus the raw touch points of
    its touching ``points``."""
    return {
        "centroid": [dist.centroid.x, dist.centroid.y],
        "bias": [dist.bias_vector.x, dist.bias_vector.y],
        "covariance": [list(row) for row in dist.covariance],
        "touch_count": dist.touch_count,
        "points": points[:, :2].tolist(),
    }
