"""Hotspot detection by spatio-temporal clustering of touch points.

Two touches are neighbors when they are within ``spatial_eps`` scene units
AND within ``temporal_gap_max`` seconds of each other; hotspots are the
connected components of that neighbor graph with at least ``min_points``
members.  Touches in smaller components are noise but stay countable.

Clustering is array code.  Touches are put in a canonical (t, x, y, input
index) order; a binary search on the sorted times gives each touch the
window of earlier touches that can be its neighbors.  The candidate pairs
of all windows are walked in fixed-size chunks, so memory does not grow
with touch density, and each pair is kept only if it passes both neighbor
tests.  A union-find over canonical indices merges each chunk's kept
pairs: every root is hooked to the smaller root it is paired with, then
labels are pointer-jumped until each names its root, which is always the
smallest canonical index of its component.

Also computes the accumulated touch distribution (centroid, bias relative
to the attention point, covariance) across sessions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .session import Hotspot, Point2, Session, scene_diagonal

DEFAULT_EPS_DIAGONAL_FRACTION = 0.05
DEFAULT_TEMPORAL_GAP_MAX = 3.0
DEFAULT_MIN_POINTS = 3
# clustering compares squared distances with spatial_eps ** 2, which must be finite
SPATIAL_EPS_MAX = math.sqrt(sys.float_info.max)

Touch = tuple[float, Point2]
# Touches as (t, x, y) array rows, or as (t, position) pairs at the API edge.
Touches = Union[np.ndarray, Sequence[Touch]]


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

    def resolve(self, sessions: Session | Sequence[Session]) -> "ClusterParams":
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


def _touch_rows(touches: Touches) -> np.ndarray:
    if isinstance(touches, np.ndarray):
        return touches
    return np.array([(t, p.x, p.y) for t, p in touches], dtype=float).reshape(-1, 3)


# Candidate pairs examined per step; bounds the working arrays.
_PAIR_CHUNK = 1 << 14


def _settle(label: np.ndarray, lo: int = 0, hi: Optional[int] = None) -> None:
    """Pointer-jump ``label[lo:hi]`` in place until every entry names a root."""
    view = label[lo:hi]
    while True:
        jumped = label[view]
        if np.array_equal(jumped, view):
            return
        view[:] = jumped


def _join(label: np.ndarray, a: np.ndarray, b: np.ndarray, lo: int, hi: int) -> None:
    """Merge the components of the pairs ``(a[k], b[k])``.

    Every index in ``a`` and ``b`` lies in ``[lo, hi)``, and on entry each
    label there names a root.  A root only ever points to a smaller index,
    so the root of a component is its smallest index.
    """
    while True:
        ra, rb = label[a], label[b]
        apart = ra != rb
        if not apart.any():
            return
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        np.minimum.at(label, np.maximum(ra, rb), np.minimum(ra, rb))
        _settle(label, lo, hi)


def cluster_touches(touches: Touches, params: ClusterParams) -> list[Hotspot]:
    """Cluster touches into hotspots.

    Input touches are expected time-ordered (as produced by
    :func:`extract_touches`); they are canonicalized internally, so the
    result does not depend on input order.  Hotspots are ordered by first
    touch time and numbered from 0; member indices refer to positions in
    the input sequence.
    """
    if params.spatial_eps is None:
        raise ValueError("spatial_eps unresolved; call ClusterParams.resolve first")
    n = len(touches)
    if n == 0:
        return []

    raw = _touch_rows(touches).T
    # lexsort is stable, so ties on (t, x, y) keep input order
    order = np.lexsort(raw[::-1])
    times, xs, ys = np.ascontiguousarray(raw[:, order])

    gap = params.temporal_gap_max
    eps_sq = params.spatial_eps ** 2
    # Window start of each touch: its first earlier touch within ``gap``.
    # The reach is wider than ``gap`` by far more than the rounding of
    # ``t - gap``, and the exact temporal test below drops the extra pairs.
    reach = gap + 1e-9 * (gap + float(np.abs(times).max()))
    start = np.searchsorted(times, times - reach, side="left")
    counts = np.arange(n) - start
    first = np.cumsum(counts) - counts  # flat index of each touch's first pair
    total = int(first[-1] + counts[-1])

    label = np.arange(n)
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
        _join(label, i[keep], j[keep], int(start[i[0]]), int(i[-1]) + 1)
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


def noise_indices(touches: Touches, hotspots: Sequence[Hotspot]) -> list[int]:
    """Input indices of touches that belong to no hotspot."""
    member = set()
    for h in hotspots:
        member.update(h.member_touch_indices)
    return [i for i in range(len(touches)) if i not in member]


def assign_operating_hotspot(ou_touches: Touches, hotspots: Sequence[Hotspot]) -> Optional[int]:
    """Hotspot whose centroid is nearest the mean of a unit's touch
    positions; ties break toward the lower id.  None when there are no
    hotspots to assign (flagged on the unit)."""
    if not hotspots:
        return None
    rows = _touch_rows(ou_touches)
    if not len(rows):
        raise ValueError("ou_touches must be nonempty")
    # the builtin sum, in touch order, keeps the last bit of the mean stable
    mean = Point2(sum(rows[:, 1].tolist()) / len(rows), sum(rows[:, 2].tolist()) / len(rows))
    best_id = None
    best_dist = None
    for h in sorted(hotspots, key=lambda h: h.id):
        d = mean.distance_to(h.centroid)
        if best_dist is None or d < best_dist:
            best_id, best_dist = h.id, d
    return best_id


def _touching_points(sessions: Session | Sequence[Session]) -> np.ndarray:
    """(hand x, hand y, attention x, attention y) of every touching frame."""
    if isinstance(sessions, Session):
        sessions = [sessions]
    rows = [np.hstack((s.hand_xy, s.attention_xy))[s.touching_mask] for s in sessions]
    return np.concatenate(rows or [np.empty((0, 4))])


def touch_distribution(sessions: Session | Sequence[Session]) -> TouchDistribution:
    """Accumulated touch centroid, bias, and covariance across sessions.

    The bias vector is the touch centroid minus the mean attention point
    over the same (touching) frames: how far contact sits from where the
    operator is looking when touching.
    """
    xs, ys, att_x, att_y = _touching_points(sessions).T
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


def touch_distribution_plot_data(
    dist: TouchDistribution, sessions: Session | Sequence[Session]
) -> dict:
    """Plot-ready payload: the distribution plus the raw touch points."""
    points = _touching_points(sessions)[:, :2].tolist()
    return {
        "centroid": [dist.centroid.x, dist.centroid.y],
        "bias": [dist.bias_vector.x, dist.bias_vector.y],
        "covariance": [list(row) for row in dist.covariance],
        "touch_count": dist.touch_count,
        "points": points,
    }
