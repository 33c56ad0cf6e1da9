"""Core domain types for egocentric machine-operation recordings.

A recording is a :class:`Session`, stored as one array per frame field:
time, the operator's attention proxy (the projected view center), the hand
position (NaN while out of sight) and a physical-contact flag.  Every stage
reads these columns, and a session is built from them; :class:`FrameRecord`
samples serve only the API edge, as the on-demand ``Session.frames`` view.
Downstream stages derive hotspots, operation units and distance series
from these types; the per-unit feature row lives in ``featurerow``.

All types are immutable after construction and safe to share across threads.
Positions live in one planar scene coordinate frame per session; the unit
(pixels or millimeters) is opaque metadata carried in ``coord_frame``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import KW_ONLY, dataclass, field, fields
from typing import Mapping, Optional, Sequence

import numpy as np

ORDINALS = ("earlier", "later")
DISTANCE_KINDS = ("AO", "HO", "AH")
RATER_ROLES = ("expert", "beginner")

SCORE_MIN = -5
SCORE_MAX = 5


@dataclass(frozen=True)
class Point2:
    """A point in the session's scene coordinate frame."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite coordinates: ({self.x}, {self.y})")
        # normalize numpy scalars so repr() serialization is plain decimal
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))

    def distance_to(self, other: "Point2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class FrameRecord:
    """One timestamped sample.

    ``attention`` is the per-frame attention proxy (view center projected
    into scene coordinates); ``hand`` is None while the hand is out of
    sight; ``touching`` flags physical contact with the machine surface.
    """

    t: float
    attention: Point2
    hand: Optional[Point2]
    touching: bool

    def __post_init__(self) -> None:
        if not math.isfinite(self.t) or self.t < 0:
            raise ValueError(f"frame time must be finite and >= 0, got {self.t}")
        object.__setattr__(self, "t", float(self.t))
        if self.touching and self.hand is None:
            raise ValueError("contact without hand: touching=true requires a hand position")


@dataclass(frozen=True)
class StepLabel:
    """One annotated operation step: the interval [start_t, end_t)."""

    start_t: float
    end_t: float
    step_id: str

    def __post_init__(self) -> None:
        if not self.end_t > self.start_t:
            raise ValueError(f"step '{self.step_id}': end {self.end_t} not after start {self.start_t}")


@dataclass(frozen=True, eq=False)
class Session:
    """One recorded operation experience, held as per-frame columns.

    ``times`` is strictly increasing; ``attention_xy`` and ``hand_xy`` are
    (n, 2) positions, ``hand_xy`` with NaN rows while the hand is out of
    sight; ``touching_mask`` flags contact, which needs a hand in sight.
    All four are read-only arrays.  ``ordinal`` marks whether this is the
    operator's earlier or later experience of the task; ``step_labels``
    optionally annotate operation-step intervals (non-overlapping).
    """

    id: str
    operator: str
    ordinal: str
    _: KW_ONLY
    sample_rate_hz: float
    coord_frame: str = "scene"
    step_labels: Optional[tuple[StepLabel, ...]] = None
    times: np.ndarray = field(repr=False)
    attention_xy: np.ndarray = field(repr=False)
    hand_xy: np.ndarray = field(repr=False)
    touching_mask: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.ordinal not in ORDINALS:
            raise ValueError(f"ordinal must be one of {ORDINALS}, got {self.ordinal!r}")
        for name, dtype in (("times", float), ("attention_xy", float), ("hand_xy", float),
                            ("touching_mask", bool)):
            arr = np.array(getattr(self, name), dtype=dtype)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        t, n = self.times, len(self.times)
        if not n:
            raise ValueError(f"session {self.id!r}: frames must be nonempty")
        if not (math.isfinite(self.sample_rate_hz) and self.sample_rate_hz > 0):
            raise ValueError(f"session {self.id!r}: sample_rate_hz must be positive")
        if (t.shape, self.attention_xy.shape, self.hand_xy.shape, self.touching_mask.shape) != (
                (n,), (n, 2), (n, 2), (n,)):
            raise ValueError(f"session {self.id!r}: columns must all hold {n} frames")
        bad = t[~(np.isfinite(t) & (t >= 0))]
        if len(bad):
            raise ValueError(f"frame time must be finite and >= 0, got {float(bad[0])}")
        hand_nan = np.isnan(self.hand_xy)
        if not (np.isfinite(self.attention_xy).all()
                and (np.isfinite(self.hand_xy) | hand_nan.all(axis=1, keepdims=True)).all()):
            raise ValueError(f"session {self.id!r}: non-finite coordinates")
        if (self.touching_mask & hand_nan[:, 0]).any():
            raise ValueError("contact without hand: touching=true requires a hand position")
        bad = np.flatnonzero(t[1:] <= t[:-1])
        if len(bad):
            prev, cur = float(t[bad[0]]), float(t[bad[0] + 1])
            kind = "duplicate timestamp" if cur == prev else "non-monotonic timestamp"
            raise ValueError(f"session {self.id!r}: {kind} at t={cur}")
        if self.step_labels is not None:
            labels = tuple(sorted(self.step_labels, key=lambda s: s.start_t))
            object.__setattr__(self, "step_labels", labels)
            for a, b in zip(labels, labels[1:]):
                if b.start_t < a.end_t:
                    raise ValueError(
                        f"session {self.id!r}: overlapping steps {a.step_id!r} and {b.step_id!r}"
                    )

    def __len__(self) -> int:
        return len(self.times)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Session):
            return NotImplemented
        pairs = ((getattr(self, f), getattr(other, f)) for f in _SESSION_FIELDS)
        return all(np.array_equal(a, b, equal_nan=True) if isinstance(a, np.ndarray) else a == b
                   for a, b in pairs)

    @property
    def frames(self) -> tuple[FrameRecord, ...]:
        """The frames as records, built anew on each access (API edge only)."""
        hands = [None if math.isnan(x) else Point2(x, y) for x, y in self.hand_xy.tolist()]
        columns = zip(self.times.tolist(), self.attention_xy.tolist(), hands, self.touching_mask.tolist())
        return tuple(FrameRecord(t, Point2(*xy), hand, touch) for t, xy, hand, touch in columns)

    @property
    def start_t(self) -> float:
        return float(self.times[0])

    @property
    def end_t(self) -> float:
        return float(self.times[-1])

    @functools.cached_property
    def hand_visible_mask(self) -> np.ndarray:
        arr = ~np.isnan(self.hand_xy[:, 0])
        arr.flags.writeable = False
        return arr


_SESSION_FIELDS = tuple(f.name for f in fields(Session))


def scene_diagonal(sessions: Session | Sequence[Session]) -> float:
    """Diagonal of the bounding box of every observed point (attention and hand).

    Used to scale spatial defaults; 0.0 when all points coincide.
    """
    if isinstance(sessions, Session):
        sessions = [sessions]
    if not sessions:
        return 0.0
    points = np.concatenate([xy for s in sessions for xy in (s.attention_xy, s.hand_xy)])
    span = np.nanmax(points, axis=0) - np.nanmin(points, axis=0)
    return math.hypot(*span.tolist())


@dataclass(frozen=True)
class Hotspot:
    """A frequently touched hand-machine interaction location.

    A spatio-temporal cluster of touch points: ``centroid`` is the mean of
    member positions, ``first_t``/``last_t`` bound its active interval, and
    ``member_touch_indices`` refer to positions in the touch list the
    cluster was built from.
    """

    id: int
    centroid: Point2
    touch_count: int
    first_t: float
    last_t: float
    member_touch_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.touch_count != len(self.member_touch_indices):
            raise ValueError("touch_count must match member count")
        if self.first_t > self.last_t:
            raise ValueError("hotspot interval inverted")


@dataclass(frozen=True)
class Interval:
    """Half-open-by-convention time interval [start, end); may be empty."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"interval inverted: [{self.start}, {self.end})")

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class OperationUnit:
    """One pure-gazing -> hand-approaching -> operating cycle.

    The three periods are contiguous: gazing ends where approaching starts,
    approaching ends where operating starts.  Gazing and approaching may be
    empty; operating is nonempty and contains at least one touching frame.
    """

    index: int
    gazing: Interval
    approaching: Interval
    operating: Interval
    hotspot_id: Optional[int] = None
    step_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.gazing.end != self.approaching.start or self.approaching.end != self.operating.start:
            raise ValueError(f"unit {self.index}: periods are not contiguous")

    @property
    def start(self) -> float:
        return self.gazing.start

    @property
    def end(self) -> float:
        return self.operating.end


def time_range(times: np.ndarray, lo: float, hi: float, closed: bool = False) -> tuple[int, int]:
    """Index range of the strictly increasing ``times`` that lie in [lo, hi),
    or in [lo, hi] when ``closed``."""
    return (int(np.searchsorted(times, lo, "left")),
            int(np.searchsorted(times, hi, "right" if closed else "left")))


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.asarray(a, dtype=float)
    if out.ndim != 1:
        raise ValueError("series must be one-dimensional")
    out = out.copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class DistanceSeries:
    """A per-frame distance track between two of attention / hand / hotspot.

    ``kind`` is "AO" (attention-hotspot), "HO" (hand-hotspot) or "AH"
    (attention-hand).  Values are nonnegative scene units; the hand-hotspot
    distance is 0 at frames where the hotspot is touched.
    """

    times: np.ndarray
    values: np.ndarray
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in DISTANCE_KINDS:
            raise ValueError(f"kind must be one of {DISTANCE_KINDS}, got {self.kind!r}")
        times = _readonly(self.times)
        values = _readonly(self.values)
        if len(times) != len(values):
            raise ValueError("times and values must have equal length")
        if len(times) > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("distance values must be finite")
        if len(values) and float(np.min(values)) < 0:
            raise ValueError("distance values must be >= 0")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)

    def _derive(self, times: np.ndarray, values: np.ndarray) -> "DistanceSeries":
        """A series of the same kind from read-only arrays that already pass
        the checks (a window of this series, or its values less their
        minimum); they are not checked again."""
        out = object.__new__(DistanceSeries)
        for name, value in (("times", times), ("values", values), ("kind", self.kind)):
            object.__setattr__(out, name, value)
        return out

    def window(self, lo: float, hi: float, closed: bool = False) -> "DistanceSeries":
        """The samples at times in [lo, hi), or in [lo, hi] when ``closed``."""
        i, j = time_range(self.times, lo, hi, closed)
        return self._derive(self.times[i:j], self.values[i:j])

    @property
    def span(self) -> float:
        """Time covered by the samples; 0 for fewer than two samples."""
        if len(self.times) < 2:
            return 0.0
        return float(self.times[-1] - self.times[0])


@dataclass(frozen=True)
class Rating:
    """One rater's difficulty score for one step, on the -5..5 scale

    (most difficult to easiest)."""

    rater_id: str
    role: str
    score: int

    def __post_init__(self) -> None:
        if self.role not in RATER_ROLES:
            raise ValueError(f"role must be one of {RATER_ROLES}, got {self.role!r}")
        if not SCORE_MIN <= self.score <= SCORE_MAX:
            raise ValueError(f"score {self.score} outside [{SCORE_MIN}, {SCORE_MAX}]")


@dataclass(frozen=True)
class DifficultyRatings:
    """Per-step rater scores."""

    by_step: Mapping[str, tuple[Rating, ...]]

    def __post_init__(self) -> None:
        clean = {}
        for step_id, ratings in self.by_step.items():
            if not ratings:
                raise ValueError(f"step {step_id!r} has no raters")
            clean[step_id] = tuple(ratings)
        object.__setattr__(self, "by_step", clean)

    def step_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.by_step))

    def mean_score(self, step_id: str, role: Optional[str] = None) -> float:
        """Mean score for a step, optionally over one rater role only."""
        ratings = self.by_step[step_id]
        if role is not None:
            if role not in RATER_ROLES:
                raise ValueError(f"role must be one of {RATER_ROLES}, got {role!r}")
            ratings = tuple(r for r in ratings if r.role == role)
            if not ratings:
                raise ValueError(f"step {step_id!r} has no raters with role {role!r}")
        return sum(r.score for r in ratings) / len(ratings)

    def mean_difficulty(self, step_id: str, role: Optional[str] = None) -> float:
        """Mean rated difficulty: the negated score (the scale runs from
        most difficult at -5 to easiest at +5)."""
        return -self.mean_score(step_id, role)
