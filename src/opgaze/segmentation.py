"""Split a session into operation units with gazing / approaching /
operating boundaries.

An operating period is a maximal run of touching frames after micro-gaps
shorter than ``touch_merge_gap`` are merged; runs shorter than
``min_operating`` are discarded as contact-detection jitter (logged).  The
approaching period starts at the first debounced hand appearance after the
previous contact ended -- or exactly at the previous contact's end when the
hand never left sight -- and the gazing period fills the space before it.
A trailing bout-less stretch (touches never resume) produces no unit.
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .session import Hotspot, Interval, OperationUnit, Session, StepLabel
from .hotspot import assign_operating_hotspot

logger = logging.getLogger(__name__)

DEFAULT_TOUCH_MERGE_GAP = 0.3
DEFAULT_MIN_OPERATING = 0.2
DEFAULT_HAND_DEBOUNCE = 2


@dataclass(frozen=True)
class SegmentationParams:
    touch_merge_gap: float = DEFAULT_TOUCH_MERGE_GAP
    min_operating: float = DEFAULT_MIN_OPERATING
    hand_presence_debounce: int = DEFAULT_HAND_DEBOUNCE

    def __post_init__(self) -> None:
        for name in ("touch_merge_gap", "min_operating", "hand_presence_debounce"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


def _runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last index of each maximal run of True in ``mask``."""
    edges = np.diff(mask.astype(np.int8), prepend=0, append=0)
    return np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1


def _merge_bouts(t: np.ndarray, first: np.ndarray, last: np.ndarray,
                 gap: float) -> tuple[np.ndarray, np.ndarray]:
    """Join each bout to the previous one when the pause between is below ``gap``."""
    split = ~(t[first[1:]] - t[last[:-1]] < gap)
    return first[np.r_[True, split]], last[np.r_[split, True]]


def _visible_flags(s: Session, debounce: int) -> np.ndarray:
    """Per-frame flag: hand in sight, counting only presence runs of at
    least ``debounce`` frames."""
    first, last = _runs(s.hand_visible_mask)
    keep = last - first + 1 >= max(debounce, 1)
    edges = np.zeros(len(s) + 1, dtype=np.int8)
    edges[first[keep]] = 1
    edges[last[keep] + 1] = -1
    return np.cumsum(edges[:-1]) > 0


def _majority_step(labels: Sequence[StepLabel], o_start: float, o_end: float) -> Optional[str]:
    """Of the ``labels`` that reach into the period, the step of the one holding an
    instant, or of the first covering the most of a longer period if that is over half."""
    if o_end == o_start:
        return labels[0].step_id if labels else None
    overlaps = [min(o_end, label.end_t) - max(o_start, label.start_t) for label in labels]
    best = max(overlaps, default=0.0)
    return labels[overlaps.index(best)].step_id if best > 0.5 * (o_end - o_start) else None


def segment_units(
    s: Session,
    params: SegmentationParams = SegmentationParams(),
    hotspots: Optional[Sequence[Hotspot]] = None,
) -> list[OperationUnit]:
    """Segment a session into ordered, non-overlapping operation units.

    When ``hotspots`` are provided each unit gets the hotspot nearest its
    touch positions (None are flagged as unassigned); when the session has
    step labels each unit gets the step covering the majority of its
    operating period.
    """
    # disjoint and sorted by start, so by end too: a unit's labels are one run
    labels = s.step_labels or ()
    starts = [label.start_t for label in labels]
    ends = [label.end_t for label in labels]
    t = s.times
    first, last = _runs(s.touching_mask)
    if not len(first):
        logger.warning("session %s: no touches, nothing to segment", s.id)
        return []
    first, last = _merge_bouts(t, first, last, params.touch_merge_gap)

    short = t[last] - t[first] < params.min_operating
    for i in np.flatnonzero(short).tolist():
        logger.warning(
            "session %s: dropped operating bout [%s, %s] shorter than %ss",
            s.id, float(t[first[i]]), float(t[last[i]]), params.min_operating,
        )
    kept = list(zip(first[~short].tolist(), last[~short].tolist()))
    if not kept:
        logger.warning("session %s: all operating bouts below min_operating", s.id)
        return []

    visible = np.flatnonzero(_visible_flags(s, params.hand_presence_debounce))
    units: list[OperationUnit] = []
    prev_end_t = s.start_t
    prev_end_i = -1
    for index, (ob, oe) in enumerate(kept):
        o_start, o_end = float(t[ob]), float(t[oe])
        appearance = o_start
        k = np.searchsorted(visible, prev_end_i + 1)  # first hand-in-sight frame after it
        if k < len(visible) and visible[k] <= ob:
            # hand still in sight right after the previous contact
            # means it never left: approaching starts at the boundary
            j = int(visible[k])
            appearance = prev_end_t if j == prev_end_i + 1 else float(t[j])
        appearance = min(max(appearance, prev_end_t), o_start)

        hotspot_id = None
        if hotspots is not None:
            span = slice(ob, oe + 1)
            touches = np.column_stack((t[span], s.hand_xy[span]))[s.touching_mask[span]]
            hotspot_id = assign_operating_hotspot(touches, hotspots)
            if hotspot_id is None:
                logger.warning("session %s: unit %d has no hotspot to assign", s.id, index)

        units.append(OperationUnit(
            index=index,
            gazing=Interval(prev_end_t, appearance),
            approaching=Interval(appearance, o_start),
            operating=Interval(o_start, o_end),
            hotspot_id=hotspot_id,
            step_id=_majority_step(labels[bisect_right(ends, o_start):bisect_right(starts, o_end)],
                                   o_start, o_end),
        ))
        prev_end_t = o_end
        prev_end_i = oe
    return units


def period_durations(ou: OperationUnit) -> tuple[float, float, float, float, float, float]:
    """Absolute period durations and their ratios to the whole unit.

    Ratios sum to 1; a fully degenerate (zero-length) unit counts as all
    operating.
    """
    dur_g = ou.gazing.duration
    dur_h = ou.approaching.duration
    dur_o = ou.operating.duration
    total = dur_g + dur_h + dur_o
    if total <= 0:
        return dur_g, dur_h, dur_o, 0.0, 0.0, 1.0
    return dur_g, dur_h, dur_o, dur_g / total, dur_h / total, dur_o / total
