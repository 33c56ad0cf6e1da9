"""Reference step assignment: the two-scan rule that checked every step
label of the session for every operating period, kept as the oracle of
``segmentation.segment_units``' bisected lookup.
"""

from __future__ import annotations

from typing import Optional

from opgaze.session import Session


def majority_step(s: Session, o_start: float, o_end: float) -> Optional[str]:
    """The step of the label holding an instant period, or of the first label
    covering more than half of a longer one."""
    if s.step_labels is None:
        return None
    dur = o_end - o_start
    if dur == 0:
        for label in s.step_labels:
            if label.start_t <= o_start < label.end_t:
                return label.step_id
        return None
    best_id, best_overlap = None, 0.0
    for label in s.step_labels:
        overlap = min(o_end, label.end_t) - max(o_start, label.start_t)
        if overlap > best_overlap:
            best_id, best_overlap = label.step_id, overlap
    if best_overlap > 0.5 * dur:
        return best_id
    return None
