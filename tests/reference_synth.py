"""The unit generator as it was before synth built columns: one
``FrameRecord`` of ``Point2`` positions per frame, touch jitter drawn a
coordinate at a time, and gazing reversals counted by a loop.  It is the
differential oracle of ``tests/test_synth.py``; the archetype and the plan
are the package's own.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from opgaze.session import FrameRecord, Point2
from opgaze.synth import DEFAULT_SAMPLE_RATE_HZ, ArchetypeSpec, PlannedUnit


def _reversal_count(values: np.ndarray) -> int:
    # planning-only counter for the realized clean profile
    signs = np.sign(np.diff(values))
    changes, last = 0, 0
    for sgn in signs:
        if sgn == 0:
            continue
        if last != 0 and sgn != last:
            changes += 1
        last = int(sgn)
    return changes


def generate_ou_trace(
    a: ArchetypeSpec,
    seed: Union[int, Sequence[int]],
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ,
    start_index: int = 0,
) -> tuple[list[FrameRecord], PlannedUnit]:
    """Frames realizing one archetype, on the global frame grid.

    Frame k of the unit gets t = (start_index + k) / rate, so units
    concatenate seamlessly.  Deterministic given the seed.
    """
    rate = sample_rate_hz
    if rate <= 0:
        raise ValueError("sample_rate_hz must be positive")
    rng = np.random.default_rng(seed)
    n_g = max(1, round(a.dur_gazing * rate))
    n_h = max(1, round(a.dur_approaching * rate))
    n_o = max(2, round(a.dur_operating * rate))
    lag_frames = round(a.lag_s * rate)
    if lag_frames + 2 > n_h:
        raise ValueError(
            f"lag {a.lag_s}s needs more approaching frames than {n_h} at {rate} Hz"
        )

    # gazing: attention distance profile
    if a.gaze_pattern == "search":
        tg = np.arange(n_g) / rate
        d_gaze = a.far_dist - a.oscillation_amp * (
            1.0 - np.cos(2.0 * np.pi * a.oscillation_freq_hz * tg)
        )
    else:
        d_gaze = np.full(n_g, a.far_dist)
    planned_reversals = _reversal_count(d_gaze)

    # approaching: linear ramp far -> near, then hold; the hand runs the
    # same sampled profile delayed by the planned lag
    ramp_frames = max(1, round((a.far_dist - a.near_dist) / a.approach_speed * rate))
    ramp_frames = min(ramp_frames, n_h - 1 - lag_frames)
    k = np.arange(n_h)
    d_app = np.where(
        k < ramp_frames,
        a.far_dist - (a.far_dist - a.near_dist) * k / ramp_frames,
        a.near_dist,
    )
    d_hand = np.where(
        k < lag_frames,
        a.far_dist,
        np.where(
            k - lag_frames < ramp_frames,
            a.far_dist - (a.far_dist - a.near_dist) * (k - lag_frames) / ramp_frames,
            a.near_dist,
        ),
    )

    # operating: near-flat, with a planned trailing increase for "early"
    d_op = np.full(n_o, a.near_dist)
    if a.shift_kind == "early":
        m = round(a.early_ratio * (n_o - 1))
        m = max(1, min(m, n_o - 2))
        tail = np.arange(1, m + 1) * a.operating_slope
        d_op[n_o - m:] += tail
        realized_ratio = m / (n_o - 1)
    else:
        if n_o >= 10:  # small mid-period bump so kinematics are nontrivial
            j = n_o // 3
            d_op[j:j + 3] += (1, 2, 3)
            d_op[j + 3:j + 6] += (2, 1, 0)[: max(0, n_o - j - 3)]
        realized_ratio = 0.0

    d_att = np.concatenate([d_gaze, d_app, d_op])
    if a.noise_sigma > 0:
        d_att = d_att + rng.normal(0.0, a.noise_sigma, len(d_att))
        d_hand = d_hand + rng.normal(0.0, a.noise_sigma, n_h)
    d_att = np.maximum(d_att, 0.0)
    d_hand = np.maximum(d_hand, 0.0)

    # rays stay in one quadrant so the observed scene diagonal stays near
    # far_dist * sqrt(2) instead of doubling
    angle = rng.uniform(0.0, np.pi / 2.0)
    ux, uy = np.cos(angle), np.sin(angle)
    hx0, hy0 = a.hotspot.x, a.hotspot.y
    touch_jitter = 0.25 * a.noise_sigma

    frames: list[FrameRecord] = []
    n_total = n_g + n_h + n_o
    for j in range(n_total):
        t = (start_index + j) / rate
        attention = Point2(hx0 + ux * d_att[j], hy0 + uy * d_att[j])
        if j < n_g:
            hand, touching = None, False
        elif j < n_g + n_h:
            dh = d_hand[j - n_g]
            hand, touching = Point2(hx0 + ux * dh, hy0 + uy * dh), False
        else:
            if touch_jitter > 0:
                hand = Point2(
                    hx0 + rng.normal(0.0, touch_jitter),
                    hy0 + rng.normal(0.0, touch_jitter),
                )
            else:
                hand = Point2(hx0, hy0)
            touching = True
        frames.append(FrameRecord(t=t, attention=attention, hand=hand, touching=touching))

    planned = PlannedUnit(
        gaze_pattern=a.gaze_pattern,
        shift_kind=a.shift_kind,
        early_ratio=realized_ratio,
        lag_s=lag_frames / rate,
        gazing_reversals=planned_reversals,
        start_index=start_index,
        n_frames=n_total,
    )
    return frames, planned
