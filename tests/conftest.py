"""Shared builders for hand-crafted sessions and series."""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Sequence

import numpy as np
import pytest

from opgaze import DistanceSeries, FeatureParams, FeatureVector, FrameRecord, Hotspot, Point2, Session
from opgaze.features import feature_vector, unit_traces
from opgaze.session import OperationUnit


def frame(
    t: float,
    ax: float = 0.0,
    ay: float = 0.0,
    hx: Optional[float] = None,
    hy: Optional[float] = None,
    touch: bool = False,
) -> FrameRecord:
    hand = None if hx is None else Point2(hx, hy if hy is not None else 0.0)
    return FrameRecord(t=t, attention=Point2(ax, ay), hand=hand, touching=touch)


def frame_columns(frames: Sequence[FrameRecord]) -> dict:
    """The ``Session`` columns of per-frame records: ``Session(..., **frame_columns(frames))``."""
    return {
        "times": [f.t for f in frames],
        "attention_xy": np.reshape([(f.attention.x, f.attention.y) for f in frames], (-1, 2)),
        "hand_xy": np.reshape([(math.nan,) * 2 if f.hand is None else (f.hand.x, f.hand.y)
                               for f in frames], (-1, 2)),
        "touching_mask": [f.touching for f in frames],
    }


def make_session(
    frames: Sequence[FrameRecord],
    session_id: str = "s1",
    operator: str = "op1",
    ordinal: str = "earlier",
    rate: float = 10.0,
    step_labels=None,
) -> Session:
    return Session(
        id=session_id,
        operator=operator,
        ordinal=ordinal,
        sample_rate_hz=rate,
        step_labels=step_labels,
        **frame_columns(frames),
    )


def unit_features(
    s: Session,
    ou: OperationUnit,
    hotspot: Optional[Hotspot],
    params: FeatureParams = FeatureParams(),
) -> FeatureVector:
    """``feature_vector`` of ``ou`` traced against ``hotspot`` on its own,
    whichever hotspot its ``hotspot_id`` names; None gives the features of a
    unit without a hotspot."""
    if hotspot is None:
        return feature_vector(s, ou, None, params)
    ou = dataclasses.replace(ou, hotspot_id=hotspot.id)
    (trace,) = unit_traces(s, (ou,), {hotspot.id: hotspot}).per_unit()
    return feature_vector(s, ou, trace, params)


def series(values: Sequence[float], rate: float = 10.0, kind: str = "AO", t0: float = 0.0) -> DistanceSeries:
    times = t0 + np.arange(len(values)) / rate
    return DistanceSeries(times=times, values=np.asarray(values, dtype=float), kind=kind)


@pytest.fixture
def simple_ou_session() -> Session:
    """Hand absent 0-2 s, in sight 2-3 s, touching 3-5 s, at 10 Hz.

    Expected single unit: G=[0,2), H=[2,3), O=[3,5].
    """
    frames = []
    for i in range(51):
        t = i / 10.0
        if t < 2.0:
            frames.append(frame(t, ax=50.0 - t, ay=0.0))
        elif t < 3.0:
            frames.append(frame(t, ax=40.0 - 10 * (t - 2.0), hx=60.0 - 15 * (t - 2.0), hy=0.0))
        else:
            frames.append(frame(t, ax=5.0, hx=10.0, hy=20.0, touch=True))
    return make_session(frames)
