"""Cross-session studies on per-unit feature rows (``features.csv`` as read).

Two studies are supported:

* pairwise comparison: for operators recorded twice, the relative change
  of each feature's session mean from the earlier to the later session,
  averaged over operator pairs;
* difficulty correlation: Pearson correlation between a feature's
  per-step mean and the step's mean rated difficulty.

Rows carry None for undefined values; both studies aggregate over defined
values only and report how many contributed.

This module imports only the standard library, so the study commands run
without loading numpy.  Its sums follow numpy's pairwise summation (Higham,
SIAM J. Sci. Comput. 14(4), 1993) step by step, so every mean and
correlation has the bits that ``np.sum`` and ``np.mean`` give.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Iterable, Mapping, Optional, Sequence

from .featurerow import SCALAR_FEATURES
from .studyio import DifficultyRatings

logger = logging.getLogger(__name__)

Row = Mapping[str, object]
"""A unit's ``features.csv`` row by column name, scalars as floats or None."""

# numpy's unrolled block: at most this many values are summed in 8 lanes
_BLOCK = 128


def _pairwise(a: list[float], lo: int, n: int) -> float:
    """numpy's ``pairwise_sum`` of ``a[lo:lo + n]``, operation for operation."""
    if n < 8:
        return reduce(add, a[lo:lo + n], 0.0)
    if n <= _BLOCK:
        m = lo + n - n % 8
        # lane j starts at a[lo + j] and adds every 8th value after it, in order
        r = [reduce(add, a[lo + j:m:8]) for j in range(8)]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, a[m:lo + n], res)
    half = n // 2
    half -= half % 8
    return _pairwise(a, lo, half) + _pairwise(a, lo + half, n - half)


def pairwise_sum(values: Iterable[float]) -> float:
    """``float(np.sum(values))`` without numpy: the same bits, a NaN's sign and payload aside."""
    a = [float(v) for v in values]
    # numpy's reduction starts from its identity, so negative zeros sum to +0.0
    return 0.0 + _pairwise(a, 0, len(a))


def pairwise_mean(values: Sequence[float]) -> float:
    """``float(np.mean(values))`` of a nonempty sequence, without numpy."""
    return pairwise_sum(values) / len(values)


def pearson(x: Sequence[float], y: Sequence[float]) -> Optional[float]:
    """Pearson correlation coefficient, clamped to [-1, 1].

    None when there are fewer than three points or either input is
    constant (the coefficient is undefined there).  Raises on mismatched
    lengths.
    """
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    if len(xs) != len(ys):
        raise ValueError(f"pearson needs two equal-length vectors, got {len(xs)} and {len(ys)} values")
    if len(xs) < 3:
        return None
    mx, my = pairwise_mean(xs), pairwise_mean(ys)
    dx = [v - mx for v in xs]
    dy = [v - my for v in ys]
    sx = math.sqrt(pairwise_sum([d * d for d in dx]))
    sy = math.sqrt(pairwise_sum([d * d for d in dy]))
    if sx == 0.0 or sy == 0.0:
        return None
    r = pairwise_sum([a * b for a, b in zip(dx, dy)]) / (sx * sy)
    return max(-1.0, min(1.0, r))


def summarize_rows(group: str, rows: Sequence[Row]) -> dict[str, Optional[float]]:
    """Mean of each scalar feature over a group's unit rows (a session's, or
    a step's), keyed by feature name.

    Undefined unit values are left out of the mean; a feature undefined in
    every row gets None.  Raises on a group without rows.
    """
    if not rows:
        raise ValueError(f"{group!r} has no operation units to summarize")
    means: dict[str, Optional[float]] = {}
    for name in SCALAR_FEATURES:
        defined = [r[name] for r in rows if r.get(name) is not None]
        means[name] = pairwise_mean(defined) if defined else None
    return means


@dataclass(frozen=True)
class ComparisonRow:
    """One feature's earlier-to-later change over all pairs.

    ``mean_delta_pct`` is the mean over pairs of
    (later - earlier) / earlier * 100; ``n_later_smaller`` counts pairs
    where the later session's mean is strictly smaller.
    """

    feature: str
    mean_delta_pct: Optional[float]
    n_pairs: int
    n_later_smaller: int
    deltas_pct: tuple[float, ...] = ()


def pairwise_comparison(
    pairs: Sequence[tuple[str, Mapping[str, Optional[float]], Mapping[str, Optional[float]]]],
) -> tuple[ComparisonRow, ...]:
    """Relative earlier-to-later change of each scalar feature's session
    mean, one row per feature.

    ``pairs`` holds an ``(operator, earlier_means, later_means)`` triple
    per operator, each means as ``summarize_rows`` gives them.
    Pairs where a feature's mean is undefined in either session, or zero
    in the earlier one (no relative change exists), or whose relative
    change overflows, are skipped for that feature and logged.  A mean
    change that overflows is undefined, and logged.
    """
    rows = []
    for name in SCALAR_FEATURES:
        deltas: list[float] = []
        n_smaller = 0
        for operator, earlier, later in pairs:
            e = earlier.get(name)
            l = later.get(name)
            if e is None or l is None:
                logger.warning(
                    "pair %s: feature %s undefined in %s session, skipped",
                    operator, name, "earlier" if e is None else "later",
                )
                continue
            if e == 0.0:
                logger.warning(
                    "pair %s: feature %s is 0 in the earlier session, "
                    "relative change undefined, skipped", operator, name,
                )
                continue
            delta = (l - e) / e * 100.0
            if not math.isfinite(delta):
                logger.warning(
                    "pair %s: feature %s changes by a factor that is not finite, "
                    "relative change undefined, skipped", operator, name,
                )
                continue
            deltas.append(delta)
            if l < e:
                n_smaller += 1
        mean = pairwise_mean(deltas) if deltas else None
        if mean is not None and not math.isfinite(mean):
            logger.warning("feature %s: mean relative change is not finite, undefined", name)
            mean = None
        rows.append(ComparisonRow(
            feature=name,
            mean_delta_pct=mean,
            n_pairs=len(deltas),
            n_later_smaller=n_smaller,
            deltas_pct=tuple(deltas),
        ))
    return tuple(rows)


def step_feature_means(rows: Iterable[Row]) -> dict[str, dict[str, Optional[float]]]:
    """Per-step mean of each scalar feature over all unit rows labeled with the
    step, across sessions.  Rows without a step label are ignored."""
    by_step: dict[str, list[Row]] = {}
    for row in rows:
        if row["step_id"] is not None:
            by_step.setdefault(row["step_id"], []).append(row)
    return {step: summarize_rows(step, by_step[step]) for step in sorted(by_step)}


@dataclass(frozen=True)
class CorrelationRow:
    """One feature's correlation with rated step difficulty.

    ``r_vs_difficulty`` uses the difficulty orientation (negated score:
    higher = harder); ``r_vs_score`` the raw -5..5 scale (higher =
    easier).  Both are None when fewer than three steps have the feature
    defined or the values are constant.
    """

    feature: str
    r_vs_difficulty: Optional[float]
    r_vs_score: Optional[float]
    n_steps: int


@dataclass(frozen=True)
class CorrelationReport:
    rows: tuple[CorrelationRow, ...]
    step_ids: tuple[str, ...]


def difficulty_correlation(
    rows: Iterable[Row],
    ratings: DifficultyRatings,
    role: Optional[str] = None,
) -> CorrelationReport:
    """Correlate per-step scalar feature means with mean rated difficulty.

    ``rows`` are unit rows, grouped by their ``step_id``.  Only steps
    present in both the rows and the ratings contribute; ``step_ids`` of
    the report names them.  ``role`` restricts the ratings to one rater role.
    """
    step_means = step_feature_means(rows)
    steps = tuple(sid for sid in sorted(step_means) if sid in ratings.by_step)
    rows = []
    for name in SCALAR_FEATURES:
        xs: list[float] = []
        scores: list[float] = []
        for sid in steps:
            v = step_means[sid][name]
            if v is None or not math.isfinite(v):
                continue
            xs.append(v)
            scores.append(ratings.mean_score(sid, role))
        difficulties = [-s for s in scores]
        rows.append(CorrelationRow(
            feature=name,
            r_vs_difficulty=pearson(xs, difficulties) if len(xs) >= 3 else None,
            r_vs_score=pearson(xs, scores) if len(xs) >= 3 else None,
            n_steps=len(xs),
        ))
    return CorrelationReport(rows=tuple(rows), step_ids=steps)
