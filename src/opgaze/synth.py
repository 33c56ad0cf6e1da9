"""Seeded synthetic recordings with known ground truth.

Real paired recordings are unavailable, so validation runs on generated
sessions whose behavioral structure is planned: each operation unit is
built from an :class:`ArchetypeSpec` that fixes the gazing pattern
(search / shift), the shift kind (early / non-early), the period
durations, and the attention-lead lag.  A cohort of operator pairs with
known injected earlier-to-later deltas and a known step-difficulty
dependence then serves as the oracle for the two studies.

All randomness flows from explicit seeds; per-session RNG streams are
derived from (seed, session id), so generation order and parallelism
never change the output.

Trace construction, per unit (all distances realized as positions on a
seeded ray from the unit's hotspot):

* gazing: attention holds a far distance; the search archetype oscillates
  it sinusoidally below that level, shift keeps it flat.  The hand is out
  of sight.
* approaching: the attention-hotspot distance ramps linearly down to a
  near level and stays there; the hand appears at the period start and
  follows the same sampled ramp delayed by the spec's lag, which makes
  the lag recoverable exactly.
* operating: contact frames at the hotspot; for the early archetype the
  attention-hotspot distance ends with a strictly increasing run whose
  planned share of the operating period is the spec's early ratio.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .featurerow import GAZE_PATTERNS
from .features import count_sign_changes, sign_series
from .ingest import atomic_write_text, write_ratings, write_session, write_step_labels
from .session import (
    SCORE_MAX,
    SCORE_MIN,
    DifficultyRatings,
    Point2,
    Rating,
    Session,
    StepLabel,
)
from .studyio import check_fields

DEFAULT_SAMPLE_RATE_HZ = 30.0

# 15-step difficulty profile on the -5 (most difficult) .. 5 (easiest)
# scale; zero-sum with a wide spread.
DEFAULT_STEP_SCORES = (-5, -4, -3, -3, -2, -1, -1, 0, 1, 1, 2, 3, 3, 4, 5)

# Earlier-to-later percentage changes applied to the later session of each
# pair (durations multiplicatively, the early-shift ratio on its value).
DEFAULT_INJECTED = {
    "dur_gazing": -45.0,
    "dur_approaching": -32.0,
    "dur_operating": -20.0,
    "early_shift_ratio": 6.1,
}
INJECTABLE = frozenset(DEFAULT_INJECTED)


def oscillation_cycles(reversals: int) -> float:
    """Cycles per gazing period that yield exactly ``reversals`` direction
    changes of the sampled sinusoid (extrema strictly inside the period)."""
    if reversals < 1:
        raise ValueError("reversals must be >= 1")
    return (reversals + 0.4) / 2.0


@dataclass(frozen=True)
class ArchetypeSpec:
    """Recipe for one operation unit's trace.

    ``early_ratio`` is the planned trailing-increase share of the
    operating period (0 for the non-early archetype); ``lag_s`` the
    planned attention lead over the hand.  ``oscillation_freq_hz`` and
    ``oscillation_amp`` shape the search archetype's gazing sinusoid;
    ``approach_speed`` the linear ramp from ``far_dist`` down to
    ``near_dist``; ``operating_slope`` the per-sample rise of the trailing
    run.  ``noise_sigma`` adds Gaussian jitter to every distance sample.
    """

    gaze_pattern: str = "search"
    shift_kind: str = "non-early"
    dur_gazing: float = 2.0
    dur_approaching: float = 2.5
    dur_operating: float = 3.0
    oscillation_freq_hz: float = 2.1
    oscillation_amp: float = 10.0
    approach_speed: float = 38.0
    noise_sigma: float = 0.0
    hotspot: Point2 = field(default_factory=lambda: Point2(50.0, 50.0))
    lag_s: float = 0.2
    early_ratio: float = 0.0
    far_dist: float = 60.0
    near_dist: float = 3.0
    operating_slope: float = 1.0

    def __post_init__(self) -> None:
        if self.gaze_pattern not in GAZE_PATTERNS:
            raise ValueError(f"gaze_pattern must be one of {GAZE_PATTERNS}")
        if self.shift_kind not in ("early", "non-early"):
            raise ValueError("shift_kind must be 'early' or 'non-early'")
        for name in ("dur_gazing", "dur_approaching", "dur_operating"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.lag_s < 0:
            raise ValueError("lag_s must be >= 0")
        if not 0.0 <= self.early_ratio < 1.0:
            raise ValueError("early_ratio must be in [0, 1)")
        if not self.far_dist > self.near_dist > 0:
            raise ValueError("need far_dist > near_dist > 0")
        if self.approach_speed <= 0 or self.oscillation_freq_hz <= 0:
            raise ValueError("speeds and frequencies must be positive")
        if self.oscillation_amp < 0 or self.operating_slope <= 0:
            raise ValueError("oscillation_amp >= 0 and operating_slope > 0 required")
        if self.shift_kind == "early" and self.early_ratio <= 0:
            raise ValueError("early archetype needs early_ratio > 0")


@dataclass(frozen=True)
class PlannedUnit:
    """Ground truth the generator committed to for one unit."""

    gaze_pattern: str
    shift_kind: str
    early_ratio: float
    lag_s: float
    gazing_reversals: int
    start_index: int
    n_frames: int


def generate_ou_trace(
    a: ArchetypeSpec,
    seed: Union[int, Sequence[int]],
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ,
    start_index: int = 0,
) -> tuple[dict[str, np.ndarray], PlannedUnit]:
    """The ``Session`` columns realizing one archetype, on the global
    frame grid.

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
    planned_reversals = count_sign_changes(sign_series(np.diff(d_gaze)))

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
    d_hand = np.concatenate([np.full(lag_frames, a.far_dist), d_app[:n_h - lag_frames]])

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
    ray = np.array([np.cos(angle), np.sin(angle)])
    hotspot = np.array([a.hotspot.x, a.hotspot.y])
    touch_jitter = 0.25 * a.noise_sigma
    hand_o = np.full((n_o, 2), hotspot)
    if touch_jitter > 0:
        hand_o = hand_o + rng.normal(0.0, touch_jitter, (n_o, 2))

    n_total = n_g + n_h + n_o
    columns = {
        "times": (start_index + np.arange(n_total)) / rate,
        "attention_xy": hotspot + ray * d_att[:, None],
        "hand_xy": np.concatenate([np.full((n_g, 2), np.nan),
                                   hotspot + ray * d_hand[:, None], hand_o]),
        "touching_mask": np.arange(n_total) >= n_g + n_h,
    }

    planned = PlannedUnit(
        gaze_pattern=a.gaze_pattern,
        shift_kind=a.shift_kind,
        early_ratio=realized_ratio,
        lag_s=lag_frames / rate,
        gazing_reversals=planned_reversals,
        start_index=start_index,
        n_frames=n_total,
    )
    return columns, planned


@dataclass(frozen=True)
class GeneratedSession:
    """A generated session with its planned ground truth."""

    session: Session
    planned: tuple[PlannedUnit, ...]


def session_seed(seed: int, session_id: str) -> list[int]:
    """RNG seed material for one session: stable under generation order."""
    digest = hashlib.sha256(session_id.encode("utf-8")).digest()
    return [seed, int.from_bytes(digest[:8], "big")]


def generate_session(
    session_id: str,
    operator: str,
    ordinal: str,
    archetypes: Sequence[ArchetypeSpec],
    seed: int,
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ,
    step_ids: Optional[Sequence[str]] = None,
) -> GeneratedSession:
    """Concatenate one unit per archetype into a session; optional step
    labels cover each unit's span."""
    if not archetypes:
        raise ValueError("need at least one archetype")
    if step_ids is not None and len(step_ids) != len(archetypes):
        raise ValueError("step_ids must align with archetypes")
    base = session_seed(seed, session_id)
    units: list[dict[str, np.ndarray]] = []
    planned: list[PlannedUnit] = []
    labels: list[StepLabel] = []
    start_index = 0
    for i, spec in enumerate(archetypes):
        ou_columns, ou_planned = generate_ou_trace(
            spec, base + [i], sample_rate_hz, start_index
        )
        units.append(ou_columns)
        planned.append(ou_planned)
        if step_ids is not None:
            labels.append(StepLabel(
                start_t=start_index / sample_rate_hz,
                end_t=(start_index + ou_planned.n_frames) / sample_rate_hz,
                step_id=step_ids[i],
            ))
        start_index += ou_planned.n_frames
    session = Session(
        id=session_id,
        operator=operator,
        ordinal=ordinal,
        sample_rate_hz=sample_rate_hz,
        step_labels=tuple(labels) if labels else None,
        **{name: np.concatenate([u[name] for u in units]) for name in units[0]},
    )
    return GeneratedSession(session=session, planned=tuple(planned))


@dataclass(frozen=True)
class CohortSpec:
    """Plan for a paired cohort with injected effects.

    ``injected`` maps feature names to earlier-to-later percentage
    changes; ``injected_reversals`` shifts the later gazing reversal count
    additively.  ``approaching_slope`` couples the approaching duration
    linearly to step difficulty (the negated score); the gazing duration
    gets a seeded wiggle constructed uncorrelated with difficulty, making
    it the designated null feature.  The seed is mandatory: there is no
    ambient randomness.
    """

    seed: int
    n_pairs: int = 20
    step_scores: tuple[int, ...] = DEFAULT_STEP_SCORES
    base_dur_gazing: float = 2.0
    base_dur_approaching: float = 2.5
    base_dur_operating: float = 3.0
    approaching_slope: float = 0.12
    gazing_jitter: float = 0.25
    base_early_ratio: float = 0.663
    gazing_reversals: int = 8
    injected: Mapping[str, float] = field(default_factory=lambda: dict(DEFAULT_INJECTED))
    injected_reversals: int = -1
    lag_s: float = 0.2
    lag_later_s: Optional[float] = None
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ
    noise_sigma: float = 0.0
    n_expert_raters: int = 3
    n_beginner_raters: int = 3

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.n_pairs < 1:
            raise ValueError("n_pairs must be >= 1")
        if not self.step_scores:
            raise ValueError("step_scores must be nonempty")
        for score in self.step_scores:
            if not SCORE_MIN <= score <= SCORE_MAX:
                raise ValueError(f"step score {score} outside [{SCORE_MIN}, {SCORE_MAX}]")
        unknown = set(self.injected) - INJECTABLE
        if unknown:
            raise ValueError(f"injected deltas for unknown features: {sorted(unknown)}")
        for name, pct in self.injected.items():
            if pct <= -100.0:
                raise ValueError(f"injected delta for {name} must be > -100%")
        if not 0.0 < self.base_early_ratio < 1.0:
            raise ValueError("base_early_ratio must be in (0, 1)")
        if self.gazing_reversals + self.injected_reversals < 1:
            raise ValueError("later reversal count would drop below 1")
        if self.n_expert_raters < 1 or self.n_beginner_raters < 1:
            raise ValueError("need at least one rater per role")
        rate = self.sample_rate_hz
        if not rate > 0:
            raise ValueError(f"sample_rate_hz must be positive, got {rate!r}")
        # each period's frame count is rounded to an int; an inf or NaN count
        # fails the comparison as well
        with np.errstate(all="ignore"):
            counts = _period_frames(self)
        if not all((np.abs(n) < 2.0 ** 63).all() for n in counts):
            raise ValueError(f"sample_rate_hz gives frame counts too large for an int: {rate!r}")
        # the later sessions scale the earlier sessions' rounded counts
        for name, n in zip(("dur_gazing", "dur_approaching", "dur_operating"), counts):
            with np.errstate(all="ignore"):
                later = np.round(np.round(n) * self.factor(name))
            if not (np.abs(later) < 2.0 ** 63).all():
                raise ValueError(f"injected.{name} gives frame counts too large for an int: "
                                 f"{self.injected[name]!r}")

    @property
    def n_steps(self) -> int:
        return len(self.step_scores)

    def factor(self, feature: str) -> float:
        return 1.0 + self.injected.get(feature, 0.0) / 100.0


@dataclass(frozen=True)
class PairRef:
    operator: str
    earlier_id: str
    later_id: str


@dataclass(frozen=True)
class Cohort:
    spec: CohortSpec
    sessions: tuple[GeneratedSession, ...]
    pairs: tuple[PairRef, ...]
    ratings: DifficultyRatings
    step_ids: tuple[str, ...]


def _period_frames(c: CohortSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-step gazing, approaching and operating frame counts for the
    earlier sessions, before rounding.

    Approaching follows difficulty linearly; gazing gets a wiggle
    orthogonalized against difficulty so its sample correlation with the
    true difficulty is exactly zero (the null feature).
    """
    rate = c.sample_rate_hz
    difficulty = -np.asarray(c.step_scores, dtype=float)
    rng = np.random.default_rng([c.seed, 1])
    wiggle = rng.uniform(-c.gazing_jitter, c.gazing_jitter, c.n_steps)
    wiggle -= wiggle.mean()
    centered = difficulty - difficulty.mean()
    norm_sq = float(centered @ centered)
    if norm_sq > 0:
        wiggle -= (float(wiggle @ centered) / norm_sq) * centered
    return (rate * (c.base_dur_gazing + wiggle),
            rate * (c.base_dur_approaching + c.approaching_slope * difficulty),
            rate * np.full(c.n_steps, c.base_dur_operating))


def _step_geometry(c: CohortSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frame-aligned per-step durations for the earlier sessions."""
    n_g, n_h, n_o = (np.round(n).astype(int) for n in _period_frames(c))
    if (n_g < 1).any() or (n_o < 2).any():
        raise ValueError("cohort durations too short at this sample rate")
    return n_g, n_h, n_o


def _hotspot_layout(n: int) -> list[Point2]:
    cols = int(np.ceil(np.sqrt(n)))
    spacing = 75.0 / max(cols - 1, 1) if cols > 1 else 0.0
    return [
        Point2(12.5 + spacing * (i % cols), 12.5 + spacing * (i // cols))
        for i in range(n)
    ]


def _cohort_archetypes(c: CohortSpec, ordinal: str) -> list[ArchetypeSpec]:
    """One archetype per step for an earlier or later session."""
    rate = c.sample_rate_hz
    n_g, n_h, n_o = _step_geometry(c)
    if ordinal == "later":
        n_g = np.maximum(1, np.round(n_g * c.factor("dur_gazing")).astype(int))
        n_h = np.maximum(2, np.round(n_h * c.factor("dur_approaching")).astype(int))
        n_o = np.maximum(2, np.round(n_o * c.factor("dur_operating")).astype(int))
        reversals = c.gazing_reversals + c.injected_reversals
        lag = c.lag_s if c.lag_later_s is None else c.lag_later_s
    else:
        reversals = c.gazing_reversals
        lag = c.lag_s
    # the early ratio the earlier sessions realize after frame rounding
    n_o_e = round(rate * c.base_dur_operating)
    realized_base = round(c.base_early_ratio * (n_o_e - 1)) / (n_o_e - 1)
    ratio = realized_base * (c.factor("early_shift_ratio") if ordinal == "later" else 1.0)
    hotspots = _hotspot_layout(c.n_steps)
    cycles = oscillation_cycles(reversals)
    specs = []
    for i in range(c.n_steps):
        dur_g = n_g[i] / rate
        specs.append(ArchetypeSpec(
            gaze_pattern="search",
            shift_kind="early",
            dur_gazing=dur_g,
            dur_approaching=n_h[i] / rate,
            dur_operating=n_o[i] / rate,
            oscillation_freq_hz=cycles / dur_g,
            noise_sigma=c.noise_sigma,
            hotspot=hotspots[i],
            lag_s=lag,
            early_ratio=min(ratio, 0.97),
        ))
    return specs


def generate_cohort(c: CohortSpec) -> Cohort:
    """All sessions, pair references, and ratings for a cohort plan."""
    step_ids = tuple(f"step_{i + 1:02d}" for i in range(c.n_steps))
    earlier_specs = _cohort_archetypes(c, "earlier")
    later_specs = _cohort_archetypes(c, "later")
    sessions: list[GeneratedSession] = []
    pairs: list[PairRef] = []
    for p in range(c.n_pairs):
        operator = f"op{p + 1:02d}"
        for ordinal, specs in (("earlier", earlier_specs), ("later", later_specs)):
            sid = f"{operator}_{ordinal}"
            sessions.append(generate_session(
                sid, operator, ordinal, specs, c.seed, c.sample_rate_hz, step_ids
            ))
        pairs.append(PairRef(operator, f"{operator}_earlier", f"{operator}_later"))

    rng = np.random.default_rng([c.seed, 2])
    rater_roles = [("expert", i + 1) for i in range(c.n_expert_raters)]
    rater_roles += [("beginner", i + 1) for i in range(c.n_beginner_raters)]
    by_step: dict[str, tuple[Rating, ...]] = {}
    for i, sid in enumerate(step_ids):
        ratings = []
        for role, idx in rater_roles:
            jitter = int(rng.integers(-1, 2))
            score = int(np.clip(c.step_scores[i] + jitter, SCORE_MIN, SCORE_MAX))
            ratings.append(Rating(rater_id=f"{role[0]}{idx:02d}", role=role, score=score))
        by_step[sid] = tuple(ratings)

    return Cohort(
        spec=c,
        sessions=tuple(sessions),
        pairs=tuple(pairs),
        ratings=DifficultyRatings(by_step=by_step),
        step_ids=step_ids,
    )


def write_cohort(cohort: Cohort, out_dir: Union[str, Path], format: str = "jsonl") -> dict[str, Path]:
    """Write a cohort in the ingest wire formats.

    Layout: ``sessions/<id>.<fmt>`` plus ``sessions/<id>.steps.csv``
    sidecars, ``pairs.json``, and ``ratings.csv``.  Deterministic bytes
    for a given cohort.
    """
    out = Path(out_dir)
    session_dir = out / "sessions"
    session_dir.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    for gen in sorted(cohort.sessions, key=lambda g: g.session.id):
        sid = gen.session.id
        spath = session_dir / f"{sid}.{format}"
        write_session(gen.session, spath, format=format)
        paths[sid] = spath
        if gen.session.step_labels:
            write_step_labels(gen.session.step_labels, session_dir / f"{sid}.steps.csv")
    manifest = {
        "pairs": [
            {"operator": p.operator, "earlier": p.earlier_id, "later": p.later_id}
            for p in sorted(cohort.pairs, key=lambda p: p.operator)
        ]
    }
    paths["pairs"] = out / "pairs.json"
    atomic_write_text(paths["pairs"], json.dumps(manifest, indent=2) + "\n")
    paths["ratings"] = out / "ratings.csv"
    write_ratings(cohort.ratings, paths["ratings"])
    return paths


CLASSIFICATION_COMBOS = (
    ("search", "early"),
    ("search", "non-early"),
    ("shift", "early"),
    ("shift", "non-early"),
)


def generate_classification_set(
    seed: int,
    n_per_combo: int = 50,
    sample_rate_hz: float = 10.0,
    noise_sigma: float = 0.0,
) -> tuple[GeneratedSession, ...]:
    """Four sessions, one per archetype combination, for classifier
    accuracy checks.

    The geometry is sized so the planned signs survive a per-sample
    deadband of a few noise standard deviations: steep trailing run,
    wide oscillation, gentle everything else.  The trailing rise stays
    below far_dist, keeping the scene inside the far-distance square.
    """
    base = ArchetypeSpec(
        dur_gazing=2.0,
        dur_approaching=2.5,
        dur_operating=1.2,
        oscillation_freq_hz=oscillation_cycles(8) / 2.0,
        oscillation_amp=30.0,
        approach_speed=64.0,
        noise_sigma=noise_sigma,
        hotspot=Point2(5.0, 5.0),
        lag_s=0.2,
        far_dist=100.0,
        near_dist=4.0,
        operating_slope=22.0,
    )
    sessions = []
    for pattern, kind in CLASSIFICATION_COMBOS:
        spec = replace(
            base,
            gaze_pattern=pattern,
            shift_kind=kind,
            early_ratio=0.28 if kind == "early" else 0.0,
        )
        sid = f"cls_{pattern}_{kind.replace('-', '_')}"
        sessions.append(generate_session(
            sid, "cls", "earlier", [spec] * n_per_combo, seed, sample_rate_hz
        ))
    return tuple(sessions)


def cohort_spec_from_dict(data: Mapping[str, object], seed_override: Optional[int] = None) -> CohortSpec:
    """Build a CohortSpec from a parsed spec file; unknown keys rejected.

    ``seed_override`` (from the command line) wins over the file's seed;
    one of the two must be present.  A value must have its field's declared
    type, as a config value must (``studyio.check_fields``).
    """
    check_fields(data, CohortSpec, "cohort spec")
    kwargs = dict(data)
    if seed_override is not None:
        kwargs["seed"] = seed_override
    if "seed" not in kwargs:
        raise ValueError("cohort spec needs a seed (file key or --seed)")
    if "step_scores" in kwargs:
        kwargs["step_scores"] = tuple(kwargs["step_scores"])  # type: ignore[arg-type]
    if "injected" in kwargs:
        kwargs["injected"] = {k: float(v) for k, v in kwargs["injected"].items()}  # type: ignore[union-attr]
    return CohortSpec(**kwargs)  # type: ignore[arg-type]
