"""Seeded benchmark workloads built through ``opgaze.synth``'s public API.

Each workload is a cohort spec, a session file format and an ``analyze
--jobs`` value.  Generation writes ordinary session files, sidecars,
``pairs.json`` and ``ratings.csv``; the program under test only ever sees
those files.  Generation happens before any timing starts.
"""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path

from opgaze import synth


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    spec: dict
    format: str
    jobs: int


# Why each workload is in the benchmark is recorded in BENCHMARK.json.  Sizes
# are for seed 7; other seeds move frame counts by a few frames (gazing
# durations carry a seeded wiggle) and leave touches and units as they are.
WORKLOADS = {
    w.name: w
    for w in (
        # 16 sessions, 45,712 frames, 19,440 touches, 240 units.
        Workload("cohort", {"n_pairs": 8}, "jsonl", 1),
        # 4 sessions, 45,722 frames, 19,440 touches, 60 units: the touches of
        # `cohort`, with 4x as many inside each 3-s clustering window.
        Workload("dense_touch", {"n_pairs": 2, "sample_rate_hz": 120.0}, "csv", 1),
        # 32 sessions, 59,024 frames, 6,480 touches, 480 units.
        Workload("many_units", {"n_pairs": 16, "base_dur_operating": 0.5}, "jsonl", 2),
    )
}


@dataclasses.dataclass(frozen=True)
class Inputs:
    """Generated files plus what the generator planned for them."""

    root: Path
    sessions_dir: Path
    pairs: Path
    ratings: Path
    n_pairs: int
    step_ids: tuple[str, ...]
    planned_units: dict[str, int]
    frames: int
    touches: int
    input_bytes: int

    @property
    def n_sessions(self) -> int:
        return len(self.planned_units)

    @property
    def n_units(self) -> int:
        return sum(self.planned_units.values())


def generate(workload: Workload, seed: int, root: Path) -> Inputs:
    """Write the workload's cohort for ``seed`` under ``root``."""
    spec = synth.cohort_spec_from_dict(workload.spec, seed_override=seed)
    cohort = synth.generate_cohort(spec)
    paths = synth.write_cohort(cohort, root, format=workload.format)
    sessions_dir = root / "sessions"
    sessions = [g.session for g in cohort.sessions]
    return Inputs(
        root=root,
        sessions_dir=sessions_dir,
        pairs=paths["pairs"],
        ratings=paths["ratings"],
        n_pairs=spec.n_pairs,
        step_ids=cohort.step_ids,
        planned_units={g.session.id: len(g.planned) for g in cohort.sessions},
        frames=sum(len(s.frames) for s in sessions),
        touches=sum(int(s.touching_mask.sum()) for s in sessions),
        input_bytes=sum(os.path.getsize(p) for p in sessions_dir.iterdir()),
    )
