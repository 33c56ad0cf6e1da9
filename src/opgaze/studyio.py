"""Study inputs and the file primitives they share, without numpy.

Difficulty ratings (:class:`Rating`, :class:`DifficultyRatings`) and their
``step_id,rater_id,role,score`` CSV sidecar, :class:`ParseError` for a
rejected input file, and :func:`atomic_write_text` for every output.  This
module imports only the standard library, so ``compare`` and ``correlate``
run without loading numpy.  ``opgaze.ingest`` and ``opgaze.session``
import these names from here, and they are the same objects there.
"""

from __future__ import annotations

import csv
import io
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Union

RATER_ROLES = ("expert", "beginner")

SCORE_MIN = -5
SCORE_MAX = 5


class ParseError(ValueError):
    """A session file that cannot be turned into a Session."""

    def __init__(self, message: str, *, line: Optional[int] = None, source: str = "") -> None:
        self.line = line
        self.source = source
        where = f"{source or 'stream'}"
        if line is not None:
            where += f":{line}"
        super().__init__(f"{where}: {message}")


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Write a file atomically: temp file in the same directory, then rename.

    Readers never observe a half-written file, and rerunning a command
    overwrites outputs in one step.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


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


def load_ratings(path: Union[str, Path]) -> DifficultyRatings:
    """Load a ratings CSV: ``step_id,rater_id,role,score``."""
    path = Path(path)
    by_step: dict[str, list[Rating]] = {}
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            if lineno == 1 and row[0].strip() == "step_id":
                continue
            if len(row) != 4:
                raise ParseError("expected step_id,rater_id,role,score", line=lineno, source=str(path))
            step_id, rater_id, role, score = (c.strip() for c in row)
            try:
                rating = Rating(rater_id=rater_id, role=role, score=int(score))
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno, source=str(path))
            by_step.setdefault(step_id, []).append(rating)
    if not by_step:
        raise ParseError("no ratings found", source=str(path))
    return DifficultyRatings(by_step={k: tuple(v) for k, v in by_step.items()})


def write_ratings(ratings: DifficultyRatings, path: Union[str, Path]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["step_id", "rater_id", "role", "score"])
    for step_id in ratings.step_ids():
        for r in ratings.by_step[step_id]:
            writer.writerow([step_id, r.rater_id, r.role, str(r.score)])
    atomic_write_text(path, buf.getvalue())
