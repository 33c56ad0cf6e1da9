"""Study inputs and the file primitives they share, without numpy.

Difficulty ratings (:class:`Rating`, :class:`DifficultyRatings`) and their
``step_id,rater_id,role,score`` CSV sidecar, :class:`ParseError` for a
rejected input file, :func:`atomic_write_text` for every output, and the
one CSV writer and reader of the package.  This module imports only the
standard library, so ``compare`` and ``correlate`` run without loading
numpy.  ``opgaze.ingest`` and ``opgaze.session`` import these names from
here, and they are the same objects there.
"""

from __future__ import annotations

import csv
import io
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

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


def _cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def csv_text(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """CSV text with ``\\n`` line ends; a float cell is its repr, None empty,
    a bool ``true``/``false`` and anything else its ``str``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(v) for v in row] for row in rows)
    return buf.getvalue()


def csv_rows(stream: Iterable[str], src: str, first_line: int = 1) -> Iterator[tuple[int, list[str]]]:
    """``(line, cells)`` of each CSV row, ``line`` being the line it starts on,
    counting the stream's first as ``first_line``; a row the reader rejects
    (a cell over its size limit, say) is a ParseError on that line."""
    reader = csv.reader(stream)
    line = first_line
    try:
        for cells in reader:
            yield line, cells
            line = first_line + reader.line_num
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}", line=line, source=src) from None


def not_utf8(data: bytes, parse: Callable[[IO[str], str], object], src: str) -> ParseError:
    """The error of ``data``, bytes that are not UTF-8: that of a line before
    the first bad byte if ``parse`` finds one, else "not UTF-8" on the
    byte's line."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        bad = exc
    lines = io.TextIOWrapper(io.BytesIO(data[:bad.start]), encoding="utf-8").readlines()
    if lines and not lines[-1].endswith("\n"):
        lines.pop()  # the start of the bad line
    try:
        parse(io.StringIO("".join(lines)), src)
    except ParseError as exc:
        if exc.line is not None:
            return exc
    return ParseError(f"not UTF-8: byte 0x{data[bad.start]:02x} ({bad.reason})",
                      line=len(lines) + 1, source=src)


def parse_csv_file(path: Union[str, Path], parse: Callable[[IO[str], str], object]) -> object:
    """``parse(stream, src)`` of a CSV file read as UTF-8; for bytes that are
    not UTF-8 it raises the error :func:`not_utf8` finds."""
    src = str(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            return parse(fh, src)
        except UnicodeDecodeError:
            fh.buffer.seek(0)
            data = fh.buffer.read()
    raise not_utf8(data, parse, src)


def read_sidecar(path: Union[str, Path], columns: Sequence[str], make: Callable[..., object]) -> list:
    """``make(*cells)`` of each row, stripped, of a sidecar CSV with these
    ``columns``, skipping blank rows and a header on line 1; a row with other
    columns, or that ``make`` rejects with a ValueError, is a ParseError."""
    def parse(stream: IO[str], src: str) -> list:
        out = []
        for line, cells in csv_rows(stream, src):
            cells = [c.strip() for c in cells]
            if not any(cells) or (line == 1 and cells[0] == columns[0]):
                continue
            try:
                if len(cells) != len(columns):
                    raise ValueError(f"expected {','.join(columns)}")
                out.append(make(*cells))
            except ValueError as exc:
                raise ParseError(str(exc), line=line, source=src) from None
        return out

    return parse_csv_file(path, parse)


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


RATING_FIELDS = ("step_id", "rater_id", "role", "score")


def load_ratings(path: Union[str, Path]) -> DifficultyRatings:
    """Load a ratings CSV: ``step_id,rater_id,role,score``."""
    by_step: dict[str, list[Rating]] = {}
    rows = read_sidecar(path, RATING_FIELDS, lambda step_id, rater_id, role, score:
                        (step_id, Rating(rater_id=rater_id, role=role, score=int(score))))
    for step_id, rating in rows:
        by_step.setdefault(step_id, []).append(rating)
    if not by_step:
        raise ParseError("no ratings found", source=str(path))
    return DifficultyRatings(by_step={k: tuple(v) for k, v in by_step.items()})


def write_ratings(ratings: DifficultyRatings, path: Union[str, Path]) -> None:
    rows = ([step_id, r.rater_id, r.role, r.score]
            for step_id in ratings.step_ids() for r in ratings.by_step[step_id])
    atomic_write_text(path, csv_text(RATING_FIELDS, rows))
