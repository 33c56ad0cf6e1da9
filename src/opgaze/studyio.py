"""Study inputs and the file primitives they share, without numpy.

Difficulty ratings (:class:`Rating`, :class:`DifficultyRatings`) and their
``step_id,rater_id,role,score`` CSV sidecar, :class:`ParseError` for a
rejected input file, :func:`atomic_write_text` for every output, the one
text opener (:func:`open_text`) and its check for bytes that are not UTF-8
(:func:`check_line`, on each line as it is read), the one CSV reader
(``opgaze.ingest`` decodes plain session frame text with orjson, and
reads any other through it) and its CSV writer (``analyze`` writes its
trace files itself, as no cell needs quoting), the one JSON file reader, and :func:`check_fields`,
which checks a JSON object against the fields of a config section or a
cohort spec.  This module imports only the standard library, so
``compare`` and ``correlate`` run without loading numpy.  ``opgaze.ingest``
and ``opgaze.session`` import these names from here, and they are the
same objects there.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import re
import tempfile
from dataclasses import dataclass, fields
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

Source = Union[str, Path, IO[str], IO[bytes]]

RATER_ROLES = ("expert", "beginner")

SCORE_MIN = -5
SCORE_MAX = 5


# declared type of a config or spec field -> the JSON values it takes, their
# name, and the declared type of their items; a number is never a bool, NaN or
# an infinity (Python's json reads the last two as floats)
FIELD_TYPES = {
    "float": ((int, float), "a finite number", None),
    "Optional[float]": ((int, float, type(None)), "a finite number or null", None),
    "int": ((int,), "an integer", None),
    "tuple[int, ...]": ((list,), "a list of integers", "int"),
    "Mapping[str, float]": ((dict,), "an object of finite numbers", "float"),
}


def check_fields(data: Mapping[str, object], cls: type, what: str, prefix: str = "") -> None:
    """Check the JSON object ``data`` against the fields of the dataclass ``cls``.

    A key that is not a field is rejected as an unknown ``what`` key, and a
    value must have its field's declared type, a key of :data:`FIELD_TYPES`;
    the ValueError names the value ``prefix`` + key.
    """
    declared = {f.name: f.type for f in fields(cls)}
    unknown = set(data) - set(declared)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    for key, value in data.items():
        if not _fits(value, declared[key]):
            raise ValueError(f"{prefix}{key} must be {FIELD_TYPES[declared[key]][1]}, got {value!r}")


def _fits(value: object, declared: str) -> bool:
    kinds, _, item = FIELD_TYPES[declared]
    if type(value) not in kinds or (type(value) is float and not math.isfinite(value)):
        return False
    return item is None or all(_fits(v, item) for v in (value.values() if type(value) is dict else value))


class ParseError(ValueError):
    """A rejected input file ``source``, on ``line`` where the fault has one."""

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


def open_text(source: Source, newline: Optional[str] = "") -> tuple[IO[str], str]:
    """A text stream of ``source``, a path (streamed) or an open stream (read
    whole), and the name its errors give it.  Bytes are decoded as UTF-8 with
    the ``surrogateescape`` handler, for :func:`check_line`; ``\\n``,
    ``\\r\\n`` and ``\\r`` end a line.  With the default ``newline``
    they are kept, as the csv module needs; with None each reads as ``\\n``,
    which is faster to split."""
    if isinstance(source, (str, Path)):
        return open(source, encoding="utf-8", errors="surrogateescape", newline=newline), str(source)
    text = source.read()
    if isinstance(text, bytes):
        text = text.decode("utf-8", "surrogateescape")
    return io.StringIO(text, newline=newline), str(getattr(source, "name", "stream"))


# what the surrogateescape handler makes of a byte that is not UTF-8
_ESCAPED = re.compile("[\udc80-\udcff]")


def check_line(line: str, lineno: int, src: str) -> str:
    """``line``, read by :func:`open_text`; if it holds a byte that is not
    UTF-8, the ParseError ``not UTF-8: byte 0x.. (reason)`` on ``lineno``,
    where a strict decoder finds it."""
    if line.isascii() or not _ESCAPED.search(line):
        return line
    try:
        line.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: byte 0x{exc.object[exc.start]:02x} ({exc.reason})",
                         line=lineno, source=src) from None
    return line


def csv_rows(stream: Iterable[str], src: str, first_line: int = 1) -> Iterator[tuple[int, list[str]]]:
    """``(line, cells)`` of each CSV row, ``line`` being the line it starts on,
    counting the stream's first as ``first_line``; a row the reader rejects
    (a cell over its size limit, say) is a ParseError on that line.  Each
    line goes through :func:`check_line` before the reader takes it in."""
    reader = csv.reader(map(check_line, stream, itertools.count(first_line), itertools.repeat(src)))
    line = first_line
    try:
        for cells in reader:
            yield line, cells
            line = first_line + reader.line_num
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}", line=line, source=src) from None


def json_error(exc: Exception) -> str:
    """The message of JSON text that does not decode; a ValueError is also an
    integer past Python's digit limit."""
    return "nested too deeply" if isinstance(exc, RecursionError) else getattr(exc, "msg", str(exc))


def read_json(path: Union[str, Path]) -> object:
    """The value of a JSON file read as UTF-8.  Bytes that are not UTF-8,
    or text that is not JSON (nesting past the recursion limit included), are
    a ParseError naming the file, on the line where the decoder gives one."""
    src = str(path)
    data = Path(path).read_bytes()
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})",
                         line=data.count(b"\n", 0, exc.start) + 1, source=src) from None
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"malformed JSON: {json_error(exc)}", line=getattr(exc, "lineno", None),
                         source=src) from None


def read_sidecar(path: Union[str, Path], columns: Sequence[str], make: Callable[..., object]) -> list:
    """``make(line, *cells)`` of each row of a sidecar CSV with these
    ``columns``, its cells stripped and ``line`` the line it starts on,
    skipping blank rows and a header on line 1.  A row with other columns,
    or that ``make`` rejects with a ValueError, is a ParseError on its line;
    ``make`` checks a row against the earlier ones itself."""
    out: list = []
    stream, src = open_text(path)
    with stream:
        for line, cells in csv_rows(stream, src):
            cells = [c.strip() for c in cells]
            if not any(cells) or (line == 1 and cells[0] == columns[0]):
                continue
            try:
                if len(cells) != len(columns):
                    raise ValueError(f"expected {','.join(columns)}")
                out.append(make(line, *cells))
            except ValueError as exc:
                raise ParseError(str(exc), line=line, source=src) from None
    return out


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


RATING_FIELDS = ("step_id", "rater_id", "role", "score")


def load_ratings(path: Union[str, Path]) -> DifficultyRatings:
    """Load a ratings CSV: ``step_id,rater_id,role,score``; a rater who
    scores a step twice, which would count twice in its mean, is an error
    on the second line."""
    first_line: dict[tuple[str, str], int] = {}

    def make(line: int, step_id: str, rater_id: str, role: str, score: str) -> tuple[str, Rating]:
        rating = Rating(rater_id=rater_id, role=role, score=int(score))
        first = first_line.setdefault((step_id, rater_id), line)
        if first != line:
            raise ValueError(f"rater {rater_id!r} scores step {step_id!r} twice: first on line {first}")
        return step_id, rating

    by_step: dict[str, list[Rating]] = {}
    for step_id, rating in read_sidecar(path, RATING_FIELDS, make):
        by_step.setdefault(step_id, []).append(rating)
    if not by_step:
        raise ParseError("no ratings found", source=str(path))
    return DifficultyRatings(by_step={k: tuple(v) for k, v in by_step.items()})


def write_ratings(ratings: DifficultyRatings, path: Union[str, Path]) -> None:
    rows = ([step_id, r.rater_id, r.role, r.score]
            for step_id in ratings.step_ids() for r in ratings.by_step[step_id])
    atomic_write_text(path, csv_text(RATING_FIELDS, rows))
