"""Parse, validate, and serialize session files.

Two wire formats carry the same field set.  JSONL is canonical: a header
object on line 1 followed by one frame object per line::

    {"id": "s1", "operator": "op1", "ordinal": "earlier", "rate_hz": 30.0, "coord_frame": "scene"}
    {"t": 0.0, "ax": 12.0, "ay": 3.5, "hx": null, "hy": null, "touch": false}

CSV (for spreadsheet-born data) carries the identical header object in a
leading ``#`` comment line, then columns ``t,ax,ay,hx,hy,touch`` with empty
``hx``/``hy`` cells for an out-of-sight hand.  A missing hand is always an
explicit null / empty cell, never (0, 0).

Sidecars: step labels as ``start_t,end_t,step_id`` CSV and difficulty
ratings as ``step_id,rater_id,role,score`` CSV.

Frames are parsed straight into the Session's columns.  Rejected inputs
never produce a Session: any malformed line (bytes that are not UTF-8, JSON
nested past the recursion limit and a CSV cell over the field size limit
included), duplicate or non-monotonic timestamp, contact-without-hand
frame, or non-finite value (an integer too large for a float included)
raises :class:`ParseError` with the number of the earliest offending line,
as a line-by-line check would.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import operator
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .session import ORDINALS, DifficultyRatings, Rating, Session, StepLabel

JSONL = "jsonl"
CSV = "csv"
FORMATS = (JSONL, CSV)

FRAME_FIELDS = ("t", "ax", "ay", "hx", "hy", "touch")
HEADER_FIELDS = ("id", "operator", "ordinal", "rate_hz", "coord_frame")

Source = Union[str, Path, IO[str], IO[bytes]]


class ParseError(ValueError):
    """A session file that cannot be turned into a Session."""

    def __init__(self, message: str, *, line: Optional[int] = None, source: str = "") -> None:
        self.line = line
        self.source = source
        where = f"{source or 'stream'}"
        if line is not None:
            where += f":{line}"
        super().__init__(f"{where}: {message}")


@dataclass
class ValidationReport:
    """Outcome of checking one parsed session: sampling warnings, which
    never block downstream use, and summary stats."""

    session_id: str
    warnings: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        # a session that parsed has no errors; the key keeps every report
        # entry, parse failures included, in one shape
        return {
            "session_id": self.session_id,
            "errors": [],
            "warnings": list(self.warnings),
            "stats": dict(self.stats),
        }


def _open_text(source: Source) -> tuple[IO[str], str]:
    if isinstance(source, (str, Path)):
        path = Path(source)
        return path.open("r", encoding="utf-8"), str(path)
    name = getattr(source, "name", "stream")
    data = source.read()
    if isinstance(data, bytes):  # decoded as a file's bytes are
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), str(name)
    return io.StringIO(data), str(name)


def _not_utf8(data: bytes, parse: Callable, src: str) -> ParseError:
    """The error for bytes that are not UTF-8: that of a line before the
    first bad byte if there is one, else "not UTF-8" on the byte's line."""
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


def _as_float(value: object) -> Optional[float]:
    """``float(value)``; None when it is not a number, inf when it overflows."""
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None
    except OverflowError:  # an int too large for a float
        return math.inf


def _not_finite(value: object, what: str) -> str:
    return f"{what} is not {'a number' if _as_float(value) is None else 'finite'}: {value!r}"


def _finite(value: object, what: str, lineno: int, src: str) -> float:
    out = _as_float(value)
    if out is None or not math.isfinite(out):
        raise ParseError(_not_finite(value, what), line=lineno, source=src)
    return out


def _floats(values: Sequence[object], absent: Optional[np.ndarray] = None) -> np.ndarray:
    """``float()`` of each value as an array; NaN where it is absent or not a number."""
    if absent is not None and absent.any():
        out = np.full(len(values), np.nan)
        out[~absent] = _floats(list(itertools.compress(values, (~absent).tolist())))
        return out
    try:
        return np.fromiter(map(float, values), dtype=float, count=len(values))
    except (TypeError, ValueError, OverflowError):
        return np.array([_as_float(v) for v in values], dtype=float)  # None -> NaN


def _parse_header(obj: dict, lineno: int, src: str) -> dict:
    if not isinstance(obj, dict):
        raise ParseError("session header must be an object", line=lineno, source=src)
    missing = [k for k in HEADER_FIELDS if k not in obj]
    if missing:
        raise ParseError(f"session header missing fields: {missing}", line=lineno, source=src)
    if obj["ordinal"] not in ORDINALS:
        raise ParseError(
            f"ordinal must be one of {ORDINALS}, got {obj['ordinal']!r}", line=lineno, source=src
        )
    rate = _finite(obj["rate_hz"], "rate_hz", lineno, src)
    if rate <= 0:
        raise ParseError(f"rate_hz must be positive, got {rate}", line=lineno, source=src)
    session_id = str(obj["id"])
    # the id names the session's output directory, which must stay under --out
    if session_id in ("", ".", "..") or any(c in session_id for c in "/\\\0"):
        raise ParseError(f"session id {session_id!r} is not a valid file name",
                         line=lineno, source=src)
    return {
        "id": session_id,
        "operator": str(obj["operator"]),
        "ordinal": str(obj["ordinal"]),
        "rate_hz": rate,
        "coord_frame": str(obj["coord_frame"]),
    }


Check = tuple[np.ndarray, Callable[[int], str]]


def _columns(rows: Sequence[Sequence[object]]) -> Sequence[Sequence[object]]:
    return tuple(zip(*rows)) or ((),) * len(FRAME_FIELDS)


def _frame_columns(raw: Sequence[Sequence[object]], lines: Sequence[int], src: str,
                   *checks_before: Check) -> dict[str, np.ndarray]:
    """Check raw frame values column by column and convert them.

    ``raw`` holds the ``FRAME_FIELDS`` columns as read, with None for an
    absent hand; ``lines`` the line of each frame.  A check is a mask over
    all frames and the error message for one frame; each line is checked in
    list order.  Returns the Session columns.
    """
    t_raw, ax_raw, ay_raw, hx_raw, hy_raw, touch_raw = raw
    hx_none, hy_none = (np.array([v is None for v in col], dtype=bool) for col in (hx_raw, hy_raw))
    t, ax, ay = (_floats(col) for col in raw[:3])
    hx, hy = _floats(hx_raw, hx_none), _floats(hy_raw, hy_none)
    touch_bool = np.array([type(v) is bool for v in touch_raw], dtype=bool)
    touching = np.array([v is True for v in touch_raw], dtype=bool)
    out_of_order = np.zeros(len(t), dtype=bool)
    out_of_order[1:] = t[1:] <= t[:-1]

    def finite(values: np.ndarray, raw_col: Sequence[object], what: str, present=True) -> Check:
        return ~np.isfinite(values) & present, lambda i: _not_finite(raw_col[i], what)

    def order_message(i: int) -> str:
        cur, prev = float(t[i]), float(t[i - 1])
        return (f"duplicate timestamp t={cur}" if cur == prev
                else f"non-monotonic timestamp: t={cur} after t={prev}")

    checks = [
        *checks_before,
        finite(t, t_raw, "t"),
        (t < 0, lambda i: f"t must be >= 0, got {float(t[i])}"),
        finite(ax, ax_raw, "ax"),
        finite(ay, ay_raw, "ay"),
        (hx_none != hy_none, lambda i: "hx and hy must be null together"),
        finite(hx, hx_raw, "hx", ~hx_none),
        finite(hy, hy_raw, "hy", ~hy_none),
        (~touch_bool, lambda i: f"touch must be a boolean, got {touch_raw[i]!r}"),
        (touching & hx_none, lambda i: "contact without hand: touch=true but hand is null"),
        (out_of_order, order_message),
    ]
    bad = [int(np.argmax(mask)) for mask, _ in checks if mask.any()]
    if bad:
        i = min(bad)
        message = next(message for mask, message in checks if mask[i])
        raise ParseError(message(i), line=lines[i], source=src)
    return {"times": t, "attention_xy": np.column_stack((ax, ay)),
            "hand_xy": np.column_stack((hx, hy)), "touching_mask": touching}


def parse_session(
    source: Source,
    format: str = JSONL,
    step_labels: Optional[tuple[StepLabel, ...]] = None,
) -> Session:
    """Parse one session file (or open stream) in the given format."""
    if format not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {format!r}")
    stream, src = _open_text(source)
    parse = _parse_jsonl if format == JSONL else _parse_csv
    try:
        header, columns = parse(stream, src)
    except UnicodeDecodeError:
        stream.buffer.seek(0)
        raise _not_utf8(stream.buffer.read(), parse, src) from None
    finally:
        stream.close()
    if not len(columns["times"]):
        raise ParseError("no frames in session", source=src)
    return Session(header["id"], header["operator"], header["ordinal"],
                   sample_rate_hz=header["rate_hz"], coord_frame=header["coord_frame"],
                   step_labels=step_labels, **columns)


_FRAME_VALUES = operator.itemgetter(*FRAME_FIELDS)
_scan_json = json.JSONDecoder().scan_once


def _decode_line(line: str) -> object:
    """``json.loads`` of a stripped line, without its whitespace scans (about
    half of its time on a frame line); the same value or the same error."""
    if line.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
    try:
        obj, end = _scan_json(line, 0)
    except StopIteration as exc:
        raise json.JSONDecodeError("Expecting value", line, exc.value) from None
    if end != len(line):
        raise json.JSONDecodeError("Extra data", line, end)
    return obj


def _json_error(exc: Exception) -> str:
    """The message of a line that does not decode; a ValueError is also an
    integer past Python's digit limit."""
    return "nested too deeply" if isinstance(exc, RecursionError) else getattr(exc, "msg", str(exc))


def _parse_jsonl(stream: IO[str], src: str) -> tuple[dict, dict[str, np.ndarray]]:
    header = None
    rows: list[tuple] = []
    lines: list[int] = []
    try:
        for lineno, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = _decode_line(line)
            except (ValueError, RecursionError) as exc:
                raise ParseError(f"malformed JSON: {_json_error(exc)}", line=lineno, source=src)
            if header is None:
                header = _parse_header(obj, lineno, src)
                continue
            if not isinstance(obj, dict):
                raise ParseError("frame must be an object", line=lineno, source=src)
            try:
                rows.append(_FRAME_VALUES(obj))
            except KeyError:
                missing = [k for k in FRAME_FIELDS if k not in obj]
                raise ParseError(f"frame missing fields: {missing}", line=lineno, source=src)
            lines.append(lineno)
    except ParseError:
        _frame_columns(_columns(rows), lines, src)  # an earlier frame's error comes first
        raise
    if header is None:
        raise ParseError("empty file: missing session header", source=src)
    return header, _frame_columns(_columns(rows), lines, src)


def _parse_csv(stream: IO[str], src: str) -> tuple[dict, dict[str, np.ndarray]]:
    first = stream.readline()
    if not first:
        raise ParseError("empty file: missing session header", source=src)
    if not first.lstrip().startswith("#"):
        raise ParseError("first line must be a '#' comment carrying the session header JSON",
                         line=1, source=src)
    try:
        header_obj = json.loads(first.lstrip()[1:])
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"malformed header JSON: {_json_error(exc)}", line=1, source=src)
    header = _parse_header(header_obj, 1, src)

    reader = _csv_rows(stream, src)
    try:
        columns = next(reader)
    except StopIteration:
        raise ParseError("missing column header", source=src)
    if [c.strip() for c in columns] != list(FRAME_FIELDS):
        raise ParseError(f"column header must be {','.join(FRAME_FIELDS)}", line=2, source=src)

    rows: list[list[str]] = []
    lines: list[int] = []
    try:
        for lineno, row in enumerate(reader, start=3):
            if not any(map(str.strip, row)):
                continue
            if len(row) != len(FRAME_FIELDS):
                raise ParseError(f"expected {len(FRAME_FIELDS)} cells, got {len(row)}",
                                 line=lineno, source=src)
            rows.append(row)
            lines.append(lineno)
    except ParseError:
        _csv_frame_columns(rows, lines, src)  # an earlier frame's error comes first
        raise
    return header, _csv_frame_columns(rows, lines, src)


def _csv_rows(stream: IO[str], src: str) -> Iterator[list[str]]:
    """``csv.reader`` rows from line 2 on; a row the reader rejects, such as
    one with a cell over its field size limit, is a ParseError on its line."""
    reader = csv.reader(stream)
    lineno = 1
    try:
        for lineno, row in enumerate(reader, start=2):
            yield row
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}", line=lineno + 1, source=src) from None


def _csv_frame_columns(rows: list[list[str]], lines: list[int], src: str) -> dict[str, np.ndarray]:
    t, ax, ay, hx, hy, touch = ([cell.strip() for cell in col] for col in _columns(rows))
    touch_word = (np.array([c not in ("true", "false") for c in touch], dtype=bool),
                  lambda i: f"touch must be 'true' or 'false', got {touch[i]!r}")
    raw = (t, ax, ay, [c or None for c in hx], [c or None for c in hy], [c == "true" for c in touch])
    return _frame_columns(raw, lines, src, touch_word)


def detect_format(path: Union[str, Path]) -> str:
    return CSV if str(path).endswith(".csv") else JSONL


# --- serialization -----------------------------------------------------------

def _header_obj(s: Session) -> dict:
    return {
        "id": s.id,
        "operator": s.operator,
        "ordinal": s.ordinal,
        "rate_hz": s.sample_rate_hz,
        "coord_frame": s.coord_frame,
    }


def _frame_values(s: Session) -> Iterable[tuple]:
    """Per-frame ``FRAME_FIELDS`` values as plain Python objects; the hand
    is None, None while out of sight."""
    seen = s.hand_visible_mask.tolist()
    hx, hy = ([v if v_seen else None for v, v_seen in zip(col, seen)] for col in s.hand_xy.T.tolist())
    ax, ay = s.attention_xy.T.tolist()
    return zip(s.times.tolist(), ax, ay, hx, hy, s.touching_mask.tolist())


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


def write_session(s: Session, path: Union[str, Path], format: Optional[str] = None) -> None:
    """Write a session file; the format defaults from the file extension."""
    path = Path(path)
    fmt = format or detect_format(path)
    if fmt == JSONL:
        lines = [json.dumps(_header_obj(s))]
        lines.extend(json.dumps(dict(zip(FRAME_FIELDS, row))) for row in _frame_values(s))
        atomic_write_text(path, "\n".join(lines) + "\n")
        return
    if fmt != CSV:
        raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")
    buf = io.StringIO()
    buf.write("#" + json.dumps(_header_obj(s)) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(FRAME_FIELDS)
    writer.writerows(
        [repr(t), repr(ax), repr(ay), "" if hx is None else repr(hx), "" if hy is None else repr(hy),
         "true" if touch else "false"]
        for t, ax, ay, hx, hy, touch in _frame_values(s)
    )
    atomic_write_text(path, buf.getvalue())


# --- sidecars ----------------------------------------------------------------

def load_step_labels(path: Union[str, Path]) -> tuple[StepLabel, ...]:
    """Load a step-label sidecar CSV: ``start_t,end_t,step_id``."""
    path = Path(path)
    labels: list[StepLabel] = []
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            if lineno == 1 and row[0].strip() == "start_t":
                continue
            if len(row) != 3:
                raise ParseError("expected start_t,end_t,step_id", line=lineno, source=str(path))
            start = _finite(row[0].strip(), "start_t", lineno, str(path))
            end = _finite(row[1].strip(), "end_t", lineno, str(path))
            try:
                labels.append(StepLabel(start_t=start, end_t=end, step_id=row[2].strip()))
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno, source=str(path))
    return tuple(labels)


def write_step_labels(labels: Iterable[StepLabel], path: Union[str, Path]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["start_t", "end_t", "step_id"])
    for label in labels:
        writer.writerow([repr(label.start_t), repr(label.end_t), label.step_id])
    atomic_write_text(path, buf.getvalue())


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


# --- validation --------------------------------------------------------------

def validate_session(s: Session, expected_rate: Optional[float] = None) -> ValidationReport:
    """Check sampling regularity and fill summary stats.

    ``expected_rate`` defaults to the session's own declared rate.  Gaps
    longer than two nominal intervals warn individually; intervals off the
    nominal by more than 20% are aggregated into one warning.  Warnings
    never block downstream processing.
    """
    rate = expected_rate if expected_rate is not None else s.sample_rate_hz
    if rate <= 0:
        raise ValueError("expected_rate must be positive")
    report = ValidationReport(session_id=s.id)

    nominal = 1.0 / rate
    gap_threshold = 2.0 * nominal
    times = s.times
    dt = np.diff(times)
    gap = dt > gap_threshold
    for i in np.flatnonzero(gap).tolist():
        report.warnings.append(
            f"sampling gap of {float(dt[i]):.4f}s at t={float(times[i])!r} (threshold {gap_threshold:.4f}s)"
        )
    irregular = int(np.count_nonzero(~gap & ~((0.8 * nominal <= dt) & (dt <= 1.2 * nominal))))
    if irregular:
        report.warnings.append(
            f"{irregular} sample intervals deviate more than 20% from 1/{rate} s"
        )

    touch_count = int(np.count_nonzero(s.touching_mask))
    hand_frames = int(np.count_nonzero(s.hand_visible_mask))
    if hand_frames == 0:
        report.warnings.append("no hand frames: hand never visible in this session")
    report.stats = {
        "frame_count": len(s),
        "touch_count": touch_count,
        "hand_visible_fraction": hand_frames / len(s),
        "duration_s": float(times[-1] - times[0]),
        "sample_rate_hz": s.sample_rate_hz,
    }
    return report
