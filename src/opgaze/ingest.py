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
frame, value that is not a number (in JSON a bool or a string included),
non-finite value (an integer too large for a float included), time
above ``TIME_MAX``, coordinate beyond ``COORD_MAX`` or rate above
``RATE_MAX`` raises :class:`ParseError` with the number of the earliest
offending line, as a line-by-line check would.  A CSV row's line is the
line it starts on.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .session import ORDINALS, Session, StepLabel
# defined without numpy for the study commands; the same objects here
from .studyio import (ParseError, atomic_write_text, csv_rows, csv_text, load_ratings,  # noqa: F401
                      not_utf8, read_sidecar, write_ratings)

JSONL = "jsonl"
CSV = "csv"
FORMATS = (JSONL, CSV)

FRAME_FIELDS = ("t", "ax", "ay", "hx", "hy", "touch")
HEADER_FIELDS = ("id", "operator", "ordinal", "rate_hz", "coord_frame")

Source = Union[str, Path, IO[str], IO[bytes]]

# The largest coordinate magnitude accepted.  Two coordinates differ by at
# most 2 * COORD_MAX, and the highest power of a difference the pipeline
# forms is the fourth (cxx * cyy in the touch covariance check): at most
# (2e50) ** 4 = 1.6e201, where a difference of 1.2e77 would overflow.
COORD_MAX = 1e50

# The largest sample rate accepted.  A distance between two points changes
# by at most 2 * sqrt(2) * COORD_MAX per frame, so a mean speed (mean |dd| *
# rate) is at most 2.83e150 and its square 8.0e300: correlate's sums of
# squares of per-step means stay finite for up to 2.2e7 steps.
RATE_MAX = 1e100

# The largest frame time accepted.  Times start at 0, so every duration and
# lead time a feature takes is at most 1e150, below the mean-speed bound of
# 2.83e150: correlate's squares of per-step means of any feature stay finite.
TIME_MAX = 1e150


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


def _as_float(value: object, text: bool = False) -> Optional[float]:
    """``float(value)`` of a JSON number (an int or a float, not a bool), or
    with ``text`` of a string; None when it is not a number, inf when it
    overflows."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number or text and isinstance(value, str)):
        return None
    try:
        return float(value)
    except ValueError:
        return None
    except OverflowError:  # an int too large for a float
        return math.inf


def _not_finite(value: object, what: str, text: bool = False) -> str:
    return f"{what} is not {'a number' if _as_float(value, text) is None else 'finite'}: {value!r}"


def _bad_coordinate(value: object, what: str, text: bool = False) -> str:
    out = _as_float(value, text)
    if out is None or not math.isfinite(out):
        return _not_finite(value, what, text)
    return f"|{what}| exceeds {COORD_MAX:g}: {value!r}"


def _finite(value: object, what: str, text: bool = False) -> float:
    out = _as_float(value, text)
    if out is None or not math.isfinite(out):
        raise ValueError(_not_finite(value, what, text))
    return out


def _floats(values: Sequence[object], text: bool, absent: Optional[np.ndarray] = None) -> np.ndarray:
    """``_as_float`` of each value as an array; NaN where it is absent or not a number."""
    if absent is not None and absent.any():
        out = np.full(len(values), np.nan)
        out[~absent] = _floats(list(itertools.compress(values, (~absent).tolist())), text)
        return out
    # float() takes a bool or a string too, so JSON values go this fast way
    # only when each is an int or a float
    if text or {int, float}.issuperset(map(type, values)):
        try:
            return np.fromiter(map(float, values), dtype=float, count=len(values))
        except (TypeError, ValueError, OverflowError):
            pass
    return np.array([_as_float(v, text) for v in values], dtype=float)  # None -> NaN


def check_rate(value: object, what: str) -> float:
    """``value`` as a sample rate: a finite int or float (not a bool) above 0
    and at most ``RATE_MAX``, else a ValueError whose message starts with
    ``what``."""
    rate = _finite(value, what)
    if rate <= 0:
        raise ValueError(f"{what} must be positive, got {rate}")
    if rate > RATE_MAX:
        raise ValueError(f"{what} exceeds {RATE_MAX:g}: {value!r}")
    return rate


def _parse_header(obj: object, lineno: int, src: str) -> dict:
    try:
        if not isinstance(obj, dict):
            raise ValueError("session header must be an object")
        missing = [k for k in HEADER_FIELDS if k not in obj]
        if missing:
            raise ValueError(f"session header missing fields: {missing}")
        if obj["ordinal"] not in ORDINALS:
            raise ValueError(f"ordinal must be one of {ORDINALS}, got {obj['ordinal']!r}")
        rate = check_rate(obj["rate_hz"], "rate_hz")
        session_id = str(obj["id"])
        # the id names the session's output directory, which must stay under --out
        if session_id in ("", ".", "..") or any(c in session_id for c in "/\\\0"):
            raise ValueError(f"session id {session_id!r} is not a valid file name")
    except ValueError as exc:
        raise ParseError(str(exc), line=lineno, source=src) from None
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
                   *checks_before: Check, text: bool = False) -> dict[str, np.ndarray]:
    """Check raw frame values column by column and convert them.

    ``raw`` holds the ``FRAME_FIELDS`` columns as read, with None for an
    absent hand; ``lines`` the line of each frame.  A number is a JSON
    number, or with ``text`` a string that ``float()`` reads.  A check is a
    mask over all frames and the error message for one frame; each line is
    checked in list order.  Returns the Session columns.
    """
    t_raw, ax_raw, ay_raw, hx_raw, hy_raw, touch_raw = raw
    hx_none, hy_none = (np.array([v is None for v in col], dtype=bool) for col in (hx_raw, hy_raw))
    t, ax, ay = (_floats(col, text) for col in raw[:3])
    hx, hy = _floats(hx_raw, text, hx_none), _floats(hy_raw, text, hy_none)
    touch_bool = np.array([type(v) is bool for v in touch_raw], dtype=bool)
    touching = np.array([v is True for v in touch_raw], dtype=bool)
    out_of_order = np.zeros(len(t), dtype=bool)
    out_of_order[1:] = t[1:] <= t[:-1]

    def coordinate(values: np.ndarray, raw_col: Sequence[object], what: str, present=True) -> Check:
        # NaN and infinities fail the comparison as well
        return ~(np.abs(values) <= COORD_MAX) & present, lambda i: _bad_coordinate(raw_col[i], what, text)

    def order_message(i: int) -> str:
        cur, prev = float(t[i]), float(t[i - 1])
        return (f"duplicate timestamp t={cur}" if cur == prev
                else f"non-monotonic timestamp: t={cur} after t={prev}")

    checks = [
        *checks_before,
        (~np.isfinite(t), lambda i: _not_finite(t_raw[i], "t", text)),
        (t < 0, lambda i: f"t must be >= 0, got {float(t[i])}"),
        (t > TIME_MAX, lambda i: f"t exceeds {TIME_MAX:g}: {t_raw[i]!r}"),
        coordinate(ax, ax_raw, "ax"),
        coordinate(ay, ay_raw, "ay"),
        (hx_none != hy_none, lambda i: "hx and hy must be null together"),
        coordinate(hx, hx_raw, "hx", ~hx_none),
        coordinate(hy, hy_raw, "hy", ~hy_none),
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
        csv_from = 2 if format == CSV else None  # line 1 is the header comment
        raise not_utf8(stream.buffer.read(), parse, src, csv_from) from None
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

    reader = csv_rows(stream, src, first_line=2)
    _, columns = next(reader, (2, None))
    if columns is None:
        raise ParseError("missing column header", source=src)
    if [c.strip() for c in columns] != list(FRAME_FIELDS):
        raise ParseError(f"column header must be {','.join(FRAME_FIELDS)}", line=2, source=src)

    rows: list[list[str]] = []
    lines: list[int] = []
    try:
        for lineno, row in reader:
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


def _csv_frame_columns(rows: list[list[str]], lines: list[int], src: str) -> dict[str, np.ndarray]:
    t, ax, ay, hx, hy, touch = ([cell.strip() for cell in col] for col in _columns(rows))
    touch_word = (np.array([c not in ("true", "false") for c in touch], dtype=bool),
                  lambda i: f"touch must be 'true' or 'false', got {touch[i]!r}")
    raw = (t, ax, ay, [c or None for c in hx], [c or None for c in hy], [c == "true" for c in touch])
    return _frame_columns(raw, lines, src, touch_word, text=True)


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
    header = "#" + json.dumps(_header_obj(s)) + "\n"
    atomic_write_text(path, header + csv_text(FRAME_FIELDS, _frame_values(s)))


# --- sidecars ----------------------------------------------------------------

STEP_FIELDS = ("start_t", "end_t", "step_id")


def load_step_labels(path: Union[str, Path]) -> tuple[StepLabel, ...]:
    """Load a step-label sidecar CSV: ``start_t,end_t,step_id``."""
    return tuple(read_sidecar(path, STEP_FIELDS, lambda start_t, end_t, step_id: StepLabel(
        _finite(start_t, "start_t", True), _finite(end_t, "end_t", True), step_id)))


def write_step_labels(labels: Iterable[StepLabel], path: Union[str, Path]) -> None:
    rows = ((label.start_t, label.end_t, label.step_id) for label in labels)
    atomic_write_text(path, csv_text(STEP_FIELDS, rows))


# --- validation --------------------------------------------------------------

def validate_session(s: Session, expected_rate: Optional[float] = None) -> ValidationReport:
    """Check sampling regularity and fill summary stats.

    ``expected_rate`` defaults to the session's own declared rate.  Gaps
    longer than two nominal intervals warn individually; intervals off the
    nominal by more than 20% are aggregated into one warning.  Warnings
    never block downstream processing.
    """
    rate = s.sample_rate_hz if expected_rate is None else check_rate(expected_rate, "expected_rate")
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
