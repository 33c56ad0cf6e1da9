"""Parse, validate, and serialize session files.

Two wire formats carry the same field set.  JSONL is canonical: a header
object on line 1 followed by one frame object per line::

    {"id": "s1", "operator": "op1", "ordinal": "earlier", "rate_hz": 30.0, "coord_frame": "scene"}
    {"t": 0.0, "ax": 12.0, "ay": 3.5, "hx": null, "hy": null, "touch": false}

CSV (for spreadsheet-born data) carries the identical header object in a
leading ``#`` comment line, then columns ``t,ax,ay,hx,hy,touch``.  A cell,
stripped, holds the value its text holds in JSONL: a number, ``true`` or
``false``; an empty ``hx``/``hy`` cell is null, an out-of-sight hand, never
(0, 0); any other cell is text, which no check passes.

Sidecars: step labels as ``start_t,end_t,step_id`` CSV, whose times are
read as frame cells are, and difficulty ratings as
``step_id,rater_id,role,score`` CSV.

Frames are parsed straight into the Session's columns by one reader.
Plain frame text, as ``write_session`` writes it, is decoded into rows by
orjson; any other, and plain text whose values fail a check, into
line-numbered rows, line by line (JSONL) or row by row (CSV), which gives
the error and its line.  Rejected inputs never produce a Session: any
malformed line (bytes that are not UTF-8, JSON nested past the recursion
limit and a CSV cell over the field size limit included), duplicate or
non-monotonic timestamp, contact-without-hand frame, value that is not a
number (a bool or a string included), non-finite value (an integer too
large for a float included), time above ``TIME_MAX``, coordinate beyond
``COORD_MAX`` or rate above ``RATE_MAX`` raises :class:`ParseError` with
the number of the earliest offending line, as a line-by-line check would.
A CSV row's line is the line it starts on.
"""

from __future__ import annotations

import bisect
import csv
import io
import itertools
import json
import math
import operator
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .session import ORDINALS, Session, StepLabel
# defined without numpy for the study commands; the same objects here
from .studyio import (ParseError, Source, atomic_write_text, check_line, csv_rows,  # noqa: F401
                      csv_text, json_error, load_ratings, open_text, read_sidecar, write_ratings)

JSONL = "jsonl"
CSV = "csv"
FORMATS = (JSONL, CSV)

FRAME_FIELDS = ("t", "ax", "ay", "hx", "hy", "touch")
HEADER_FIELDS = ("id", "operator", "ordinal", "rate_hz", "coord_frame")

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

# The longest session id accepted, in UTF-8 bytes: analyze's longest name, a trace's "<id>_<k>.csv"
# and the 13 bytes atomic_write_text adds, is 224 bytes for a 6-digit k; most file systems allow 255.
ID_MAX_BYTES = 200

# The largest frame time accepted.  Times start at 0, so every duration and
# lead time a feature takes is at most 1e150, below the mean-speed bound of
# 2.83e150: correlate's squares of per-step means of any feature stay finite.
TIME_MAX = 1e150


def _as_float(value: object) -> Optional[float]:
    """``float(value)`` of a JSON number (an int or a float, not a bool);
    None when it is not a number, inf when it overflows."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return None
    try:
        return float(value)
    except OverflowError:  # an int too large for a float
        return math.inf


def _bad_number(value: object, what: str) -> str:
    """The message of a bad ``what`` value: not a number, not finite, or else beyond ``COORD_MAX``."""
    out = _as_float(value)
    if out is not None and math.isfinite(out):
        return f"|{what}| exceeds {COORD_MAX:g}: {value!r}"
    return f"{what} is not {'a number' if out is None else 'finite'}: {value!r}"


def _finite(value: object, what: str) -> float:
    out = _as_float(value)
    if out is None or not math.isfinite(out):
        raise ValueError(_bad_number(value, what))
    return out


def _floats(values: Sequence[object]) -> np.ndarray:
    """``_as_float`` of each value as an array; NaN where it is None or not a number."""
    # numpy takes a bool or a string too, so values go this fast way only
    # when each is an int, a float or None (NaN)
    if {int, float, type(None)}.issuperset(map(type, values)):
        try:
            return np.array(values, dtype=float)
        except OverflowError:  # an int too large for a float
            pass
    return np.array([_as_float(v) for v in values], dtype=float)  # None -> NaN


def _json_cell(cell: str) -> object:
    """A stripped CSV cell as JSON reads it: the int, float or bool that it
    decodes to, or else its text."""
    try:
        value = json.loads(cell)
    except (ValueError, RecursionError):
        return cell
    return value if type(value) in (int, float, bool) else cell


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
        for key in ("id", "operator", "coord_frame"):
            if not isinstance(obj[key], str):
                raise ValueError(f"{key} must be a string, got {obj[key]!r}")
        if obj["ordinal"] not in ORDINALS:
            raise ValueError(f"ordinal must be one of {ORDINALS}, got {obj['ordinal']!r}")
        rate = check_rate(obj["rate_hz"], "rate_hz")
        session_id = obj["id"]
        # the id names the session's output directory, which must stay under --out,
        # and begins its trace files' names; a lone surrogate (a JSON escape) has no UTF-8
        if (session_id in ("", ".", "..")
                or any(c in "/\\\0" or "\ud800" <= c <= "\udfff" for c in session_id)
                or len(session_id.encode()) > ID_MAX_BYTES):
            raise ValueError(f"session id {session_id!r} is not a valid file name")
    except ValueError as exc:
        raise ParseError(str(exc), line=lineno, source=src) from None
    return {
        "id": session_id,
        "operator": obj["operator"],
        "ordinal": obj["ordinal"],
        "rate_hz": rate,
        "coord_frame": obj["coord_frame"],
    }


def _columns(rows: Sequence[Sequence[object]]) -> Sequence[Sequence[object]]:
    return tuple(zip(*rows)) or ((),) * len(FRAME_FIELDS)


def _frame_columns(raw: Sequence[Sequence[object]], lines: Sequence[int], src: str) -> dict[str, np.ndarray]:
    """Check raw frame values column by column and convert them.

    ``raw`` holds the ``FRAME_FIELDS`` columns as JSON values, with None for
    an absent hand; ``lines`` the line of each frame.  A check is a mask over
    all frames and the error message for one frame; each line is checked in
    list order.  Returns the Session columns.
    """
    t_raw, ax_raw, ay_raw, hx_raw, hy_raw, touch_raw = raw
    hx_none, hy_none = (np.array([v is None for v in col], dtype=bool) for col in (hx_raw, hy_raw))
    t, ax, ay, hx, hy = map(_floats, raw[:5])
    touch_bool = np.array([type(v) is bool for v in touch_raw], dtype=bool)
    touching = np.array([v is True for v in touch_raw], dtype=bool)
    out_of_order = np.zeros(len(t), dtype=bool)
    out_of_order[1:] = t[1:] <= t[:-1]

    def coordinate(values: np.ndarray, raw_col: Sequence[object], what: str, present=True) -> tuple:
        # NaN and infinities fail the comparison as well
        return ~(np.abs(values) <= COORD_MAX) & present, lambda i: _bad_number(raw_col[i], what)

    def order_message(i: int) -> str:
        cur, prev = float(t[i]), float(t[i - 1])
        return (f"duplicate timestamp t={cur}" if cur == prev
                else f"non-monotonic timestamp: t={cur} after t={prev}")

    checks = [
        (~np.isfinite(t), lambda i: _bad_number(t_raw[i], "t")),
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
    stream, src = _open_session(source, format)
    with stream:
        header, header_line = _read_header(stream, src, format)
        text = stream.read()
    columns = _plain_columns(text, src, format) or _read_columns(text, header_line + 1, src, format)
    if not len(columns["times"]):
        raise ParseError("no frames in session", source=src)
    return Session(header["id"], header["operator"], header["ordinal"],
                   sample_rate_hz=header["rate_hz"], coord_frame=header["coord_frame"],
                   step_labels=step_labels, **columns)


_FRAME_VALUES = operator.itemgetter(*FRAME_FIELDS)


def read_header(source: Source, format: str = JSONL) -> dict:
    """The header of a session file (or open stream) in the given format, as
    :func:`parse_session` reads it, without reading its frames: the same
    fields, or the same ParseError on the same line."""
    stream, src = _open_session(source, format)
    with stream:
        return _read_header(stream, src, format)[0]


def _open_session(source: Source, format: str) -> tuple[IO[str], str]:
    if format not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {format!r}")
    # JSONL lines need no kept line ends, and universal newlines split faster
    return open_text(source, None if format == JSONL else "")


def _read_header(stream: IO[str], src: str, format: str) -> tuple[dict, int]:
    """The header of a session file, read from the start of ``stream``, and
    its line; ``stream`` is left at the line after it.  In JSONL it is the
    first line that is not blank, in CSV a ``#`` comment on line 1."""
    if format == CSV:
        first = check_line(stream.readline(), 1, src)
        if not first:
            raise ParseError("empty file: missing session header", source=src)
        if not first.lstrip().startswith("#"):
            raise ParseError("first line must be a '#' comment carrying the session header JSON",
                             line=1, source=src)
        try:
            obj = json.loads(first.lstrip()[1:])
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"malformed header JSON: {json_error(exc)}", line=1, source=src)
        return _parse_header(obj, 1, src), 1
    for lineno, line in enumerate(stream, start=1):
        line = check_line(line, lineno, src).strip()
        if line:
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise ParseError(f"malformed JSON: {json_error(exc)}", line=lineno, source=src)
            return _parse_header(obj, lineno, src), lineno
    raise ParseError("empty file: missing session header", source=src)


def _plain_columns(text: str, src: str, format: str) -> Optional[dict[str, np.ndarray]]:
    """The Session columns of the frame text ``text``, decoded by orjson, if
    the text is ASCII (so UTF-8, without a BOM) and plain in its format, and
    the columns pass every check; else None, and :func:`_read_columns`
    decides."""
    if not text.isascii():
        return None
    rows = (_plain_jsonl_rows if format == JSONL else _plain_csv_rows)(text)
    if rows is None:
        return None
    try:
        # a frame's line is read only for an error, which sends the text to _read_columns
        return _frame_columns(_columns(rows), range(len(rows)), src)
    except ParseError:
        return None


def _plain_jsonl_rows(text: str) -> Optional[list]:
    """The frame rows of the JSONL frame lines ``text``, if every line is
    plain and orjson decodes it to an object holding the six fields; else
    None.

    A plain line holds exactly 12 ``"``: the six ``FRAME_FIELDS`` keys need
    all of them, so an object holding those keys has no string value and no
    other or repeated key, where a value ``json`` would reject could hide.
    Where orjson accepts such a line, its values are those of ``json``.
    """
    import orjson  # here, so that a process reading no frames does not load it

    lines = [line for line in map(str.strip, text.split("\n")) if line]
    if set(map(str.count, lines, itertools.repeat('"'))) - {12}:
        return None
    try:
        return list(map(_FRAME_VALUES, map(orjson.loads, lines)))
    except (ValueError, KeyError, TypeError):  # orjson's refusal, or not an object of the six fields
        return None


# A plain CSV frame text holds none of these: a quote, a line end the csv
# module reads that is not ``\n``, NUL, a JSON container, and the ``n`` of
# ``null``, ``nan`` and ``inf``.
_NOT_PLAIN_CSV = '"\r\0[]{}n'


def _plain_csv_rows(text: str) -> Optional[list]:
    """The frame rows of the CSV frame text ``text`` (the column header
    line, then the frame rows), decoded by orjson as one JSON array of rows,
    if the text is plain; else None.

    Plain text holds no character of ``_NOT_PLAIN_CSV``, starts with the
    column header, has no line longer than the csv module's field limit, and
    decodes to rows of six values: each line then holds six cells, each a
    JSON number, ``true``, ``false`` or empty (null), with no blank line
    between them.  Each value is then the one :func:`_csv_rows` reads, as
    orjson reads a JSON number as ``json`` does, within a float's range.
    """
    if any(c in text for c in _NOT_PLAIN_CSV):
        return None
    columns, _, body = text.partition("\n")
    body = body.rstrip()
    if ([c.strip() for c in columns.split(",")] != list(FRAME_FIELDS)
            or max(map(len, body.split("\n"))) > csv.field_size_limit()):
        return None
    import orjson  # here, so that a process reading no frames does not load it

    # an empty cell is null: the common ",,," of an absent hand first, then any other
    cells = body.replace("\n", "],[").replace(",,,", ",null,null,").replace(",,", ",null,")
    try:
        rows = orjson.loads("[[" + cells + "]]")
    except ValueError:
        return None
    return rows if set(map(len, rows)) == {len(FRAME_FIELDS)} else None


def _read_columns(text: str, first_line: int, src: str, format: str) -> dict[str, np.ndarray]:
    """The Session columns of the frame text ``text``, whose first line is
    line ``first_line``, read line by line (JSONL) or row by row (CSV); a bad
    line is a ParseError on its line."""
    rows: list[Sequence[object]] = []
    lines: list[int] = []
    try:
        for lineno, row in (_jsonl_rows if format == JSONL else _csv_rows)(text, first_line, src):
            rows.append(row)
            lines.append(lineno)
    except ParseError:
        _frame_columns(_columns(rows), lines, src)  # an earlier frame's error comes first
        raise
    return _frame_columns(_columns(rows), lines, src)


def _jsonl_rows(text: str, first_line: int, src: str) -> Iterator[tuple[int, tuple]]:
    """``(line, values)`` of each JSONL frame line that is not blank, decoded
    by ``json``; a bad line is a ParseError on its line."""
    for lineno, line in enumerate(text.split("\n"), start=first_line):
        line = check_line(line, lineno, src).strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"malformed JSON: {json_error(exc)}", line=lineno, source=src)
        if not isinstance(obj, dict):
            raise ParseError("frame must be an object", line=lineno, source=src)
        try:
            values = _FRAME_VALUES(obj)
        except KeyError:
            missing = [k for k in FRAME_FIELDS if k not in obj]
            raise ParseError(f"frame missing fields: {missing}", line=lineno, source=src)
        yield lineno, values


def _csv_rows(text: str, first_line: int, src: str) -> Iterator[tuple[int, list]]:
    """``(line, values)`` of each CSV frame row that is not blank, read by
    ``csv_rows`` after the column header: each stripped cell as
    :func:`_json_cell` reads it, and an empty hand cell as None; a bad row
    is a ParseError on its line."""
    reader = csv_rows(io.StringIO(text, newline=""), src, first_line)
    _, columns = next(reader, (first_line, None))
    if columns is None:
        raise ParseError("missing column header", source=src)
    if [c.strip() for c in columns] != list(FRAME_FIELDS):
        raise ParseError(f"column header must be {','.join(FRAME_FIELDS)}", line=first_line, source=src)
    for lineno, row in reader:
        if not any(map(str.strip, row)):
            continue
        if len(row) != len(FRAME_FIELDS):
            raise ParseError(f"expected {len(FRAME_FIELDS)} cells, got {len(row)}", line=lineno, source=src)
        t, ax, ay, hx, hy, touch = (_json_cell(c.strip()) for c in row)
        yield lineno, (t, ax, ay, hx if hx != "" else None, hy if hy != "" else None, touch)


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
    """Load a step-label sidecar CSV: ``start_t,end_t,step_id``; a row whose
    interval overlaps an earlier row's is an error on its line that names
    the earliest such row."""
    # the labels so far, sorted by start; being disjoint, they are sorted by end too
    starts: list[float] = []
    ends: list[float] = []
    placed: list[tuple[int, str]] = []  # (line, step_id)

    def make(line: int, start_t: str, end_t: str, step_id: str) -> StepLabel:
        label = StepLabel(_finite(_json_cell(start_t), "start_t"), _finite(_json_cell(end_t), "end_t"), step_id)
        # the earlier labels it overlaps end after its start and start before
        # its end: the run [lo, hi) of the sorted labels
        lo, hi = bisect.bisect_right(ends, label.start_t), bisect.bisect_left(starts, label.end_t)
        if lo < hi:
            first, earlier = min(placed[lo:hi])
            raise ValueError(f"step {step_id!r} overlaps step {earlier!r} of line {first}")
        starts.insert(lo, label.start_t)
        ends.insert(lo, label.end_t)
        placed.insert(lo, (line, step_id))
        return label

    return tuple(read_sidecar(path, STEP_FIELDS, make))


def write_step_labels(labels: Iterable[StepLabel], path: Union[str, Path]) -> None:
    rows = ((label.start_t, label.end_t, label.step_id) for label in labels)
    atomic_write_text(path, csv_text(STEP_FIELDS, rows))


# --- validation --------------------------------------------------------------

def validate_session(s: Session, expected_rate: Optional[float] = None) -> dict:
    """The ``validation_report.json`` entry of a parsed session:
    ``session_id``, ``errors`` (none, as the session parsed; the key gives
    every entry, parse failures included, one shape), sampling ``warnings``
    and summary ``stats``.

    ``expected_rate`` defaults to the session's own declared rate.  Gaps
    longer than two nominal intervals warn individually; intervals off the
    nominal by more than 20% are aggregated into one warning.  Warnings
    never block downstream processing.
    """
    rate = s.sample_rate_hz if expected_rate is None else check_rate(expected_rate, "expected_rate")
    warnings: list[str] = []

    nominal = 1.0 / rate
    gap_threshold = 2.0 * nominal
    times = s.times
    dt = np.diff(times)
    gap = dt > gap_threshold
    for i in np.flatnonzero(gap).tolist():
        warnings.append(
            f"sampling gap of {float(dt[i]):.4f}s at t={float(times[i])!r} (threshold {gap_threshold:.4f}s)"
        )
    irregular = int(np.count_nonzero(~gap & ~((0.8 * nominal <= dt) & (dt <= 1.2 * nominal))))
    if irregular:
        warnings.append(
            f"{irregular} sample intervals deviate more than 20% from 1/{rate} s"
        )

    touch_count = int(np.count_nonzero(s.touching_mask))
    hand_frames = int(np.count_nonzero(s.hand_visible_mask))
    if hand_frames == 0:
        warnings.append("no hand frames: hand never visible in this session")
    stats = {
        "frame_count": len(s),
        "touch_count": touch_count,
        "hand_visible_fraction": hand_frames / len(s),
        "duration_s": float(times[-1] - times[0]),
        "sample_rate_hz": s.sample_rate_hz,
    }
    return {"session_id": s.id, "errors": [], "warnings": warnings, "stats": stats}
