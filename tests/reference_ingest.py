"""Reference session parser: the line-by-line parser that built one
``FrameRecord`` per frame, kept as an oracle for the column parser.

It checks each line completely before reading the next, so its first error
is by construction the earliest bad line's.  Opening the source and checking
the header are shared with ``opgaze.ingest``.  It includes the fixes for
integers too large for a float: ``_finite`` reports them as not finite, and
a line that fails to decode for any ``ValueError`` is malformed JSON, a
time must not exceed ``TIME_MAX`` and a coordinate must lie within
``COORD_MAX``.  A JSONL frame's numbers must be JSON numbers (an int or a
float, not a bool or a string).  A CSV row's line is the line it starts on, as
``csv.reader.line_num`` counts lines, so a quoted cell may span lines.
"""

from __future__ import annotations

import csv
import json
import math
from typing import IO

from opgaze.ingest import COORD_MAX, FRAME_FIELDS, TIME_MAX, ParseError, _open_text, _parse_header
from opgaze.session import FrameRecord, Point2


def _finite(value, what, lineno, src, text):
    # a JSON number is an int or a float, not a bool; a CSV cell is text
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number or text and isinstance(value, str)):
        raise ParseError(f"{what} is not a number: {value!r}", line=lineno, source=src)
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ParseError(f"{what} is not a number: {value!r}", line=lineno, source=src)
    except OverflowError:
        raise ParseError(f"{what} is not finite: {value!r}", line=lineno, source=src)
    if not math.isfinite(out):
        raise ParseError(f"{what} is not finite: {value!r}", line=lineno, source=src)
    return out


def _coordinate(value, what, lineno, src, text):
    out = _finite(value, what, lineno, src, text)
    if abs(out) > COORD_MAX:
        raise ParseError(f"|{what}| exceeds {COORD_MAX:g}: {value!r}", line=lineno, source=src)
    return out


def _frame_from_fields(row, lineno, src, text):
    t = _finite(row["t"], "t", lineno, src, text)
    if t < 0:
        raise ParseError(f"t must be >= 0, got {t}", line=lineno, source=src)
    if t > TIME_MAX:
        raise ParseError(f"t exceeds {TIME_MAX:g}: {row['t']!r}", line=lineno, source=src)
    ax = _coordinate(row["ax"], "ax", lineno, src, text)
    ay = _coordinate(row["ay"], "ay", lineno, src, text)
    hx, hy = row["hx"], row["hy"]
    if (hx is None) != (hy is None):
        raise ParseError("hx and hy must be null together", line=lineno, source=src)
    hand = None
    if hx is not None:
        hand = Point2(_coordinate(hx, "hx", lineno, src, text), _coordinate(hy, "hy", lineno, src, text))
    touch = row["touch"]
    if not isinstance(touch, bool):
        raise ParseError(f"touch must be a boolean, got {touch!r}", line=lineno, source=src)
    if touch and hand is None:
        raise ParseError("contact without hand: touch=true but hand is null", line=lineno, source=src)
    return FrameRecord(t=t, attention=Point2(ax, ay), hand=hand, touching=touch)


def _check_monotonic(frames, lineno, src):
    if len(frames) >= 2 and frames[-1].t <= frames[-2].t:
        if frames[-1].t == frames[-2].t:
            raise ParseError(f"duplicate timestamp t={frames[-1].t}", line=lineno, source=src)
        raise ParseError(
            f"non-monotonic timestamp: t={frames[-1].t} after t={frames[-2].t}",
            line=lineno,
            source=src,
        )


def parse(source, format="jsonl"):
    """(header, frames) of a session file, or the ParseError it raises."""
    stream, src = _open_text(source)
    with stream:
        header, frames = (_parse_jsonl if format == "jsonl" else _parse_csv)(stream, src)
    if not frames:
        raise ParseError("no frames in session", source=src)
    return header, frames


def _parse_jsonl(stream: IO[str], src: str):
    header = None
    frames = []
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:
            raise ParseError(f"malformed JSON: {getattr(exc, 'msg', exc)}", line=lineno, source=src)
        if header is None:
            header = _parse_header(obj, lineno, src)
            continue
        if not isinstance(obj, dict):
            raise ParseError("frame must be an object", line=lineno, source=src)
        missing = [k for k in FRAME_FIELDS if k not in obj]
        if missing:
            raise ParseError(f"frame missing fields: {missing}", line=lineno, source=src)
        frames.append(_frame_from_fields(obj, lineno, src, text=False))
        _check_monotonic(frames, lineno, src)
    if header is None:
        raise ParseError("empty file: missing session header", source=src)
    return header, frames


def _parse_csv(stream: IO[str], src: str):
    first = stream.readline()
    if not first:
        raise ParseError("empty file: missing session header", source=src)
    if not first.lstrip().startswith("#"):
        raise ParseError("first line must be a '#' comment carrying the session header JSON",
                         line=1, source=src)
    try:
        header_obj = json.loads(first.lstrip()[1:])
    except ValueError as exc:
        raise ParseError(f"malformed header JSON: {getattr(exc, 'msg', exc)}", line=1, source=src)
    header = _parse_header(header_obj, 1, src)

    reader = csv.reader(stream)
    try:
        columns = next(reader)
    except StopIteration:
        raise ParseError("missing column header", source=src)
    if [c.strip() for c in columns] != list(FRAME_FIELDS):
        raise ParseError(f"column header must be {','.join(FRAME_FIELDS)}", line=2, source=src)

    frames = []
    while True:
        lineno = 2 + reader.line_num  # the line after the previous row's last
        try:
            row = next(reader)
        except StopIteration:
            break
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(FRAME_FIELDS):
            raise ParseError(f"expected {len(FRAME_FIELDS)} cells, got {len(row)}",
                             line=lineno, source=src)
        t, ax, ay, hx, hy, touch = (cell.strip() for cell in row)
        if touch not in ("true", "false"):
            raise ParseError(f"touch must be 'true' or 'false', got {touch!r}",
                             line=lineno, source=src)
        fields = {
            "t": t,
            "ax": ax,
            "ay": ay,
            "hx": hx if hx else None,
            "hy": hy if hy else None,
            "touch": touch == "true",
        }
        frames.append(_frame_from_fields(fields, lineno, src, text=True))
        _check_monotonic(frames, lineno, src)
    return header, frames
