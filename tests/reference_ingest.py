"""Reference session parser: the line-by-line parser that built one
``FrameRecord`` per frame, kept as an oracle for the column parser.

It checks each line completely before reading the next, so its first error
is by construction the earliest bad line's.  It opens its source itself, as
strict UTF-8 with ``\n``, ``\r\n`` and ``\r`` ending a line, and shares
checking the header with ``opgaze.ingest``.  It includes the fixes for
integers too large for a float: ``_finite`` reports them as not finite, and
a line that fails to decode for any ``ValueError`` is malformed JSON (and
one nested past the recursion limit is "nested too deeply"), a
time must not exceed ``TIME_MAX`` and a coordinate must lie within
``COORD_MAX``.  A frame's numbers must be JSON numbers (an int or a float,
not a bool or a string).  A CSV cell, stripped, is the int, float or bool
``json.loads`` decodes it to, or else its text; an empty ``hx`` or ``hy``
cell is null.  A CSV row's line is the line it starts on, as
``csv.reader.line_num`` counts lines, so a quoted cell may span lines; a row
the csv module rejects (a cell over its field limit, say) is malformed CSV
on that line.

:func:`load_step_labels` is the pairwise oracle of the step-label sidecar
reader: it checks each row against every earlier row.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path
from typing import IO

from opgaze.ingest import COORD_MAX, FRAME_FIELDS, TIME_MAX, ParseError, _parse_header
from opgaze.session import FrameRecord, Point2, StepLabel


def _json_cell(cell):
    """A CSV cell as a JSONL file would hold it: the int, float or bool that
    ``json.loads`` decodes the stripped cell to, or else the stripped text."""
    cell = cell.strip()
    try:
        value = json.loads(cell)
    except (ValueError, RecursionError):
        return cell
    return value if type(value) in (int, float, bool) else cell


def _finite(value, what, lineno, src):
    # a JSON number is an int or a float, not a bool
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParseError(f"{what} is not a number: {value!r}", line=lineno, source=src)
    try:
        out = float(value)
    except OverflowError:
        raise ParseError(f"{what} is not finite: {value!r}", line=lineno, source=src)
    if not math.isfinite(out):
        raise ParseError(f"{what} is not finite: {value!r}", line=lineno, source=src)
    return out


def _coordinate(value, what, lineno, src):
    out = _finite(value, what, lineno, src)
    if abs(out) > COORD_MAX:
        raise ParseError(f"|{what}| exceeds {COORD_MAX:g}: {value!r}", line=lineno, source=src)
    return out


def _frame_from_fields(row, lineno, src):
    t = _finite(row["t"], "t", lineno, src)
    if t < 0:
        raise ParseError(f"t must be >= 0, got {t}", line=lineno, source=src)
    if t > TIME_MAX:
        raise ParseError(f"t exceeds {TIME_MAX:g}: {row['t']!r}", line=lineno, source=src)
    ax = _coordinate(row["ax"], "ax", lineno, src)
    ay = _coordinate(row["ay"], "ay", lineno, src)
    hx, hy = row["hx"], row["hy"]
    if (hx is None) != (hy is None):
        raise ParseError("hx and hy must be null together", line=lineno, source=src)
    hand = None
    if hx is not None:
        hand = Point2(_coordinate(hx, "hx", lineno, src), _coordinate(hy, "hy", lineno, src))
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
    if isinstance(source, (str, Path)):
        stream, src = open(source, encoding="utf-8", newline=""), str(source)
    else:
        text = source.read()
        text = text.decode("utf-8") if isinstance(text, bytes) else text
        stream, src = io.StringIO(text, newline=""), getattr(source, "name", "stream")
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
        except RecursionError:
            raise ParseError("malformed JSON: nested too deeply", line=lineno, source=src)
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
        frames.append(_frame_from_fields(obj, lineno, src))
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
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}", line=2, source=src)
    if [c.strip() for c in columns] != list(FRAME_FIELDS):
        raise ParseError(f"column header must be {','.join(FRAME_FIELDS)}", line=2, source=src)

    frames = []
    while True:
        lineno = 2 + reader.line_num  # the line after the previous row's last
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error as exc:
            raise ParseError(f"malformed CSV: {exc}", line=lineno, source=src)
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(FRAME_FIELDS):
            raise ParseError(f"expected {len(FRAME_FIELDS)} cells, got {len(row)}",
                             line=lineno, source=src)
        fields = dict(zip(FRAME_FIELDS, map(_json_cell, row)))
        for key in ("hx", "hy"):
            if fields[key] == "":
                fields[key] = None
        frames.append(_frame_from_fields(fields, lineno, src))
        _check_monotonic(frames, lineno, src)
    return header, frames


def load_step_labels(path):
    """The labels of a ``start_t,end_t,step_id`` sidecar, in file order, or the
    ParseError of its first faulty row.  Each row is checked against every
    earlier row in file order, so an overlap names the earliest row it
    overlaps."""
    src = str(path)
    labels = []  # (line, label), in file order
    with open(path, encoding="utf-8", newline="") as stream:
        reader = csv.reader(stream)
        while True:
            lineno = 1 + reader.line_num  # the line after the previous row's last
            try:
                row = next(reader)
            except StopIteration:
                break
            cells = [cell.strip() for cell in row]
            if not any(cells) or (lineno == 1 and cells[0] == "start_t"):
                continue
            if len(cells) != 3:
                raise ParseError("expected start_t,end_t,step_id", line=lineno, source=src)
            start_t = _finite(_json_cell(cells[0]), "start_t", lineno, src)
            end_t = _finite(_json_cell(cells[1]), "end_t", lineno, src)
            try:
                label = StepLabel(start_t, end_t, cells[2])
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno, source=src) from None
            for earlier_line, earlier in labels:
                if label.start_t < earlier.end_t and earlier.start_t < label.end_t:
                    raise ParseError(f"step {label.step_id!r} overlaps step {earlier.step_id!r} "
                                     f"of line {earlier_line}", line=lineno, source=src)
            labels.append((lineno, label))
    return tuple(label for _, label in labels)
