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

Rejected inputs never produce a Session: any malformed line, duplicate or
non-monotonic timestamp, contact-without-hand frame, or non-finite
coordinate raises :class:`ParseError` with the offending line number.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Optional, Union

from .session import (
    ORDINALS,
    DifficultyRatings,
    FrameRecord,
    Point2,
    Rating,
    Session,
    StepLabel,
)

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
    """Outcome of checking one session: errors block downstream use,
    warnings do not."""

    session_id: str
    errors: list[tuple[int, str]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.errors

    def to_dict(self) -> dict:
        return {
            "session_id": self.session_id,
            "errors": [{"record": i, "message": m} for i, m in self.errors],
            "warnings": list(self.warnings),
            "stats": dict(self.stats),
        }


def _open_text(source: Source) -> tuple[IO[str], str, bool]:
    if isinstance(source, (str, Path)):
        path = Path(source)
        return path.open("r", encoding="utf-8"), str(path), True
    name = getattr(source, "name", "stream")
    data = source.read()
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"stream not decodable as UTF-8: {exc}", source=str(name))
    else:
        text = data
    return io.StringIO(text), str(name), True


def _finite(value: float, what: str, lineno: int, src: str) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ParseError(f"{what} is not a number: {value!r}", line=lineno, source=src)
    if not math.isfinite(out):
        raise ParseError(f"{what} is not finite: {value!r}", line=lineno, source=src)
    return out


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


def _frame_from_fields(row: dict, lineno: int, src: str) -> FrameRecord:
    t = _finite(row["t"], "t", lineno, src)
    if t < 0:
        raise ParseError(f"t must be >= 0, got {t}", line=lineno, source=src)
    ax = _finite(row["ax"], "ax", lineno, src)
    ay = _finite(row["ay"], "ay", lineno, src)
    hx, hy = row["hx"], row["hy"]
    if (hx is None) != (hy is None):
        raise ParseError("hx and hy must be null together", line=lineno, source=src)
    hand = None
    if hx is not None:
        hand = Point2(_finite(hx, "hx", lineno, src), _finite(hy, "hy", lineno, src))
    touch = row["touch"]
    if not isinstance(touch, bool):
        raise ParseError(f"touch must be a boolean, got {touch!r}", line=lineno, source=src)
    if touch and hand is None:
        raise ParseError("contact without hand: touch=true but hand is null", line=lineno, source=src)
    return FrameRecord(t=t, attention=Point2(ax, ay), hand=hand, touching=touch)


def _check_monotonic(frames: list[FrameRecord], lineno: int, src: str) -> None:
    if len(frames) >= 2 and frames[-1].t <= frames[-2].t:
        if frames[-1].t == frames[-2].t:
            raise ParseError(f"duplicate timestamp t={frames[-1].t}", line=lineno, source=src)
        raise ParseError(
            f"non-monotonic timestamp: t={frames[-1].t} after t={frames[-2].t}",
            line=lineno,
            source=src,
        )


def parse_session(
    source: Source,
    format: str = JSONL,
    step_labels: Optional[tuple[StepLabel, ...]] = None,
) -> Session:
    """Parse one session file (or open stream) in the given format."""
    if format not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {format!r}")
    stream, src, close = _open_text(source)
    try:
        if format == JSONL:
            header, frames = _parse_jsonl(stream, src)
        else:
            header, frames = _parse_csv(stream, src)
    finally:
        if close:
            stream.close()
    if not frames:
        raise ParseError("no frames in session", source=src)
    return Session(
        id=header["id"],
        operator=header["operator"],
        ordinal=header["ordinal"],
        frames=tuple(frames),
        sample_rate_hz=header["rate_hz"],
        coord_frame=header["coord_frame"],
        step_labels=step_labels,
    )


def _parse_jsonl(stream: IO[str], src: str) -> tuple[dict, list[FrameRecord]]:
    header = None
    frames: list[FrameRecord] = []
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed JSON: {exc.msg}", line=lineno, source=src)
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


def _parse_csv(stream: IO[str], src: str) -> tuple[dict, list[FrameRecord]]:
    first = stream.readline()
    lineno = 1
    if not first:
        raise ParseError("empty file: missing session header", source=src)
    if not first.lstrip().startswith("#"):
        raise ParseError("first line must be a '#' comment carrying the session header JSON",
                         line=1, source=src)
    try:
        header_obj = json.loads(first.lstrip()[1:])
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed header JSON: {exc.msg}", line=1, source=src)
    header = _parse_header(header_obj, 1, src)

    reader = csv.reader(stream)
    try:
        columns = next(reader)
    except StopIteration:
        raise ParseError("missing column header", source=src)
    lineno += 1
    if [c.strip() for c in columns] != list(FRAME_FIELDS):
        raise ParseError(f"column header must be {','.join(FRAME_FIELDS)}", line=lineno, source=src)

    frames: list[FrameRecord] = []
    for row in reader:
        lineno += 1
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
        frames.append(_frame_from_fields(fields, lineno, src))
        _check_monotonic(frames, lineno, src)
    return header, frames


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


def _frame_obj(f: FrameRecord) -> dict:
    return {
        "t": f.t,
        "ax": f.attention.x,
        "ay": f.attention.y,
        "hx": None if f.hand is None else f.hand.x,
        "hy": None if f.hand is None else f.hand.y,
        "touch": f.touching,
    }


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
        lines.extend(json.dumps(_frame_obj(f)) for f in s.frames)
        atomic_write_text(path, "\n".join(lines) + "\n")
        return
    if fmt != CSV:
        raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")
    buf = io.StringIO()
    buf.write("#" + json.dumps(_header_obj(s)) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(FRAME_FIELDS)
    for f in s.frames:
        writer.writerow([
            repr(f.t),
            repr(f.attention.x),
            repr(f.attention.y),
            "" if f.hand is None else repr(f.hand.x),
            "" if f.hand is None else repr(f.hand.y),
            "true" if f.touching else "false",
        ])
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
    irregular = 0
    times = s.times()
    for i in range(1, len(times)):
        dt = float(times[i] - times[i - 1])
        if dt > gap_threshold:
            report.warnings.append(
                f"sampling gap of {dt:.4f}s at t={times[i - 1]!r} (threshold {gap_threshold:.4f}s)"
            )
        elif not (0.8 * nominal <= dt <= 1.2 * nominal):
            irregular += 1
    if irregular:
        report.warnings.append(
            f"{irregular} sample intervals deviate more than 20% from 1/{rate} s"
        )

    touch_count = sum(1 for f in s.frames if f.touching)
    hand_frames = sum(1 for f in s.frames if f.hand is not None)
    if hand_frames == 0:
        report.warnings.append("no hand frames: hand never visible in this session")
    report.stats = {
        "frame_count": len(s.frames),
        "touch_count": touch_count,
        "hand_visible_fraction": hand_frames / len(s.frames),
        "duration_s": float(times[-1] - times[0]),
        "sample_rate_hz": s.sample_rate_hz,
    }
    return report
