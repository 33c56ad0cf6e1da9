"""Property tests for the session parser.

Round trip: ``write_session`` then ``parse_session`` gives an equal
Session, in both formats, for coordinates within ``COORD_MAX``; a
coordinate beyond it is rejected on its line.  Fuzzing: frame lines built from awkward values
give a Session or a line-numbered ParseError, never another exception.
Differential: the column parser agrees with the line-by-line reference
parser in ``reference_ingest`` -- equal columns, or the same error line and
message.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import reference_ingest
from conftest import frame_columns
from opgaze import FrameRecord, ParseError, Point2, Session, parse_session, write_session
from opgaze.ingest import COORD_MAX

HEADER = {"id": "s1", "operator": "op1", "ordinal": "earlier", "rate_hz": 30.0, "coord_frame": "scene"}
FIELDS = ("t", "ax", "ay", "hx", "hy", "touch")
# bounded, and no deadline: the speed of a shared test host drifts
SETTINGS = settings(max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

coords = st.one_of(
    st.floats(-COORD_MAX, COORD_MAX),
    st.sampled_from([1e-300, -1e-300, 0.1 + 0.2, -0.0, COORD_MAX, -COORD_MAX, -123456789.125, 5e-324]),
)
beyond = st.builds(
    lambda v, negative: -v if negative else v,
    st.one_of(st.just(math.nextafter(COORD_MAX, math.inf)),
              st.floats(min_value=COORD_MAX, exclude_min=True, allow_infinity=False)),
    st.booleans(),
)


@st.composite
def sessions(draw):
    n = draw(st.integers(1, 25))
    steps = draw(st.lists(st.floats(1e-6, 10.0), min_size=n, max_size=n))
    t = draw(st.sampled_from([0.0, 1e-300, 0.1 + 0.2, 12345.678]))
    frames = []
    for step in steps:
        hand = draw(st.none() | st.builds(Point2, coords, coords))
        touching = hand is not None and draw(st.booleans())
        frames.append(FrameRecord(t, Point2(draw(coords), draw(coords)), hand, touching))
        t += step
    return Session(id="s1", operator="op1", ordinal=draw(st.sampled_from(["earlier", "later"])),
                   **frame_columns(frames),
                   sample_rate_hz=draw(st.sampled_from([30.0, 0.1 + 0.2, 1e-3])))


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@SETTINGS
@given(s=sessions())
def test_write_then_parse_is_identity(tmp_path, fmt, s):
    path = tmp_path / f"s1.{fmt}"
    write_session(s, path, format=fmt)
    back = parse_session(path, format=fmt)
    assert back == s
    assert Session(id=s.id, operator=s.operator, ordinal=s.ordinal, **frame_columns(back.frames),
                   sample_rate_hz=s.sample_rate_hz) == s


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@SETTINGS
@given(value=beyond, index=st.integers(0, 5), key=st.sampled_from(["ax", "ay", "hx", "hy"]))
def test_coordinate_beyond_the_domain_is_rejected_on_its_line(fmt, value, index, key):
    rows = [{"t": i / 10, "ax": 1.0, "ay": -2.0, "hx": 3.0, "hy": 4.0, "touch": i % 2 == 0}
            for i in range(6)]
    rows[index][key] = value
    text = (jsonl_text if fmt == "jsonl" else csv_text)(rows)
    got = _outcome(parse_session, text, fmt)
    assert isinstance(got, ParseError)
    assert got.line == index + (2 if fmt == "jsonl" else 3)
    assert f"|{key}| exceeds 1e+50" in str(got)
    assert (got.line, str(got)) == _error_of(_outcome(reference_ingest.parse, text, fmt))


# --- fuzzed frames -------------------------------------------------------------

numbers = st.one_of(
    st.floats(-1e3, 1e3),
    st.floats(),  # NaN, +-inf, huge
    st.integers(-5, 100),
    st.sampled_from([10 ** 400, -(10 ** 400), 2 ** 64 + 1, True, False]),
    st.sampled_from(["1.5", " 2 ", "nan", "inf", "1e400", "1_0", "abc", "", "0x10"]),
    st.none(),
    st.just([1.0]),
)


@st.composite
def frame_values(draw, t):
    """One frame's field values, mostly valid, with awkward ones mixed in."""
    hand = draw(st.booleans())
    values = {
        "t": t,
        "ax": draw(st.floats(-50, 50)),
        "ay": draw(st.floats(-50, 50)),
        "hx": draw(st.floats(-50, 50)) if hand else None,
        "hy": draw(st.floats(-50, 50)) if hand else None,
        "touch": hand and draw(st.booleans()),
    }
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        values[draw(st.sampled_from(FIELDS))] = draw(numbers | st.booleans())
    return values


@st.composite
def frame_tables(draw):
    """Rows of frame values with mostly increasing times, some repeats and
    steps back, and now and then a structural fault (an int) or a blank."""
    rows = []
    t = draw(st.sampled_from([0.0, -0.0, 0.5, -0.1]))
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 19))
        if kind == 0:
            rows.append(None)  # blank line
        elif kind == 1:
            rows.append(draw(st.integers(0, 8)))  # structural fault, per format
        else:
            rows.append(draw(frame_values(t)))
            t += draw(st.sampled_from([0.1, 0.1, 0.1, 0.0, -0.05, 1e-17]))
    return rows


def jsonl_text(rows, header=HEADER):
    lines = [json.dumps(header)]
    faults = ["{not json", "[1, 2]", '{"t": 0.0}', "1" + "0" * 5000, "\ufeff{}", '{"t": 1} 2', "nul",
              "-", '{"t": 1e999}']
    for row in rows:
        if row is None:
            lines.append("   ")
        elif isinstance(row, int):
            lines.append(faults[row])
        else:
            lines.append(json.dumps(row))
    return "\n".join(lines) + "\n"


def csv_text(rows, header=HEADER):
    buf = io.StringIO()
    buf.write("#" + json.dumps(header) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(FIELDS)
    for row in rows:
        if row is None:
            writer.writerow([" ", ""] * 3)
        elif isinstance(row, int):
            writer.writerow(["0.0"] * (row % 4 + 3))  # wrong cell count
        else:
            writer.writerow(["" if row[k] is None else _cell(row[k]) for k in FIELDS])
    return buf.getvalue()


def _cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return value if isinstance(value, str) else json.dumps(value)


def _outcome(parse, text, fmt):
    try:
        return parse(io.StringIO(text), format=fmt)
    except ParseError as exc:
        return exc


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@SETTINGS
@given(rows=frame_tables())
def test_fuzzed_frames_give_session_or_line_numbered_error(fmt, rows):
    got = _outcome(parse_session, (jsonl_text if fmt == "jsonl" else csv_text)(rows), fmt)
    if isinstance(got, ParseError):
        assert got.line is not None or str(got).endswith("no frames in session")
    else:
        assert isinstance(got, Session)


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@settings(SETTINGS, max_examples=250)
@given(rows=frame_tables())
def test_column_parser_matches_reference(fmt, rows):
    text = (jsonl_text if fmt == "jsonl" else csv_text)(rows)
    got = _outcome(parse_session, text, fmt)
    want = _outcome(reference_ingest.parse, text, fmt)
    if isinstance(want, ParseError):
        assert isinstance(got, ParseError), f"accepted what the reference rejects: {want}"
        assert (got.line, str(got)) == (want.line, str(want))
        return
    assert isinstance(got, Session), f"rejected what the reference accepts: {got}"
    frames = want[1]
    nan = (math.nan, math.nan)
    assert np.array_equal(got.times, [f.t for f in frames])
    assert np.array_equal(got.attention_xy, np.reshape([(f.attention.x, f.attention.y) for f in frames], (-1, 2)))
    assert np.array_equal(got.hand_xy, np.reshape([nan if f.hand is None else (f.hand.x, f.hand.y)
                                                   for f in frames], (-1, 2)), equal_nan=True)
    assert got.touching_mask.tolist() == [f.touching for f in frames]


header_values = st.one_of(numbers, st.text(max_size=4), st.sampled_from(["earlier", "later"]))


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@SETTINGS
@given(key=st.sampled_from(sorted(HEADER)), value=header_values, rows=frame_tables())
def test_fuzzed_header_gives_session_or_line_numbered_error(fmt, key, value, rows):
    header = dict(HEADER, **{key: value})
    text = (jsonl_text if fmt == "jsonl" else csv_text)(rows, header)
    got = _outcome(parse_session, text, fmt)
    if isinstance(got, ParseError):
        assert got.line is not None or str(got).endswith("no frames in session")
        assert (got.line, str(got)) == _error_of(_outcome(reference_ingest.parse, text, fmt))
    else:
        assert isinstance(got, Session)


def _error_of(outcome):
    assert isinstance(outcome, ParseError), f"reference accepted: {outcome}"
    return outcome.line, str(outcome)
