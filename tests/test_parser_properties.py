"""Property tests for the session parser.

Round trip: ``write_session`` then ``parse_session`` gives an equal
Session, in both formats, for coordinates within ``COORD_MAX``; a
coordinate beyond it is rejected on its line.  Fuzzing: frame lines built from awkward values
give a Session or a line-numbered ParseError, never another exception.
Differential: the column parser agrees with the line-by-line reference
parser in ``reference_ingest`` -- equal columns, bit for bit (-0.0 is not
0.0), or the same error line and message.  One grammar: a CSV cell gives
the value, or the error, that the same text gives in a JSONL file.
"""

from __future__ import annotations

import contextlib
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
    # "0.5\n" is a CSV cell over two lines
    st.sampled_from(["1.5", " 2 ", "nan", "inf", "1e400", "1_0", "abc", "", "0x10", "0.5\n"]),
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
    _assert_matches_reference((jsonl_text if fmt == "jsonl" else csv_text)(rows), fmt)


# --- JSONL frame lines as text: plain ones are decoded by orjson ---------------

# numerals whose value json and orjson must agree on: subnormals, -0.0, the
# coordinate bound, and integers near 2^53, 2^63 and 2^64 and beyond
EDGE_NUMERALS = [
    *map(repr, (5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -0.0, 0.0, COORD_MAX, -COORD_MAX,
                math.nextafter(COORD_MAX, math.inf))),
    *(str(sign * (2 ** bits + d)) for bits in (53, 63, 64, 70) for d in (-1, 0, 1) for sign in (1, -1)),
    str(10 ** 30), "1" + "0" * 50, "1" + "0" * 400, "-0", "1E5", "1e+05", "2.5e-3", "0e0", "-0e-0",
]
# within the coordinate bound
tame_numerals = st.one_of(
    *[st.floats(-100.0, 100.0).map(repr)] * 3,
    st.sampled_from([n for n in EDGE_NUMERALS if abs(float(n)) <= COORD_MAX]),
)
# mostly within the coordinate bound, so that many files parse
numerals = st.one_of(
    *[tame_numerals] * 3,
    st.sampled_from(EDGE_NUMERALS),
    st.from_regex(r"-?(0|[1-9][0-9]{0,30})(\.[0-9]{1,30})?([eE][-+]?[0-9]{1,2})?", fullmatch=True),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
# a value where a number goes that every line still holds 12 quotes with
plain_oddities = st.sampled_from(["true", "false", "null", "[]", "[1.0]", "{}"])
# values and keys that make a line not plain
not_plain_values = st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", '"1.5"', '"x"'])
# json's recursion limit refuses this value, which orjson's depth limit of 1024 accepts
TOO_DEEP_FOR_JSON = "[" * 1000 + "]" * 1000
CHANGES = ("value", "extra key", "duplicate key", "nested duplicate", "escaped key",
           "non-ASCII padding", "non-ASCII inside", "BOM", "trailing data")


@st.composite
def frame_line(draw, t, wild):
    """One JSONL frame line, as text, for a frame at time ``t``: mostly
    plain, now and then with a change that makes it not plain; a ``wild``
    line's values may also be odd or beyond their bounds, while a tame
    line's pass every check."""
    hand = draw(st.booleans())
    number = tame_numerals
    if wild:
        number = numerals | plain_oddities if draw(st.integers(0, 9)) == 0 else numerals
    items = [
        ('"t"', draw(numerals) if wild and draw(st.integers(0, 9)) == 0 else repr(t)),
        ('"ax"', draw(number)),
        ('"ay"', draw(number)),
        ('"hx"', draw(number) if hand else "null"),
        ('"hy"', draw(number) if hand else "null"),
        ('"touch"', "true" if hand and draw(st.booleans()) else "false"),
    ]
    change = draw(st.sampled_from(CHANGES)) if draw(st.integers(0, 7)) == 0 else None
    k = draw(st.integers(0, 5))
    key = items[k][0]
    if change == "value":
        items[k] = (key, draw(not_plain_values))
    elif change == "extra key":
        items.append(('"x"', TOO_DEEP_FOR_JSON if draw(st.booleans()) else draw(numerals)))
    elif change in ("duplicate key", "nested duplicate"):
        nested = st.sampled_from(['{"t": [1, {"a": NaN}], "ax": 1e400}', TOO_DEEP_FOR_JSON])
        items.append((key, draw(numerals if change == "duplicate key" else nested)))
    elif change == "escaped key":
        items[k] = (f'"\\u{ord(key[1]):04x}{key[2:]}', items[k][1])
    items = draw(st.permutations(items))
    comma, colon = draw(st.sampled_from([", ", ","])), draw(st.sampled_from([": ", ":"]))
    line = "{" + comma.join(f"{key}{colon}{value}" for key, value in items) + "}"
    if change == "non-ASCII padding":
        line = draw(st.sampled_from(["\u00a0", "\u3000", ""])) + line + draw(st.sampled_from(["\u00a0", "\u2028"]))
    elif change == "non-ASCII inside":
        line = line.replace(comma, comma + "\u00a0", 1)
    elif change == "BOM":
        line = "\ufeff" + line
    elif change == "trailing data":
        line += draw(st.sampled_from([" x", "x", " {}", ",", " 1"]))
    return line


@st.composite
def jsonl_frame_text(draw):
    """A JSONL session file of frame lines as text, with blank lines, CRLF
    line ends and a BOM on the header line now and then; in a tame file
    only a change that makes a line not plain, or that BOM, can fail it."""
    times = sorted(draw(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=8, unique=True)))
    wild = draw(st.booleans())
    lines = [("\ufeff" if draw(st.integers(0, 19)) == 0 else "") + json.dumps(HEADER)]
    for t in times:
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
        lines.append(draw(frame_line(t, wild)))
    end = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    return end.join(lines) + end


@settings(SETTINGS, max_examples=400)
@given(text=jsonl_frame_text())
def test_jsonl_frame_lines_match_reference(text):
    # plain files take the orjson path, and the rest the json line loop;
    # either gives the reference's columns, or its error line and message
    _assert_matches_reference(text, "jsonl")


# --- CSV frame text: plain text is decoded by orjson as one JSON array ----------

# numerals whose value json and orjson must agree on in a CSV cell as in a
# JSONL line (-0 is the int 0, -0.0 the float), or that both refuse
CSV_NUMERALS = [*EDGE_NUMERALS, "-0", "-0.0", "-0e0", "-0E1", "0", "-1", "1e-05", "1e400", "-1e400"]
csv_numerals = st.one_of(*[tame_numerals] * 3, st.sampled_from(CSV_NUMERALS), numerals)
# cell text that is a JSON number only once unquoted or stripped, or no JSON
# number at all though float() reads some of it
CSV_ODDITIES = [" 1.5 ", "\t2\t", "+1", ".5", "1.", "1_0", "0x10", "null", "nan", "inf", "-inf",
                "true", "false", "[1]", "{}", "", "  ", '"1.5"', '"1,5"', '"2\n3"', "\ufeff1.5",
                "\uff11.\uff15", "1.5\x0b", "1" + "5" * 300]
# cells that a lowered field limit of 200 is below, and whose value is tame
LONG_CELLS = ["0." + "5" * 300, " " * 300 + "2.5"]
# the last, a cell that closes a row's JSON array early, is not false
TOUCH_CELLS = ["true", "false", " true ", "TRUE", "1", "", "null", '"false"']
CSV_CHANGES = ("cell", "long cell", "touch", "blank hand cell", "one hand cell", "empty row",
               "blank line", "cell count")


@st.composite
def csv_frame_row(draw, t, wild):
    """One CSV frame row, as text, for a frame at time ``t``: mostly plain,
    now and then with a change; a ``wild`` row's numerals may also be odd
    or beyond their bounds, while a tame row's pass every check."""
    hand = draw(st.booleans())
    number = csv_numerals if wild else tame_numerals
    cells = [
        draw(csv_numerals) if wild and draw(st.integers(0, 9)) == 0 else repr(t),
        draw(number),
        draw(number),
        draw(number) if hand else "",
        draw(number) if hand else "",
        "true" if hand and draw(st.booleans()) else "false",
    ]
    change = draw(st.sampled_from(CSV_CHANGES)) if draw(st.integers(0, 7)) == 0 else None
    if change == "cell":
        cells[draw(st.integers(0, 4))] = draw(st.sampled_from(CSV_ODDITIES))
    elif change == "long cell":
        cells[draw(st.integers(1, 2))] = draw(st.sampled_from(LONG_CELLS))
    elif change == "touch":
        cells[5] = draw(st.sampled_from(TOUCH_CELLS))
    elif change == "blank hand cell":
        cells[3] = cells[4] = draw(st.sampled_from(["", " ", "\t", "null"]))
    elif change == "one hand cell":
        cells[draw(st.integers(3, 4))] = ""
    elif change == "empty row":
        cells = [""] * 6
    elif change == "blank line":
        return draw(st.sampled_from(["", " ", "\t"]))
    elif change == "cell count":
        cells = cells[:draw(st.integers(1, 5))] if draw(st.booleans()) else cells + ["1.0"]
    return ",".join(cells)


@st.composite
def csv_frame_text(draw):
    """A CSV session file of frame rows as text, with CRLF line ends and a
    column header with spaces now and then; in a tame file only a change
    can fail it."""
    times = sorted(draw(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=8, unique=True)))
    wild = draw(st.booleans())
    columns = draw(st.sampled_from([",".join(FIELDS), ", ".join(FIELDS), " t,ax ,ay,hx,hy,touch",
                                    "t,ax,ay,hx,hy"]))
    lines = ["#" + json.dumps(HEADER), columns, *(draw(csv_frame_row(t, wild)) for t in times)]
    end = draw(st.sampled_from(["\n", "\n", "\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, "", end + end]))


@settings(SETTINGS, max_examples=400)
@given(text=csv_frame_text(), limit=st.sampled_from([None, None, 200]))
def test_csv_frame_text_matches_reference(text, limit):
    # plain text takes the orjson path, and the rest the csv_rows loop; either
    # gives the reference's columns, or its error line and message.  Under a
    # lowered field limit a long cell is over it, and its line too
    with field_size_limit(limit):
        _assert_matches_reference(text, "csv")


@contextlib.contextmanager
def field_size_limit(limit):
    """The csv module's field limit set to ``limit`` (None: kept) in the block."""
    saved = csv.field_size_limit()
    if limit is not None:
        csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(saved)


@pytest.mark.parametrize("cell", LONG_CELLS)
def test_a_cell_over_a_lowered_field_limit_is_refused_on_its_line(cell):
    rows = [f"{t},1.0,2.0,,,false" for t in ("0.0", "0.5")] + [f"1.0,{cell},2.0,,,false"]
    text = "\n".join([f"#{json.dumps(HEADER)}", ",".join(FIELDS), *rows]) + "\n"
    with field_size_limit(200):
        got = _outcome(parse_session, text, "csv")
        assert (got.line, str(got)) == (5, "stream:5: malformed CSV: field larger than field limit (200)")
        _assert_matches_reference(text, "csv")
    assert isinstance(_outcome(parse_session, text, "csv"), Session)


@pytest.mark.parametrize("cell", ["-0", "-0e0", "-0.0", "0"])
def test_a_minus_zero_cell_reads_as_json_reads_it(cell):
    # JSON reads -0 as the int 0, so only a float -0 keeps its sign, as in JSONL
    text = f"#{json.dumps(HEADER)}\n{','.join(FIELDS)}\n{cell},1,2,,,false\n0.5,{cell},{cell},{cell},{cell},true\n"
    s = parse_session(io.StringIO(text), format="csv")
    negative = cell in ("-0e0", "-0.0")
    assert np.signbit(s.times[0]) == negative
    assert np.signbit(s.attention_xy[1]).tolist() == [negative] * 2
    _assert_matches_reference(text, "csv")


# --- one grammar: a CSV cell holds the value the same text holds in JSONL --------

ONE_FRAME = {"t": "0.5", "ax": "1.0", "ay": "2.0", "hx": "3.0", "hy": "4.0", "touch": "false"}


def _files_with(field, text):
    """A JSONL and a CSV file of three frames whose second holds ``text`` as
    ``field``: on line 3 of the JSONL file and on line 4 of the CSV one."""
    first, last = dict(ONE_FRAME, t="0.0"), dict(ONE_FRAME, t="1.0")
    rows = [first, dict(ONE_FRAME, **{field: text}), last]
    jsonl = [json.dumps(HEADER), *("{" + ", ".join(f'"{k}": {row[k]}' for k in FIELDS) + "}" for row in rows)]
    csv_lines = ["#" + json.dumps(HEADER), ",".join(FIELDS), *(",".join(row[k] for k in FIELDS) for row in rows)]
    return "\n".join(jsonl) + "\n", "\n".join(csv_lines) + "\n"


def _message(err):
    """A ParseError's message without its source and line."""
    return str(err).split(": ", 1)[1]


@pytest.mark.parametrize("numeral", sorted(set(CSV_NUMERALS) | {"true", "false"}))
def test_a_csv_cell_reads_as_the_same_text_in_jsonl(numeral):
    for field in FIELDS:
        jsonl, csv_file = _files_with(field, numeral)
        want, got = _outcome(parse_session, jsonl, "jsonl"), _outcome(parse_session, csv_file, "csv")
        if isinstance(want, ParseError):
            assert isinstance(got, ParseError), (field, want)
            assert (got.line, _message(got)) == (want.line + 1, _message(want)), field
            continue
        assert isinstance(got, Session), (field, got)
        for column in ("times", "attention_xy", "hand_xy"):
            _assert_same_bits(getattr(got, column), getattr(want, column))
        assert got.touching_mask.tolist() == want.touching_mask.tolist()
        _assert_matches_reference(csv_file, "csv")


@pytest.mark.parametrize("oddity", CSV_ODDITIES)
def test_a_csv_cell_that_is_no_json_number_is_refused_as_its_text(oddity):
    cell = next(csv.reader(io.StringIO(oddity, newline="")), [""])[0].strip()  # as the csv module reads it
    try:
        value = json.loads(cell)
    except ValueError:
        value = cell
    for field in ("t", "ax", "ay", "hx", "hy"):
        if cell == "" and field in ("hx", "hy"):
            continue  # an empty hand cell is null
        jsonl, csv_file = _files_with(field, oddity)
        got = _outcome(parse_session, csv_file, "csv")
        if type(value) in (int, float):
            # a JSON number once stripped: the value JSONL holds for the stripped text
            want = _outcome(parse_session, _files_with(field, cell)[0], "jsonl")
            assert type(got) is type(want), field
            if isinstance(want, Session):
                assert got == want
            else:
                assert (got.line, _message(got)) == (want.line + 1, _message(want))
        else:
            assert isinstance(got, ParseError), field
            assert str(got) == f"stream:4: {field} is not a number: {value if type(value) is bool else cell!r}"
        _assert_matches_reference(csv_file, "csv")


@pytest.mark.parametrize("cell", TOUCH_CELLS)
def test_a_touch_cell_matches_reference(cell):
    _assert_matches_reference(_files_with("touch", cell)[1], "csv")


PLAIN_LINE = '{"t": %s, "ax": 1.0, "ay": 2.0, "hx": null, "hy": null, "touch": false}'


@pytest.mark.parametrize("line", [
    # a value json refuses and orjson takes, under an extra key or a repeated one
    PLAIN_LINE[:-1] % "0.2" + f', "x": {TOO_DEEP_FOR_JSON}}}',
    '{"t": %s, ' % TOO_DEEP_FOR_JSON + PLAIN_LINE[1:] % "0.2",
], ids=["extra key", "repeated key"])
def test_a_value_only_json_refuses_is_refused_on_its_line(line):
    text = "\n".join([json.dumps(HEADER), PLAIN_LINE % "0.1", line, PLAIN_LINE % "0.3"]) + "\n"
    got = _outcome(parse_session, text, "jsonl")
    assert isinstance(got, ParseError)
    assert (got.line, str(got)) == (3, "stream:3: malformed JSON: nested too deeply")
    _assert_matches_reference(text, "jsonl")


def _assert_matches_reference(text, fmt):
    got = _outcome(parse_session, text, fmt)
    want = _outcome(reference_ingest.parse, text, fmt)
    if isinstance(want, ParseError):
        assert isinstance(got, ParseError), f"accepted what the reference rejects: {want}"
        assert (got.line, str(got)) == (want.line, str(want))
        return
    assert isinstance(got, Session), f"rejected what the reference accepts: {got}"
    frames = want[1]
    nan = (math.nan, math.nan)
    _assert_same_bits(got.times, [f.t for f in frames])
    _assert_same_bits(got.attention_xy, np.reshape([(f.attention.x, f.attention.y) for f in frames], (-1, 2)))
    _assert_same_bits(got.hand_xy, np.reshape([nan if f.hand is None else (f.hand.x, f.hand.y)
                                               for f in frames], (-1, 2)))
    assert got.touching_mask.tolist() == [f.touching for f in frames]


def _assert_same_bits(got, want):
    """Equal floats, where -0.0 is not 0.0 and NaN is where the other has NaN."""
    want = np.asarray(want, dtype=float)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


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
