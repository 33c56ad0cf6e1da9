"""Parsing, validation, and serialization round-trips."""

from __future__ import annotations

import dataclasses
import io
import json
import math
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from opgaze import (
    ParseError,
    load_ratings,
    load_step_labels,
    parse_session,
    validate_session,
    write_ratings,
    write_session,
    write_step_labels,
)
from opgaze import ingest
from opgaze.ingest import atomic_write_text, detect_format
from opgaze.session import DifficultyRatings, Rating, StepLabel

import reference_ingest
from conftest import frame, make_session

HEADER = '{"id": "s1", "operator": "op1", "ordinal": "earlier", "rate_hz": 30.0, "coord_frame": "scene"}'


def jsonl(*frame_lines: str) -> io.StringIO:
    return io.StringIO("\n".join((HEADER,) + frame_lines) + "\n")


class TestParseJsonl:
    def test_three_frames(self):
        s = parse_session(jsonl(
            '{"t": 0.0, "ax": 1.0, "ay": 2.0, "hx": null, "hy": null, "touch": false}',
            '{"t": 0.033, "ax": 1.0, "ay": 2.0, "hx": 5.0, "hy": 6.0, "touch": false}',
            '{"t": 0.066, "ax": 1.0, "ay": 2.0, "hx": 5.0, "hy": 6.0, "touch": true}',
        ))
        assert s.id == "s1"
        assert len(s.frames) == 3
        assert s.frames[0].hand is None
        assert s.frames[2].touching

    def test_contact_without_hand(self):
        with pytest.raises(ParseError, match="contact without hand"):
            parse_session(jsonl('{"t": 0.0, "ax": 0, "ay": 0, "hx": null, "hy": null, "touch": true}'))

    def test_duplicate_timestamp_with_line_number(self):
        with pytest.raises(ParseError, match="duplicate timestamp") as exc:
            parse_session(jsonl(
                '{"t": 0.0, "ax": 0, "ay": 0, "hx": null, "hy": null, "touch": false}',
                '{"t": 0.033, "ax": 0, "ay": 0, "hx": null, "hy": null, "touch": false}',
                '{"t": 0.033, "ax": 0, "ay": 0, "hx": null, "hy": null, "touch": false}',
            ))
        assert exc.value.line == 4

    def test_malformed_json_line_number(self):
        with pytest.raises(ParseError, match="malformed JSON") as exc:
            parse_session(jsonl("{not json"))
        assert exc.value.line == 2

    def test_non_finite_coordinate_rejected(self):
        with pytest.raises(ParseError, match="not finite"):
            parse_session(jsonl('{"t": 0.0, "ax": NaN, "ay": 0, "hx": null, "hy": null, "touch": false}'))

    def test_half_null_hand_rejected(self):
        with pytest.raises(ParseError, match="null together"):
            parse_session(jsonl('{"t": 0.0, "ax": 0, "ay": 0, "hx": 1.0, "hy": null, "touch": false}'))

    def test_missing_header_field(self):
        stream = io.StringIO('{"id": "s1"}\n')
        with pytest.raises(ParseError, match="missing fields"):
            parse_session(stream)

    def test_empty_file(self):
        with pytest.raises(ParseError, match="missing session header"):
            parse_session(io.StringIO(""))

    def test_no_frames(self):
        with pytest.raises(ParseError, match="no frames"):
            parse_session(io.StringIO(HEADER + "\n"))


class TestHugeNumbers:
    """A JSON integer too large for a float is a line-numbered ParseError.

    400 digits overflow ``float()``; 5,000 digits exceed Python's int-digit
    limit already while the line is decoded.
    """

    FRAME = '{{"t": {t}, "ax": 0, "ay": 0, "hx": null, "hy": null, "touch": false}}'

    @pytest.mark.parametrize("digits", [400, 5000])
    def test_frame_time(self, digits):
        with pytest.raises(ParseError) as exc:
            parse_session(jsonl(self.FRAME.format(t=0.0), self.FRAME.format(t="1" + "0" * digits)))
        assert exc.value.line == 3

    @pytest.mark.parametrize("digits", [400, 5000])
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_header_rate(self, digits, fmt):
        header = HEADER.replace("30.0", "1" + "0" * digits)
        text = (header + "\n" + self.FRAME.format(t=0.0) + "\n" if fmt == "jsonl"
                else "#" + header + "\nt,ax,ay,hx,hy,touch\n0.0,0,0,,,false\n")
        with pytest.raises(ParseError) as exc:
            parse_session(io.StringIO(text), format=fmt)
        assert exc.value.line == 1

    def test_400_digits_are_not_finite(self):
        with pytest.raises(ParseError, match="t is not finite"):
            parse_session(jsonl(self.FRAME.format(t="1" + "0" * 400)))


class TestRateBound:
    """A header rate above ``RATE_MAX`` is rejected on line 1, as a
    coordinate beyond ``COORD_MAX`` is on its line."""

    FRAME = '{"t": 0.0, "ax": 1e50, "ay": -1e50, "hx": null, "hy": null, "touch": false}'

    @staticmethod
    def _rate_text(rate: float, fmt: str) -> str:
        header = HEADER.replace("30.0", repr(rate))
        return (header + "\n" + TestRateBound.FRAME + "\n" if fmt == "jsonl"
                else "#" + header + "\nt,ax,ay,hx,hy,touch\n0.0,1e50,-1e50,,,false\n")

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_rate_at_rate_max_parses(self, fmt):
        s = parse_session(io.StringIO(self._rate_text(ingest.RATE_MAX, fmt)), format=fmt)
        assert s.sample_rate_hz == 1e100

    @pytest.mark.parametrize("rate", [math.nextafter(1e100, math.inf), 1e300])
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_rate_beyond_rate_max_is_rejected_on_line_1(self, fmt, rate):
        with pytest.raises(ParseError) as exc:
            parse_session(io.StringIO(self._rate_text(rate, fmt)), format=fmt)
        assert str(exc.value) == f"stream:1: rate_hz exceeds 1e+100: {rate!r}"


class TestJsonNumbers:
    """A JSONL frame's ``t``, ``ax``, ``ay``, ``hx`` and ``hy``, and the
    header's ``rate_hz`` in both formats, must be JSON numbers: a bool or a
    string is rejected on its line, by the reference parser as well."""

    FRAME = {"t": 0.0, "ax": 1.0, "ay": 2.0, "hx": 3.0, "hy": 4.0, "touch": False}

    @staticmethod
    def _raises(text: str, fmt: str = "jsonl") -> str:
        with pytest.raises(ParseError) as exc:
            parse_session(io.StringIO(text), format=fmt)
        with pytest.raises(ParseError) as ref:
            reference_ingest.parse(io.StringIO(text), format=fmt)
        assert (ref.value.line, str(ref.value)) == (exc.value.line, str(exc.value))
        return str(exc.value)

    @pytest.mark.parametrize("value", [True, False, "2", "1_0", " 1.5 ", "nan"])
    @pytest.mark.parametrize("key", ["t", "ax", "ay", "hx", "hy"])
    def test_frame_value_that_is_not_a_number(self, key, value):
        bad = {**self.FRAME, "t": 0.1, key: value}
        text = jsonl(json.dumps(self.FRAME), json.dumps(bad)).getvalue()
        assert self._raises(text) == f"stream:3: {key} is not a number: {value!r}"

    def test_first_value_that_is_not_a_number_is_named(self):
        text = jsonl('{"t": false, "ax": true, "ay": "2", "hx": null, "hy": null, "touch": false}')
        assert self._raises(text.getvalue()) == "stream:2: t is not a number: False"

    @pytest.mark.parametrize("rate", [True, "30"])
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_header_rate_that_is_not_a_number(self, fmt, rate):
        header = HEADER.replace("30.0", json.dumps(rate))
        text = (header + "\n" + json.dumps(self.FRAME) + "\n" if fmt == "jsonl"
                else "#" + header + "\nt,ax,ay,hx,hy,touch\n0.0,1,2,3,4,false\n")
        assert self._raises(text, fmt) == f"stream:1: rate_hz is not a number: {rate!r}"


class TestHeaderStrings:
    """The header's ``id``, ``operator`` and ``coord_frame`` must be JSON
    strings, in both formats: any other value is rejected on the header's
    line, naming the field, by the reference parser as well."""

    @pytest.mark.parametrize("value", [None, 7, 1.5, True, ["s1"], {"id": "s1"}])
    @pytest.mark.parametrize("key", ["id", "operator", "coord_frame"])
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_header_value_that_is_not_a_string(self, fmt, key, value):
        header = json.dumps({**json.loads(HEADER), key: value})
        text = (header + "\n" + json.dumps(TestJsonNumbers.FRAME) + "\n" if fmt == "jsonl"
                else "#" + header + "\nt,ax,ay,hx,hy,touch\n0.0,1,2,3,4,false\n")
        assert TestJsonNumbers._raises(text, fmt) == f"stream:1: {key} must be a string, got {value!r}"


class TestReadHeader:
    """``read_header`` reads a session file's header as ``parse_session``
    does, and no further: the same fields, or the same error on the same line."""

    CSV_BODY = "t,ax,ay,hx,hy,touch\n0.0,1,2,3,4,false\n"

    @staticmethod
    def _write(tmp_path: Path, text: str, fmt: str) -> Path:
        path = tmp_path / f"s.{fmt}"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        return path

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_header_of_a_file_whose_frames_do_not_parse(self, tmp_path, fmt):
        text = (f"\n\n{HEADER}\n{{not json\n" if fmt == "jsonl"
                else f"#{HEADER}\n{self.CSV_BODY}0.1,1,2,3,4,maybe\n")
        path = self._write(tmp_path, text, fmt)
        assert ingest.read_header(path, fmt) == {
            "id": "s1", "operator": "op1", "ordinal": "earlier", "rate_hz": 30.0, "coord_frame": "scene"}
        with pytest.raises(ParseError) as exc:
            parse_session(path, fmt)
        assert exc.value.line == 4

    @pytest.mark.parametrize("fmt, text", [
        ("jsonl", ""),
        ("jsonl", "\n  \n"),
        ("jsonl", "{not json\n"),
        ("jsonl", "\n\n" + HEADER.replace('"earlier"', '"middle"') + "\n"),
        ("jsonl", "[1]\n"),
        ("jsonl", HEADER[:-1] + ', "x": "\udce9"}\n'),
        ("jsonl", HEADER.replace('"s1"', "null") + "\n"),
        ("csv", ""),
        ("csv", HEADER + "\n"),
        ("csv", "#{not json\n"),
        ("csv", "#" + HEADER.replace("30.0", "-1") + "\n"),
        ("csv", "#" + HEADER.replace('"scene"', "3") + "\n"),
    ])
    def test_bad_header_is_the_error_parse_session_raises(self, tmp_path, fmt, text):
        path = self._write(tmp_path, text + (self.CSV_BODY if fmt == "csv" and text else ""), fmt)
        with pytest.raises(ParseError) as header:
            ingest.read_header(path, fmt)
        with pytest.raises(ParseError) as parse:
            parse_session(path, fmt)
        assert (header.value.line, str(header.value)) == (parse.value.line, str(parse.value))


class TestTimeBound:
    """A frame time above ``TIME_MAX`` is rejected on its line, in both
    formats, as a coordinate beyond ``COORD_MAX`` is."""

    @staticmethod
    def _text(t: float, fmt: str) -> str:
        """Two frames, the second at ``t``: on line 3 in JSONL, on line 4 in CSV."""
        if fmt == "jsonl":
            line = '{{"t": {!r}, "ax": 1.0, "ay": 2.0, "hx": null, "hy": null, "touch": false}}'
            return "\n".join([HEADER, line.format(0.0), line.format(t)]) + "\n"
        return "#" + HEADER + "\nt,ax,ay,hx,hy,touch\n0.0,1.0,2.0,,,false\n" + f"{t!r},1.0,2.0,,,false\n"

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_time_at_time_max_parses(self, fmt):
        s = parse_session(io.StringIO(self._text(ingest.TIME_MAX, fmt)), format=fmt)
        assert s.times.tolist() == [0.0, 1e150]

    @pytest.mark.parametrize("t", [math.nextafter(1e150, math.inf), 1e300])
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_time_beyond_time_max_is_rejected_on_its_line(self, fmt, t):
        text = self._text(t, fmt)
        with pytest.raises(ParseError) as exc:
            parse_session(io.StringIO(text), format=fmt)
        raw = t if fmt == "jsonl" else repr(t)  # a CSV cell is read as text
        assert str(exc.value) == f"stream:{3 if fmt == 'jsonl' else 4}: t exceeds 1e+150: {raw!r}"
        with pytest.raises(ParseError) as want:
            reference_ingest.parse(io.StringIO(text), fmt)
        assert str(want.value) == str(exc.value)


class TestParserEscapes:
    """Bytes that are not UTF-8, JSON nested past the recursion limit and a
    CSV cell over the csv module's field limit are line-numbered ParseErrors,
    and an earlier line's error still comes first."""

    FRAME = '{{"t": {t}, "ax": 0, "ay": 0, "hx": null, "hy": null, "touch": false}}'
    CSV_HEAD = "#" + HEADER + "\nt,ax,ay,hx,hy,touch\n"

    def _frames(self, n: int) -> list[str]:
        return [self.FRAME.format(t=i / 10) for i in range(n)]

    def _raises(self, data: bytes, fmt: str, tmp_path=None) -> ParseError:
        source = io.BytesIO(data)
        if tmp_path is not None:
            source = tmp_path / f"s.{fmt}"
            source.write_bytes(data)
        with pytest.raises(ParseError) as exc:
            parse_session(source, format=fmt)
        return exc.value

    @pytest.mark.parametrize("on_disk", [False, True])
    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_not_utf8_on_its_line(self, tmp_path, on_disk, newline):
        lines = [HEADER.encode()] + [f.encode() for f in self._frames(4)]
        lines[3] += b" \xff"
        err = self._raises(newline.join(lines) + newline, "jsonl", tmp_path if on_disk else None)
        assert (err.line, "not UTF-8" in str(err)) == (4, True)

    def test_not_utf8_past_the_first_read_chunk(self, tmp_path):
        lines = [HEADER.encode()] + [f.encode() for f in self._frames(2000)]
        lines[1500] = lines[1500].replace(b"0,", b"\xc3\x28,", 1)
        err = self._raises(b"\n".join(lines) + b"\n", "jsonl", tmp_path)
        assert (err.line, "not UTF-8" in str(err)) == (1501, True)

    @pytest.mark.parametrize("earlier, message", [
        ("{not json", "malformed JSON"),
        ('{"t": -1, "ax": 0, "ay": 0, "hx": null, "hy": null, "touch": false}', "t must be >= 0"),
        ('{"t": 0.0}', "frame missing fields"),
    ])
    def test_earlier_line_error_wins_over_bad_bytes(self, earlier, message):
        lines = [HEADER, self.FRAME.format(t=0.0), earlier, self.FRAME.format(t=0.5)]
        data = "\n".join(lines).encode() + b"\n\xe9\n"
        err = self._raises(data, "jsonl")
        assert (err.line, message in str(err)) == (3, True)

    def test_bad_bytes_win_over_later_line_error(self):
        data = (HEADER + "\n" + self.FRAME.format(t=0.0)).encode() + b"\xe9\n{not json\n"
        err = self._raises(data, "jsonl")
        assert (err.line, "not UTF-8" in str(err)) == (2, True)

    @pytest.mark.parametrize("lineno", [1, 2, 4])
    def test_csv_not_utf8(self, lineno):
        lines = self.CSV_HEAD.encode().splitlines() + [b"0.0,0,0,,,false", b"0.1,0,0,,,false"]
        lines[lineno - 1] += b"\x80"
        err = self._raises(b"\n".join(lines) + b"\n", "csv")
        assert (err.line, "not UTF-8" in str(err)) == (lineno, True)

    @pytest.mark.parametrize("rows, lineno", [
        (b'"0.0\n\xe9",0,0,,,false\n', 4),  # the quoted cell of line 3 goes on into line 4
        (b'0.0,0,"0\n\n\xe9",,,false\n', 5),  # a row from line 3 to line 5
        (b'0.0,0,0,,,false\n"0.1\n\n\xe9",0,0,,,false\n', 6),
    ])
    def test_csv_not_utf8_inside_a_quoted_cell_over_lines(self, rows, lineno):
        # the row the bad byte splits is not judged on the part before the byte
        err = self._raises(self.CSV_HEAD.encode() + rows, "csv")
        assert (err.line, "not UTF-8" in str(err)) == (lineno, True)

    @pytest.mark.parametrize("rows, lineno", [
        (b"0.0,0\n\xe9\n", 3),
        (b'"0.0\n",0\n\xe9\n', 3),  # a quoted cell over lines 3 and 4, closed before the byte
        (b'0.0,0,0,,,false\n"0.1\n"\n0.2,\xe9\n', 4),
    ])
    def test_csv_row_that_ends_before_the_bad_byte_is_judged(self, rows, lineno):
        err = self._raises(self.CSV_HEAD.encode() + rows, "csv")
        assert (err.line, "expected 6 cells" in str(err)) == (lineno, True)

    def test_header_not_utf8(self):
        err = self._raises(HEADER.encode()[:-1] + b'\xe9"}\n' + self._frames(1)[0].encode(), "jsonl")
        assert (err.line, "not UTF-8" in str(err)) == (1, True)

    @pytest.mark.parametrize("lineno", [1, 3])
    def test_nested_too_deeply(self, lineno):
        lines = [HEADER] + self._frames(3)
        lines[lineno - 1] = "[" * 100_000
        with pytest.raises(ParseError, match="malformed JSON: nested too deeply") as exc:
            parse_session(io.StringIO("\n".join(lines) + "\n"))
        assert exc.value.line == lineno

    def test_csv_header_nested_too_deeply(self):
        text = "#" + "[" * 100_000 + "\nt,ax,ay,hx,hy,touch\n0.0,0,0,,,false\n"
        with pytest.raises(ParseError, match="malformed header JSON: nested too deeply") as exc:
            parse_session(io.StringIO(text), format="csv")
        assert exc.value.line == 1

    @pytest.mark.parametrize("earlier_bad", [False, True])
    def test_csv_cell_over_field_limit(self, earlier_bad):
        rows = ["0.0,0,0,,,false", "-1,0,0,,,false" if earlier_bad else "0.1,0,0,,,false",
                "0.2,0,0,," + "9" * 140_000 + ",false"]
        with pytest.raises(ParseError) as exc:
            parse_session(io.StringIO(self.CSV_HEAD + "\n".join(rows) + "\n"), format="csv")
        if earlier_bad:
            assert (exc.value.line, "t must be >= 0" in str(exc.value)) == (4, True)
        else:
            assert (exc.value.line, "field larger than field limit" in str(exc.value)) == (5, True)

    def test_csv_lines_count_a_quoted_cell_over_two_lines(self):
        # the first frame's t cell spans lines 3 and 4
        rows = '"0.1\n",1,1,,,false\n0.2,1,1,,,false\n0.3,1,1,,,maybe\n'
        with pytest.raises(ParseError) as exc:
            parse_session(io.StringIO(self.CSV_HEAD + rows), format="csv")
        assert str(exc.value) == "stream:6: touch must be 'true' or 'false', got 'maybe'"
        s = parse_session(io.StringIO(self.CSV_HEAD + rows.replace("maybe", "false")), format="csv")
        assert s.times.tolist() == [0.1, 0.2, 0.3]

    def test_csv_cell_over_field_limit_after_a_quoted_line_break(self):
        rows = '"0.1\n",1,1,,,false\n0.2,0,0,,' + "9" * 140_000 + ",false\n"
        with pytest.raises(ParseError, match="field larger than field limit") as exc:
            parse_session(io.StringIO(self.CSV_HEAD + rows), format="csv")
        assert exc.value.line == 5

    def test_csv_column_header_over_field_limit(self):
        text = "#" + HEADER + "\n" + "t" * 140_000 + "\n0.0,0,0,,,false\n"
        with pytest.raises(ParseError, match="field larger than field limit") as exc:
            parse_session(io.StringIO(text), format="csv")
        assert exc.value.line == 2


class TestRoundTrip:
    def _session(self):
        return make_session([
            frame(0.0, ax=1.25, ay=-2.5),
            frame(0.1, ax=0.1, ay=0.2, hx=3.3, hy=4.4),
            frame(0.2, ax=0.0, ay=0.0, hx=5.0, hy=5.0, touch=True),
        ], rate=10.0)

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_serialize_parse_identity(self, tmp_path, fmt):
        s = self._session()
        path = tmp_path / f"s1.{fmt}"
        write_session(s, path, format=fmt)
        back = parse_session(path, format=fmt)
        assert back == s

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("bad_id", ["", ".", "..", "../../escaped", "a/b", "/abs", "a\\b", "a\0b",
                                        "a\ud800b", pytest.param("x" * 250, id="250_bytes")])
    def test_id_that_is_no_file_name_rejected_at_line_1(self, tmp_path, fmt, bad_id):
        path = tmp_path / f"s1.{fmt}"
        write_session(dataclasses.replace(self._session(), id=bad_id), path, format=fmt)
        with pytest.raises(ParseError, match="session id") as exc:
            parse_session(path, format=fmt)
        assert exc.value.line == 1

    def test_detect_format(self):
        assert detect_format("a/b.csv") == "csv"
        assert detect_format("a/b.jsonl") == "jsonl"

    def test_csv_missing_hand_is_empty_cell(self, tmp_path):
        path = tmp_path / "s1.csv"
        write_session(self._session(), path, format="csv")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert json.loads(lines[0][1:])["id"] == "s1"
        assert lines[1] == "t,ax,ay,hx,hy,touch"
        assert ",,," in lines[2]  # hx and hy empty, not 0

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "payload")
        assert target.read_text() == "payload"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


@st.composite
def step_rows(draw) -> list[str]:
    """Rows of a step-label sidecar: disjoint intervals, often touching, in
    time order or shuffled, among which drawn rows may repeat, nest in or
    span earlier ones, and maybe one malformed row anywhere, before or after
    the first overlap.  Times are quarters, so every bound is exact."""
    spans, t = [], 0
    for width, gap in draw(st.lists(st.tuples(st.integers(1, 4), st.integers(0, 2)), max_size=25)):
        spans.append((t + gap, t + gap + width))
        t += gap + width
    if draw(st.booleans()):
        spans = draw(st.permutations(spans))
    for _ in range(draw(st.integers(0, 3))):
        if spans and draw(st.booleans()):
            extra = draw(st.sampled_from(spans))
        else:
            start = draw(st.integers(0, t + 2))
            extra = (start, start + draw(st.integers(1, 12)))
        spans.insert(draw(st.integers(0, len(spans))), extra)
    rows = [f"{a / 4!r},{b / 4!r},s{k}" for k, (a, b) in enumerate(spans)]
    if draw(st.booleans()):
        bad = draw(st.sampled_from(["x,1.0,bad", "2.0,1.0,bad", "1.0,nan,bad", "1.0,2.0"]))
        rows.insert(draw(st.integers(0, len(rows))), bad)
    return rows


class TestSidecars:
    def test_step_labels_round_trip(self, tmp_path):
        # intervals are half-open, so steps that touch do not overlap, in either order
        labels = (StepLabel(2.0, 4.5, "step_02"), StepLabel(0.0, 2.0, "step_01"),
                  StepLabel(4.5, 5.0, "step_03"))
        path = tmp_path / "s.steps.csv"
        write_step_labels(labels, path)
        assert load_step_labels(path) == labels

    def test_ratings_round_trip(self, tmp_path):
        ratings = DifficultyRatings(by_step={
            "step_01": (Rating("e01", "expert", -5), Rating("b01", "beginner", 2)),
        })
        path = tmp_path / "ratings.csv"
        write_ratings(ratings, path)
        assert load_ratings(path) == ratings

    def test_bad_score_reports_line(self, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_text("step_id,rater_id,role,score\ns1,e01,expert,9\n")
        with pytest.raises(ParseError) as exc:
            load_ratings(path)
        assert exc.value.line == 2

    def test_bad_role_rejected(self, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_text("s1,e01,manager,1\n")
        with pytest.raises(ParseError, match="role"):
            load_ratings(path)

    @pytest.mark.parametrize("rows, line, message", [
        # in file order, the row that overlaps any earlier row's interval
        ("0.0,3.0,step_01\n3.0,6.0,step_02\n0.5,3.0,step_xx\n", 4,
         "step 'step_xx' overlaps step 'step_01' of line 2"),
        ("3.0,6.0,step_02\n0.0,3.0,step_01\n2.0,4.0,step_xx\n", 4,
         "step 'step_xx' overlaps step 'step_02' of line 2"),
        ("0.0,1.0,a\n2.0,3.0,b\n0.0,9.0,c\n", 4, "step 'c' overlaps step 'a' of line 2"),
    ])
    def test_overlapping_step_is_an_error_on_its_line(self, tmp_path, rows, line, message):
        path = tmp_path / "s.steps.csv"
        path.write_text("start_t,end_t,step_id\n" + rows)
        with pytest.raises(ParseError) as exc:
            load_step_labels(path)
        assert str(exc.value) == f"{path}:{line}: {message}"
        assert exc.value.line == line

    def test_a_long_sidecar_in_file_order_loads_in_linear_time(self, tmp_path):
        # checked against every earlier row, these rows took 22 s on a 2-core VM
        n = 20_000
        path = tmp_path / "s.steps.csv"
        path.write_text("start_t,end_t,step_id\n" + "".join(f"{k}.0,{k}.5,s{k}\n" for k in range(n)))
        started = time.perf_counter()
        labels = load_step_labels(path)
        assert time.perf_counter() - started < 5.0
        assert len(labels) == n and labels[-1] == StepLabel(n - 1.0, n - 0.5, f"s{n - 1}")

    @settings(max_examples=300, deadline=None)
    @given(rows=step_rows())
    def test_step_labels_match_the_pairwise_oracle(self, rows):
        def outcome(load, path):
            try:
                return load(path)
            except ParseError as exc:
                return exc.line, str(exc)

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.steps.csv"
            path.write_text("start_t,end_t,step_id\n" + "".join(row + "\n" for row in rows))
            assert outcome(load_step_labels, path) == outcome(reference_ingest.load_step_labels, path)

    def test_a_rater_scoring_a_step_twice_is_an_error_on_the_second_line(self, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_text("step_id,rater_id,role,score\nstep_01,e01,expert,1\n"
                        "step_02,e01,expert,2\nstep_01,b01,beginner,3\nstep_01,e01,expert,1\n")
        with pytest.raises(ParseError) as exc:
            load_ratings(path)
        assert str(exc.value) == f"{path}:5: rater 'e01' scores step 'step_01' twice: first on line 2"

    def test_a_repeat_after_400_raters_names_the_first_line(self, tmp_path):
        n = 400
        path = tmp_path / "ratings.csv"
        rows = "step_id,rater_id,role,score\n" + "".join(f"step_01,e{k:04d},expert,1\n" for k in range(n))
        path.write_text(rows)
        assert len(load_ratings(path).by_step["step_01"]) == n
        path.write_text(rows + "step_01,e0000,expert,2\n")
        with pytest.raises(ParseError) as exc:
            load_ratings(path)
        assert str(exc.value) == f"{path}:{n + 2}: rater 'e0000' scores step 'step_01' twice: first on line 2"

    @pytest.mark.parametrize("name, rows", [
        ("ratings.csv", "s1,e01,expert,1\n"),
        ("s.steps.csv", "0.5,2.0,b\n"),
    ])
    def test_earlier_clash_wins_over_bad_bytes(self, tmp_path, name, rows):
        _, head, good, _ = self.SIDECARS[name]
        err = self._raises(tmp_path, name, (head + good + rows + good).encode() + b"\xe9\n")
        assert err.line == 3 and "line 2" in str(err)

    # a good row, then a row carrying the fault, for each sidecar
    SIDECARS = {
        "ratings.csv": (load_ratings, "step_id,rater_id,role,score\n", "s1,e01,expert,1\n",
                        "s1,{cell},expert,1\n"),
        "s.steps.csv": (load_step_labels, "start_t,end_t,step_id\n", "0.0,1.0,a\n", "1.0,2.0,{cell}\n"),
    }

    def _raises(self, tmp_path, name: str, data: bytes) -> ParseError:
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(ParseError) as exc:
            self.SIDECARS[name][0](path)
        return exc.value

    @pytest.mark.parametrize("name", sorted(SIDECARS))
    def test_cell_over_field_limit_on_its_line(self, tmp_path, name):
        _, head, good, bad = self.SIDECARS[name]
        err = self._raises(tmp_path, name, (head + good + bad.format(cell="x" * 140_000)).encode())
        assert str(err) == f"{tmp_path / name}:3: malformed CSV: field larger than field limit (131072)"

    @pytest.mark.parametrize("name", sorted(SIDECARS))
    def test_not_utf8_on_its_line(self, tmp_path, name):
        _, head, good, bad = self.SIDECARS[name]
        data = (head + good).encode() + bad.format(cell="b").encode().replace(b"b", b"b\xe9", 1)
        err = self._raises(tmp_path, name, data)
        assert str(err) == f"{tmp_path / name}:3: not UTF-8: byte 0xe9 (invalid continuation byte)"

    @pytest.mark.parametrize("name, earlier, message", [
        ("ratings.csv", "s1,e01,expert,9\n", "score 9 outside [-5, 5]"),
        ("s.steps.csv", "0.0,abc,a\n", "end_t is not a number: 'abc'"),
        ("s.steps.csv", "0.0,1.0\n", "expected start_t,end_t,step_id"),
    ])
    def test_earlier_line_error_wins_over_bad_bytes(self, tmp_path, name, earlier, message):
        _, head, good, _ = self.SIDECARS[name]
        err = self._raises(tmp_path, name, (head + earlier + good).encode() + b"\xe9\n")
        assert str(err) == f"{tmp_path / name}:2: {message}"

    @pytest.mark.parametrize("name", sorted(SIDECARS))
    @pytest.mark.parametrize("cell, lineno", [
        ('"b\n\udce9"', 4),  # the row of line 3 goes on into line 4, where the byte is
        ('"b\n\n\udce9 x"', 5),
        ('"\n\udce9"', 4),
    ])
    def test_not_utf8_inside_a_quoted_cell_over_lines(self, tmp_path, name, cell, lineno):
        _, head, good, bad = self.SIDECARS[name]
        data = (head + good).encode() + bad.format(cell=cell).encode("utf-8", "surrogateescape")
        err = self._raises(tmp_path, name, data)
        assert str(err) == f"{tmp_path / name}:{lineno}: not UTF-8: byte 0xe9 (invalid continuation byte)"

    @pytest.mark.parametrize("name, earlier, message", [
        ("ratings.csv", "s1,e01,expert,9\n", "score 9 outside [-5, 5]"),
        ("ratings.csv", 's1,"e\n01",expert,9\n', "score 9 outside [-5, 5]"),
        ("s.steps.csv", "0.0,1.0\n", "expected start_t,end_t,step_id"),
        ("s.steps.csv", '0.0,"1\n.0",a\n', "end_t is not a number: '1\\n.0'"),
    ])
    def test_row_ending_right_before_the_bad_byte_is_judged(self, tmp_path, name, earlier, message):
        _, head, _, _ = self.SIDECARS[name]
        err = self._raises(tmp_path, name, (head + earlier).encode() + b"\xe9,x\n")
        assert (err.line, message in str(err)) == (2, True)

    @pytest.mark.parametrize("name", sorted(SIDECARS))
    def test_lines_count_a_quoted_cell_over_two_lines(self, tmp_path, name):
        # the cell of line 2 spans lines 2 and 3, so the short row is on line 4
        _, head, _, bad = self.SIDECARS[name]
        err = self._raises(tmp_path, name, (head + bad.format(cell='"x\ny"') + "1\n").encode())
        assert (err.line, str(err).endswith(f"expected {head.strip()}")) == (4, True)


class TestValidate:
    def test_uniform_session_clean(self):
        s = make_session([frame(i / 30.0, hx=1.0, hy=1.0) for i in range(30)], rate=30.0)
        report = validate_session(s)
        assert report["warnings"] == []
        assert report["stats"]["frame_count"] == 30

    def test_gap_warning(self):
        frames = [frame(0.0), frame(1 / 30.0), frame(1 / 30.0 + 0.5)]
        report = validate_session(make_session(frames, rate=30.0))
        assert any("gap" in w for w in report["warnings"])

    def test_gap_warning_names_a_plain_float_time(self):
        # 10 Hz with a 1-s gap after t=0.9; the report shows the time as JSON would
        times = [i / 10 for i in range(10)] + [1.9 + i / 10 for i in range(5)]
        report = validate_session(make_session([frame(t) for t in times], rate=10.0))
        assert report["warnings"][0] == "sampling gap of 1.0000s at t=0.9 (threshold 0.2000s)"

    def test_no_hand_warning_and_fraction(self):
        s = make_session([frame(i / 30.0) for i in range(10)], rate=30.0)
        report = validate_session(s)
        assert any("no hand frames" in w for w in report["warnings"])
        assert report["stats"]["hand_visible_fraction"] == 0.0

    def test_explicit_expected_rate(self):
        s = make_session([frame(i / 15.0, hx=1.0, hy=1.0) for i in range(10)], rate=30.0)
        # at the declared 30 Hz every interval deviates; at 15 Hz none do
        assert validate_session(s)["warnings"]
        assert validate_session(s, expected_rate=15.0)["warnings"] == []
