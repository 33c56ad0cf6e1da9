"""The package's one CSV writer and one CSV reader, in ``opgaze.studyio``."""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings, strategies as st

from opgaze.studyio import ParseError, csv_rows, csv_text


def test_cell_rules():
    rows = [[0.1, None, True, False, 3, "a,b"], [1 / 3, -0.0, 1e300, "", 'say "hi"', "x\ny"]]
    assert csv_text(("f", "none", "t", "f", "int", "str"), rows) == (
        "f,none,t,f,int,str\n"
        '0.1,,true,false,3,"a,b"\n'
        '0.3333333333333333,-0.0,1e+300,,"say ""hi""","x\ny"\n'
    )


def test_rows_start_at_first_line():
    text = 'a,b\n"x\ny",z\n\nw\n'
    assert list(csv_rows(io.StringIO(text), "t.csv", first_line=2)) == [
        (2, ["a", "b"]), (3, ["x\ny", "z"]), (5, []), (6, ["w"])]


def test_rejected_row_is_a_parse_error_on_the_line_it_starts_on():
    text = 'a\n"x\ny"\n' + "z" * 140_000 + "\n"
    with pytest.raises(ParseError, match="malformed CSV: field larger than field limit") as exc:
        list(csv_rows(io.StringIO(text), "t.csv"))
    assert (exc.value.source, exc.value.line) == ("t.csv", 4)


cells = st.text(alphabet=st.sampled_from(["a", " ", ",", '"', "\n"]), max_size=6)
rows = st.lists(cells, max_size=5)


@settings(max_examples=300, deadline=None)
@given(header=rows, body=st.lists(rows, max_size=8))
def test_write_then_read_gives_the_cells_on_their_lines(header, body):
    text = csv_text(header, body)
    got = list(csv_rows(io.StringIO(text), "t.csv"))
    assert [cells for _, cells in got] == [header, *body]
    # a row starts one line after the line breaks written before it
    starts = [csv_text(header, body[:i]).count("\n") + 1 for i in range(len(body))]
    assert [line for line, _ in got] == [1, *starts]
