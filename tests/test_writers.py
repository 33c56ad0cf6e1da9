"""Differential tests of the trace and ``touchdist.json`` writers.

Trace CSVs are built a column at a time and ``touchdist.json`` fills its
points from a template; both must give the bytes of the cell-by-cell oracle
in ``tests/reference_writers.py``.  Sessions, units and hotspots are drawn
directly, so units may hold hand-absent runs, touching frames outside their
operating period, or no hotspot at all, and every position and time may be
an awkward float.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_writers
from opgaze import cli
from opgaze.features import build_distance_series, unit_traces
from opgaze.hotspot import TouchDistribution, touch_distribution_plot_data
from opgaze.session import Hotspot, Interval, OperationUnit, Point2, Session

AWKWARD = [5e-324, 1e-300, 1e16, 0.1 + 0.2, -0.0, 0.0, -1e16, -123456.789, 3.5e7, 1e150, -1e150]
coords = st.one_of(st.sampled_from(AWKWARD),
                   st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
# unique drops -0.0 beside 0.0; sorted times are then strictly increasing
times_lists = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 0.1 + 0.2, 1e16, 1e16 + 2.0]),
              st.floats(0.0, 1e4, allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=80, unique=True,
).map(sorted)


def make(times, attention, hand, visible, touching) -> Session:
    hand_xy = np.array(hand, dtype=float).reshape(-1, 2)
    hand_xy[~np.array(visible, dtype=bool)] = np.nan
    return Session("s1", "op1", "earlier", sample_rate_hz=10.0,
                   times=np.array(times, dtype=float),
                   attention_xy=np.array(attention, dtype=float).reshape(-1, 2),
                   hand_xy=hand_xy, touching_mask=np.array(touching, dtype=bool))


def result_of(s: Session, hotspots, units) -> cli.SessionResult:
    """What ``analyze_session`` gives for these hotspots and units, less the
    features."""
    units = tuple(units)
    return cli.SessionResult(s, 1.0, hotspots, units, (), unit_traces(s, units, hotspots))


@st.composite
def session_results(draw) -> cli.SessionResult:
    times = draw(times_lists)
    n = len(times)
    pairs = st.lists(st.tuples(coords, coords), min_size=n, max_size=n)
    visible = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    touching = [v and draw(st.booleans()) for v in visible]
    s = make(times, draw(pairs), draw(pairs), visible, touching)
    hotspots = tuple(Hotspot(i, Point2(*draw(st.tuples(coords, coords))), 0, 0.0, 0.0, ())
                     for i in range(draw(st.integers(1, 2))))
    units = []
    for index in range(draw(st.integers(1, 3))):
        b = sorted(draw(st.lists(st.sampled_from(times), min_size=4, max_size=4)))
        hotspot_id = draw(st.one_of(st.none(), st.integers(0, len(hotspots) - 1)))
        units.append(OperationUnit(index, Interval(b[0], b[1]), Interval(b[1], b[2]),
                                   Interval(b[2], b[3]), hotspot_id=hotspot_id))
    return result_of(s, hotspots, units)


def written_traces(result: cli.SessionResult) -> dict[str, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        cli._write_session_outputs(Path(tmp), result)
        traces = Path(tmp) / "sessions" / result.session.id / "traces"
        return {p.name: p.read_bytes() for p in traces.iterdir()}


def expected_traces(result: cli.SessionResult) -> dict[str, bytes]:
    s = result.session
    return {
        f"{s.id}_{ou.index}.csv":
            reference_writers.trace_text(s, ou, result.hotspots[ou.hotspot_id]).encode()
        for ou in result.units if ou.hotspot_id is not None
    }


def written_touchdist(data: dict) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "touchdist.json"
        cli._write_touchdist(path, data)
        return path.read_bytes()


class TestTraces:
    @settings(max_examples=150, deadline=None)
    @given(session_results())
    def test_bytes_equal_the_oracle(self, result):
        assert written_traces(result) == expected_traces(result)

    @settings(max_examples=100, deadline=None)
    @given(session_results())
    def test_hand_series_times_are_ao_times(self, result):
        for ou in result.units:
            if ou.hotspot_id is None:
                continue
            ao, ho, ah = (build_distance_series(result.session, ou, result.hotspots[ou.hotspot_id],
                                                kind, "OU") for kind in ("AO", "HO", "AH"))
            assert np.isin(ho.times, ao.times).all() and np.isin(ah.times, ao.times).all()

    def test_absent_hand_stray_touch_and_unit_without_hotspot(self):
        # 0-1 s gazing with the hand out of sight from 0.3 to 0.6 s; a stray
        # touch at 0.2 s; 1-1.5 s approaching; 1.5-2 s operating; then a
        # second unit without a hotspot
        times = [i / 10 for i in range(31)]
        visible = [not 0.3 <= t < 0.65 for t in times]
        touching = [t == 0.2 or 1.5 <= t <= 2.0 for t in times]
        s = make(times, [(100.0 - 10 * t, 0.1 + 0.2) for t in times],
                 [(50.0 - 20 * t, -1e16) for t in times], visible, touching)
        units = (
            OperationUnit(0, Interval(0.0, 1.0), Interval(1.0, 1.5), Interval(1.5, 2.0), hotspot_id=0),
            OperationUnit(1, Interval(2.0, 2.5), Interval(2.5, 2.5), Interval(2.5, 3.0)),
        )
        result = result_of(s, (Hotspot(0, Point2(5e-324, 1e16), 0, 0.0, 0.0, ()),), units)
        written = written_traces(result)
        assert written == expected_traces(result) and list(written) == ["s1_0.csv"]
        lines = written["s1_0.csv"].decode().splitlines()
        assert lines[0] == "t,d_ao,d_ho,d_ah"
        assert not any(line.startswith("0.2,") for line in lines)  # stray touch: no sample
        assert [line.split(",")[2:] for line in lines if line.startswith("0.4,")] == [["", ""]]


@st.composite
def multi_unit_results(draw) -> cli.SessionResult:
    """A session of units one after another.  A unit starts where the one
    before it ends, so that their whole-unit ranges share that frame, or a
    few frames later.  Units share one of two hotspots or have none, the
    hand leaves and returns at random frames, and touches fall at random,
    so that many are stray.  Positions come from a drawn seed, a fifth of
    them awkward floats, which keeps generation fast."""
    n = draw(st.integers(8, 60))
    steps = draw(st.lists(st.sampled_from([0.1, 1 / 30, 0.1 + 0.2, 1e-3, 7.0]),
                          min_size=n - 1, max_size=n - 1))
    times = np.cumsum([draw(st.sampled_from([0.0, 1e-300, 0.1, 12.5])), *steps]).tolist()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    attention, hand = (np.where(rng.random((n, 2)) < 0.2, rng.choice(AWKWARD, (n, 2)),
                                rng.normal(0.0, 1e5, (n, 2))) for _ in range(2))
    flags = st.lists(st.booleans(), min_size=n, max_size=n)
    visible = draw(flags)
    touching = [v and touch for v, touch in zip(visible, draw(flags))]
    s = make(times, attention, hand, visible, touching)
    hotspots = tuple(Hotspot(i, Point2(*draw(st.tuples(coords, coords))), 0, 0.0, 0.0, ())
                     for i in range(draw(st.integers(1, 2))))
    units, end = [], 0
    for index in range(draw(st.integers(2, 5))):
        b = [end]
        for _ in range(4):
            b.append(min(b[-1] + draw(st.integers(0, 6)), n - 1))
        end = b[-1]
        t = [times[i] for i in b[1:]]
        hotspot_id = draw(st.one_of(st.none(), st.integers(0, len(hotspots) - 1)))
        units.append(OperationUnit(index, Interval(t[0], t[1]), Interval(t[1], t[2]),
                                   Interval(t[2], t[3]), hotspot_id=hotspot_id))
    return result_of(s, hotspots, units)


def bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


class TestUnitTraces:
    """The session's one-pass traces give the per-unit series and files."""

    @settings(max_examples=150, deadline=None)
    @given(multi_unit_results())
    def test_bytes_of_many_units_equal_the_oracle(self, result):
        assert written_traces(result) == expected_traces(result)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(session_results(), multi_unit_results()))
    def test_arrays_equal_the_per_unit_series_bit_for_bit(self, result):
        s = result.session
        traces = unit_traces(s, result.units, result.hotspots)
        assert traces.units == tuple(ou for ou in result.units if ou.hotspot_id is not None)
        assert len(traces.counts) == len(traces.units)
        assert {len(a) for a in (traces.t, traces.d_ao, traces.d_ho, traces.d_ah, traces.hand)} \
            == {sum(traces.counts)}
        end = 0
        for ou, count in zip(traces.units, traces.counts):
            rows = slice(end, end + count)
            end += count
            ao, ho, ah = (build_distance_series(s, ou, result.hotspots[ou.hotspot_id], kind, "OU")
                          for kind in ("AO", "HO", "AH"))
            hand = traces.hand[rows]
            assert bits(traces.t[rows]) == bits(ao.times)
            assert bits(traces.d_ao[rows]) == bits(ao.values)
            assert bits(traces.t[rows][hand]) == bits(ho.times) == bits(ah.times)
            assert bits(traces.d_ho[rows][hand]) == bits(ho.values)
            assert bits(traces.d_ah[rows][hand]) == bits(ah.values)
            assert np.isnan(traces.d_ho[rows][~hand]).all() and np.isnan(traces.d_ah[rows][~hand]).all()

    def test_shared_hotspot_gap_unit_meeting_frames_absent_hand_and_stray_touches(self):
        # five units over 0-5 s at 10 Hz: units 0 and 2 share hotspot 0, unit
        # 1 between them has none, unit 3 starts on unit 2's last frame (not
        # touching), the hand is out of sight from 3.2 to 3.4 s inside unit 3,
        # and touches at 0.1 s and 2.2 s lie outside every operating period
        times = [i / 10 for i in range(51)]
        visible = [not 3.2 <= t < 3.45 for t in times]
        operating = [(0.6, 1.0), (1.6, 2.0), (2.6, 3.0), (3.6, 4.0), (4.6, 5.0)]
        touching = [t in (0.1, 2.2) or any(a <= t < b for a, b in operating) for t in times]
        s = make(times, [(100.0 - 10 * t, 0.1 + 0.2) for t in times],
                 [(50.0 - 20 * t, -1e16) for t in times], visible, touching)
        hotspots = (Hotspot(0, Point2(5e-324, 1e16), 0, 0.0, 0.0, ()),
                    Hotspot(1, Point2(-123456.789, 3.5e7), 0, 0.0, 0.0, ()))
        bounds = [(0.0, 0.3), (1.0, 1.3), (2.0, 2.3), (3.0, 3.3), (4.0, 4.3)]
        units = tuple(
            OperationUnit(k, Interval(g, h), Interval(h, o[0]), Interval(*o), hotspot_id=hid)
            for k, ((g, h), o, hid) in enumerate(zip(bounds, operating, (0, None, 0, 1, 1))))
        result = result_of(s, hotspots, units)
        written = written_traces(result)
        assert written == expected_traces(result)
        assert sorted(written) == ["s1_0.csv", "s1_2.csv", "s1_3.csv", "s1_4.csv"]
        lines = {name: text.decode().splitlines()[1:] for name, text in written.items()}
        # units 0 and 2 drop their stray touch from their 11 frames
        assert [len(lines[f"s1_{k}.csv"]) for k in (0, 2, 3, 4)] == [10, 10, 11, 11]
        assert not any(line.startswith(("0.1,", "2.2,")) for rows in lines.values() for line in rows)
        assert lines["s1_2.csv"][-1].startswith("3.0,") and lines["s1_3.csv"][0].startswith("3.0,")
        assert [line.split(",")[2:] for line in lines["s1_3.csv"] if line.startswith("3.3,")] == [["", ""]]

    @pytest.mark.parametrize("hotspot_ids", [(), (None,), (None, None)])
    def test_session_without_traced_units_gets_an_empty_traces_directory(self, hotspot_ids):
        s = make([0.0, 0.1, 0.2], [(0.0, 0.0)] * 3, [(1.0, 1.0)] * 3, [True] * 3, [False, True, False])
        units = tuple(OperationUnit(k, Interval(0.0, 0.1), Interval(0.1, 0.1), Interval(0.1, 0.2),
                                    hotspot_id=hid) for k, hid in enumerate(hotspot_ids))
        traces = unit_traces(s, units, ())
        assert (traces.units, traces.counts, len(traces.t)) == ((), (), 0)
        assert written_traces(result_of(s, (), units)) == {}


points_lists = st.lists(st.lists(coords, min_size=2, max_size=2), min_size=1, max_size=300)


class TestTouchdist:
    @settings(max_examples=150, deadline=None)
    @given(points_lists, st.lists(coords, min_size=8, max_size=8))
    def test_equals_json_dumps(self, points, values):
        data = {
            "centroid": values[:2],
            "bias": values[2:4],
            "covariance": [values[4:6], values[6:8]],
            "touch_count": len(points),
            "points": points,
        }
        assert written_touchdist(data) == reference_writers.json_text(data).encode()

    def test_one_point_and_many_points(self):
        rng = np.random.default_rng(7)
        many = np.column_stack((rng.choice(AWKWARD, 5000), rng.normal(0, 1e5, 5000))).tolist()
        for points in ([[1e16, -0.0]], many):
            data = {"centroid": [0.1 + 0.2, 1e-300], "bias": [5e-324, -1e16],
                    "covariance": [[1.0, 0.0], [0.0, 1.0]], "touch_count": len(points),
                    "points": points}
            assert written_touchdist(data) == reference_writers.json_text(data).encode()

    @settings(max_examples=60, deadline=None)
    @given(session_results())
    def test_points_of_a_session(self, result):
        # the points are the session's; the statistics only fill the other keys
        s = result.session
        stats = TouchDistribution(Point2(0.1 + 0.2, -0.0), Point2(1e16, 5e-324),
                                  ((1.0, 0.0), (0.0, 1.0)), int(s.touching_mask.sum()))
        data = touch_distribution_plot_data(stats, [s])
        if data["points"]:
            assert written_touchdist(data) == reference_writers.json_text(data).encode()
