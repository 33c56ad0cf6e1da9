"""Command-line front end for the analysis pipeline.

Commands::

    opgaze validate  PATH...                 check session files, write a report
    opgaze analyze   PATH...                 full pipeline: units, hotspots, features, traces
    opgaze compare   FEATURES_DIR MANIFEST   earlier-vs-later feature deltas per operator pair
    opgaze correlate FEATURES_DIR RATINGS    feature-difficulty correlations per step
    opgaze synth                             generate a seeded synthetic cohort

Every command takes ``--out``, ``--jobs`` (>= 1) and ``--log-level``.
``analyze`` reads every file's header for the duplicate-id rule, then
runs min(``--jobs``, files of a unique header id, usable cores)
processes: itself and that many less one forked workers.  Each parses,
analyzes and writes whole sessions, this process from the front of the
path list and the workers, fed by the pool's own queue, from its back;
with one, or where the platform has no fork, this process runs every
session in path order.  It reports failures in path order; worker log
lines may interleave on stderr.  A write error or a worker that dies
ends the run with exit 1 and no ``summary.json``; a worker exits once
this process is gone.  ``--config`` is the pipeline config of ``analyze``
and the cohort spec of ``synth``; ``--seed`` overrides that spec's seed.
Exit codes are a stable contract: 0 success, 1 input error, 2 empty input,
3 partial failure.  All outputs are written atomically and are
byte-identical across reruns and ``--jobs`` values.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import logging
import math
import os
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterator, Mapping, NamedTuple, Optional, Sequence, TypeVar

# only numpy-free modules here, so that compare, correlate and --help load no numpy;
# analysis is imported by the two commands that use it
from .featurerow import FEATURE_MAX, FEATURES_HEADER, SCALAR_FEATURES, FeatureVector, feature_row
from .studyio import (
    ParseError, atomic_write_text, check_fields, csv_rows, csv_text, load_ratings, open_text, read_json,
)

if TYPE_CHECKING:
    import numpy as np

    from .features import FeatureParams, UnitTraces
    from .hotspot import ClusterParams
    from .segmentation import SegmentationParams
    from .session import Hotspot, OperationUnit, Session

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_EMPTY = 2
EXIT_PARTIAL = 3

SESSION_SUFFIXES = (".jsonl", ".csv")
NON_SESSION_NAMES = frozenset({
    "ratings.csv", "features.csv", "units.csv", "hotspots.csv",
    "comparison.csv", "correlation.csv",
})

UNITS_HEADER = (
    "ou_index", "g_start", "g_end", "h_start", "h_end",
    "o_start", "o_end", "hotspot_id", "step_id",
)
HOTSPOTS_HEADER = ("id", "cx", "cy", "count", "first_t", "last_t")
TRACE_HEADER = "t,d_ao,d_ho,d_ah"  # trace files are joined here, as no cell needs quoting

# The analyze and validate paths call these package exports through this
# module's globals, where tools (perfbench/tracer.py, tests) may rebind them.
# They live in modules that load numpy, so they are bound on first use: by an
# attribute lookup on this module, or by _bind() at the top of each function
# that can be the first to call one.  A name bound already is kept.
_LAZY = (
    "check_rate", "detect_format", "load_step_labels", "parse_session", "read_header",
    "validate_session",
    # analyze_session makes the one unit_traces call of a session; nothing here
    # calls build_distance_series, which perfbench/tracer.py wraps by this name
    "FeatureParams", "build_distance_series", "feature_vector", "trace_features", "unit_traces",
    "ClusterParams", "cluster_touches", "extract_touches", "touch_distribution",
    "touch_distribution_plot_data", "touching_points",
    "SegmentationParams", "segment_units",
)


def _bind() -> None:
    """Bind each name of ``_LAZY`` that is still unbound, from the package."""
    scope, package = globals(), sys.modules[__package__]
    for name in _LAZY:
        if name not in scope:
            scope[name] = getattr(package, name)


def __getattr__(name: str) -> object:
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind()
    return globals()[name]


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; our contract reserves 2 for
    empty input, so usage problems exit 1 (input error) instead."""

    def error(self, message: str):  # noqa: D102 - argparse override
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _out_dir(arg: str) -> Path:
    """``--out`` made a directory; a ValueError if it is a file or lies under one."""
    out = Path(arg)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ValueError(f"--out {arg} is not a directory") from None
    return out


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    atomic_write_text(path, csv_text(header, rows))


def _write_json(path: Path, obj: object) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_touchdist(path: Path, data: dict) -> None:
    """``_write_json`` of a touch distribution with at least one point, each two finite floats."""
    points = data["points"]
    item = "    [\n      %r,\n      %r\n    ]"
    # one format string for all points: a string per point would add about
    # 100 bytes a touch to the peak memory of analyze
    block = ",\n".join([item] * len(points)) % tuple(itertools.chain.from_iterable(points))
    text = json.dumps({**data, "points": []}, indent=2, sort_keys=True)
    head, _, tail = text.partition('"points": []')
    atomic_write_text(path, "".join((head, '"points": [\n', block, "\n  ]", tail, "\n")))


# --- config ------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Effective parameter set for a run; unknown keys are rejected."""

    cluster: ClusterParams
    segmentation: SegmentationParams
    features: FeatureParams


_Params = TypeVar("_Params")


def _section(raw: Mapping[str, object], name: str, params: type[_Params]) -> _Params:
    """Section ``name`` of the config as ``params``, whose fields are its keys.

    A value must have its field's declared type (``studyio.check_fields``).
    A ValueError of ``params``, whose message starts with the field's name,
    is raised again with ``name.`` in front, so that every rejection names
    ``section.key``.
    """
    data = raw.get(name, {})
    if not isinstance(data, dict):
        raise ValueError(f"config section {name!r} must be an object")
    check_fields(data, params, f"{name} config", f"{name}.")
    try:
        return params(**data)
    except ValueError as exc:
        raise ValueError(f"{name}.{exc}") from None


@contextlib.contextmanager
def _judging(path: Optional[str]) -> Iterator[None]:
    """A ValueError of the block, which judges the JSON file ``path``, as a ParseError naming it."""
    try:
        yield
    except ValueError as exc:
        if not path:
            raise
        raise ParseError(str(exc), source=str(path)) from None


def load_config(path: Optional[str]) -> RunConfig:
    """Load the pipeline config file (JSON with cluster / segmentation /
    features sections); missing sections and keys fall back to defaults."""
    _bind()
    raw = read_json(path) if path else {}
    with _judging(path):
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        unknown = set(raw) - {f.name for f in dataclasses.fields(RunConfig)}
        if unknown:
            raise ValueError(f"unknown config sections: {sorted(unknown)}")
        return RunConfig(
            cluster=_section(raw, "cluster", ClusterParams),
            segmentation=_section(raw, "segmentation", SegmentationParams),
            features=_section(raw, "features", FeatureParams),
        )


# --- input discovery ---------------------------------------------------------

def _is_trace_file(path: Path) -> bool:
    """Whether ``path`` lies where ``analyze`` writes a unit trace:
    ``sessions/<id>/traces/<id>_<k>.csv``."""
    sdir = path.parent.parent
    return (path.suffix == ".csv" and path.parent.name == "traces" and sdir.parent.name == "sessions"
            and path.stem.startswith(f"{sdir.name}_") and path.stem[len(sdir.name) + 1:].isdigit())


def _is_session_file(path: Path) -> bool:
    if path.suffix not in SESSION_SUFFIXES:
        return False
    if path.name in NON_SESSION_NAMES or path.name.endswith(".steps.csv"):
        return False
    return not _is_trace_file(path)


def find_session_files(paths: Sequence[str]) -> list[Path]:
    """Expand files and directories into a sorted, deduplicated list of
    session files; sidecars and report files are skipped."""
    found: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found.extend(p for p in path.rglob("*") if p.is_file() and _is_session_file(p))
        elif path.is_file():
            found.append(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
    unique = sorted(set(p.resolve() for p in found))
    return unique


def _load_session(path: Path) -> Session:
    _bind()
    sidecar = path.with_suffix(".steps.csv")
    labels = load_step_labels(sidecar) if sidecar.is_file() else None
    return parse_session(path, format=detect_format(path), step_labels=labels)


# --- validate ----------------------------------------------------------------

def cmd_validate(args: argparse.Namespace) -> int:
    if args.expected_rate is not None:
        _bind()
        check_rate(args.expected_rate, "--expected-rate")
    files = find_session_files(args.paths)
    if not files:
        print("no sessions found", file=sys.stderr)
        return EXIT_EMPTY
    out = _out_dir(args.out)
    reports = []
    had_errors = False
    for path in files:
        try:
            session = _load_session(path)
        except Exception as exc:
            # a file that cannot be read is recorded as one that does not
            # parse is, and the other files are still checked
            had_errors = True
            failure = _failure(exc)
            failure.report(path)
            reports.append({
                "source": str(path),
                "session_id": None,
                "errors": [[failure.line, failure.error]],
                "warnings": [],
                "stats": {},
            })
            continue
        entry = validate_session(session, expected_rate=args.expected_rate)
        entry["source"] = str(path)
        reports.append(entry)
        print(f"{session.id}: OK ({entry['stats']['frame_count']} frames, "
              f"{len(entry['warnings'])} warnings)")
    _write_json(out / "validation_report.json", sorted(reports, key=lambda r: r["source"]))
    return EXIT_INPUT_ERROR if had_errors else EXIT_OK


# --- analyze -----------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class SessionResult:
    session: Session
    resolved_eps: float
    hotspots: tuple[Hotspot, ...]
    units: tuple[OperationUnit, ...]
    fvs: tuple[FeatureVector, ...]
    traces: UnitTraces


def analyze_session(s: Session, config: RunConfig) -> SessionResult:
    """Run the full per-session pipeline in memory: one distance pass over
    the units, and one feature pass over its columns."""
    _bind()
    touches = extract_touches(s)
    params = config.cluster.resolve([s])
    hotspots = tuple(cluster_touches(touches, params))
    units = tuple(segment_units(s, config.segmentation, hotspots))
    traces = unit_traces(s, units, hotspots)
    traced = iter(trace_features(s, traces, config.features))
    fvs = tuple(feature_vector(ou, None if ou.hotspot_id is None else next(traced)) for ou in units)
    return SessionResult(
        session=s,
        resolved_eps=params.spatial_eps,
        hotspots=hotspots,
        units=units,
        fvs=fvs,
        traces=traces,
    )


def _write_session_outputs(out_dir: Path, result: SessionResult) -> list[list[object]]:
    """Write the directory of ``result``'s session under ``out_dir``; return
    the rows of its ``features.csv``."""
    s = result.session
    sdir = out_dir / "sessions" / s.id
    (sdir / "traces").mkdir(parents=True, exist_ok=True)
    _write_csv(
        sdir / "units.csv",
        UNITS_HEADER,
        [
            [
                ou.index,
                ou.gazing.start, ou.gazing.end,
                ou.approaching.start, ou.approaching.end,
                ou.operating.start, ou.operating.end,
                ou.hotspot_id, ou.step_id,
            ]
            for ou in result.units
        ],
    )
    _write_csv(
        sdir / "hotspots.csv",
        HOTSPOTS_HEADER,
        [
            [h.id, h.centroid.x, h.centroid.y, h.touch_count, h.first_t, h.last_t]
            for h in result.hotspots
        ],
    )
    feature_rows = [feature_row(s.id, fv) for fv in result.fvs]
    _write_csv(sdir / "features.csv", FEATURES_HEADER, feature_rows)
    # a rerun removes the traces of units it no longer finds
    stale = {path for path in (sdir / "traces").iterdir() if _is_trace_file(path)}
    for trace in result.traces.per_unit():
        path = sdir / "traces" / f"{s.id}_{trace.units[0].index}.csv"
        atomic_write_text(path, _orjson_trace_text(trace) or _repr_trace_text(trace))
        stale.discard(path)
    for path in stale:
        path.unlink()
    return feature_rows


def _repr_trace_text(trace: UnitTraces) -> str:
    """The text of the trace file of the one-unit ``trace``: a row
    ``t,d_ao,d_ho,d_ah`` per frame, each cell its float's ``repr``, and
    ``d_ho`` and ``d_ah`` empty where the hand is out of sight."""
    t, ao, ho, ah = (list(map(repr, a.tolist())) for a in (trace.t, trace.d_ao, trace.d_ho, trace.d_ah))
    for r in (~trace.hand).nonzero()[0].tolist():
        ho[r] = ah[r] = ""
    rows = map(",".join, zip(t, ao, ho, ah))  # no cell needs CSV quoting
    return "\n".join([TRACE_HEADER, *rows]) + "\n"


def _orjson_trace_text(trace: UnitTraces) -> Optional[str]:
    """:func:`_repr_trace_text` of ``trace``, written by orjson as one JSON
    array of rows, where orjson writes each cell as ``repr`` does; else None.

    That holds for a trace with rows, whose values are NaN exactly where
    ``d_ho`` and ``d_ah`` have no hand, and else 0 or of a magnitude in
    [1e-4, 1e16): outside that range orjson writes ``0.00001`` and ``1e16``
    where ``repr`` writes ``1e-05`` and ``1e+16``.
    """
    import numpy as np

    if not len(trace.hand):
        return None
    table = np.column_stack((trace.t, trace.d_ao, trace.d_ho, trace.d_ah)).astype(float, copy=False)
    magnitude = np.abs(table)
    shown = (magnitude == 0) | ((magnitude >= 1e-4) & (magnitude < 1e16))  # False at NaN
    absent = np.zeros_like(shown)
    absent[:, 2:] = ~trace.hand[:, None]
    if not (np.array_equal(shown, ~absent) and np.isnan(table[absent]).all()):
        return None
    import orjson  # here, as numpy, so that compare, correlate and --help do not load it

    rows = orjson.dumps(table, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2]
    return TRACE_HEADER + "\n" + rows.replace(b"],[", b"\n").replace(b"null", b"").decode() + "\n"


class _Failure(NamedTuple):
    """A session's failure: its error, the traceback of an unexpected one,
    and for a ParseError, whose message starts with its file, its line."""

    error: str
    traceback: str = ""
    parse_error: bool = False
    line: Optional[int] = None

    def report(self, path: Path) -> None:
        """Write the failure of the file ``path`` on stderr, naming the file
        once; in one write, so that a worker's log line cannot land inside it."""
        sys.stderr.write(f"{self.error if self.parse_error else f'{path}: {self.error}'}\n{self.traceback}")


def _failure(exc: Exception) -> _Failure:
    if isinstance(exc, ParseError):
        return _Failure(str(exc), parse_error=True, line=exc.line)
    if isinstance(exc, (ValueError, OSError)):
        return _Failure(str(exc))
    # a fault in the pipeline fails this session, not the run
    return _Failure(f"{type(exc).__name__}: {exc}", "".join(traceback.format_exception(exc)))


def _run_session(path: Path, config: RunConfig,
                 out: Path) -> tuple[list[list[object]], dict[str, object], np.ndarray] | _Failure:
    """Parse the session file ``path``, analyze the session and write its
    directory under ``out``; return its ``features.csv`` rows, its
    ``summary.json`` entry and its touching points.  A write error is
    raised, and ends the run."""
    try:
        s = _load_session(path)
        result = analyze_session(s, config)
    except Exception as exc:
        return _failure(exc)
    return _write_session_outputs(out, result), {
        "id": s.id,
        "source": str(path),
        "operator": s.operator,
        "ordinal": s.ordinal,
        "n_frames": len(s),
        "n_units": len(result.units),
        "n_hotspots": len(result.hotspots),
        "resolved_spatial_eps": result.resolved_eps,
    }, touching_points(s)


def _exit_with(parent: int) -> None:
    """End this forked worker once its parent ``parent`` is gone, where it
    would wait on its call queue for good, holding stdout and stderr open."""
    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.1)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def cmd_analyze(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    files = find_session_files(args.paths)
    if not files:
        print("no sessions found", file=sys.stderr)
        return EXIT_EMPTY
    out = _out_dir(args.out)

    # phase 1, here: read every file's header and fail every holder of a
    # repeated id, because a session id names an output directory and keys
    # features.csv rows; a file whose header does not read holds no id, and
    # its parse below reports it
    failures: dict[Path, _Failure] = {}
    holders: dict[str, list[Path]] = {}
    for path in files:
        with contextlib.suppress(Exception):
            holders.setdefault(read_header(path, detect_format(path))["id"], []).append(path)
    for sid, paths in holders.items():
        if len(paths) == 1:
            continue
        for path in paths:
            others = ", ".join(str(p) for p in paths if p != path)
            failures[path] = _Failure(f"duplicate session id {sid!r}: also in {others}")

    # phase 2: each of `size` processes, this one and its forked workers,
    # parses, analyzes and writes whole sessions: this one from the front of
    # the path list, the workers from its back through the pool's own queue;
    # outcomes are reported, and the outputs of all sessions joined, in path order
    combined_rows: list[list[object]] = []
    summary_sessions = []
    touching: list[np.ndarray] = []
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    size = min(args.jobs, sum(len(paths) == 1 for paths in holders.values()), cores or 1)
    pool = None
    broken: tuple[type[Exception], ...] = ()  # what a dead worker raises; nothing in process
    try:
        if size > 1:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool

            # fork is named, as POSIX's default start method changed in Python
            # 3.14, and spawn would import numpy again in every worker; the
            # executor forks all its workers at the first submit, before it
            # starts a thread
            if "fork" in multiprocessing.get_all_start_methods():
                pool = ProcessPoolExecutor(size - 1, mp_context=multiprocessing.get_context("fork"),
                                           initializer=_exit_with, initargs=(os.getpid(),))
                broken = (BrokenProcessPool,)
        todo = [path for path in files if path not in failures]
        queued = {} if pool is None else {
            path: pool.submit(_run_session, path, config, out) for path in reversed(todo[1:])}
        for path in files:
            if path in failures:
                failures[path].report(path)
                continue
            # a future that no worker has taken yet is taken back and run here
            future = queued.pop(path, None)
            if future is None or future.cancel():
                outcome = _run_session(path, config, out)
            else:
                outcome = future.result()
            if isinstance(outcome, _Failure):
                failures[path] = outcome
                outcome.report(path)
                continue
            rows, entry, points = outcome
            if not entry["n_units"]:
                # one write, as in _Failure.report
                sys.stderr.write(f"warning: session {entry['id']!r}: no operation units "
                                 "(no touches, or all bouts dropped)\n")
            combined_rows.extend(rows)
            summary_sessions.append(entry)
            touching.append(points)
    except broken as exc:
        sys.stderr.write(f"a worker process died, which ends the run: {exc}\n")
        return EXIT_INPUT_ERROR
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    combined_rows.sort(key=lambda r: (r[0], r[1]))
    _write_csv(out / "features.csv", FEATURES_HEADER, combined_rows)
    _write_json(out / "config_used.json", dataclasses.asdict(config))

    if any(len(points) for points in touching):
        import numpy as np

        points = np.concatenate(touching)  # in path order, as the bits of the means depend on it
        dist = touch_distribution(points)
        _write_touchdist(out / "touchdist.json", touch_distribution_plot_data(dist, points))
    else:
        _write_json(out / "touchdist.json", {"touch_count": 0})
    _write_json(out / "summary.json", {
        "sessions": summary_sessions,
        "failures": [
            {"source": str(p), "error": failures[p].error} for p in sorted(failures)
        ],
        "n_sessions_ok": len(summary_sessions),
        "n_sessions_failed": len(failures),
    })
    if failures and summary_sessions:
        return EXIT_PARTIAL
    if failures:
        return EXIT_INPUT_ERROR
    return EXIT_OK


# --- compare -----------------------------------------------------------------

def _read_features_csv(path: Path) -> list[dict[str, object]]:
    """The rows of a ``features.csv``, its columns found by name; a row
    whose cell count is not the header's, or whose cell does not convert or
    lies beyond what ``analyze`` writes (non-finite, or above
    ``FEATURE_MAX`` in magnitude), is a ParseError on its line."""
    stream, src = open_text(path)
    with stream:
        return _parse_features(stream, src)


def _parse_features(stream: IO[str], src: str) -> list[dict[str, object]]:
    reader = csv_rows(stream, src)
    _, header = next(reader, (1, []))
    if set(FEATURES_HEADER) - set(header):
        raise ParseError("not a features.csv (missing columns)", source=src)
    rows: list[dict[str, object]] = []
    # the line of each unit's row: a second row would count the unit twice
    first_line: dict[tuple[str, int], int] = {}
    for line, cells in reader:
        if not cells:
            continue
        if len(cells) != len(header):
            raise ParseError(f"expected {len(header)} cells, got {len(cells)}", line=line, source=src)
        raw = dict(zip(header, cells))
        try:
            ou_index = int(raw["ou_index"])
        except ValueError:
            raise ParseError(f"ou_index is not an integer: {raw['ou_index']!r}",
                             line=line, source=src) from None
        first = first_line.setdefault((raw["session_id"], ou_index), line)
        if first != line:
            raise ParseError(f"session {raw['session_id']!r} unit {ou_index} repeats line {first}",
                             line=line, source=src)
        row: dict[str, object] = {
            "session_id": raw["session_id"],
            "ou_index": ou_index,
            "step_id": raw["step_id"] or None,
            "gaze_pattern": raw["gaze_pattern"],
            "shift_kind": raw["shift_kind"],
        }
        for name in SCALAR_FEATURES:
            cell = raw[name]
            try:
                value = float(cell) if cell else None
            except ValueError:
                raise ParseError(f"{name} is not a number: {cell!r}", line=line, source=src) from None
            if value is not None and not abs(value) <= FEATURE_MAX:
                bound = f"|{name}| exceeds {FEATURE_MAX:g}"
                problem = bound if math.isfinite(value) else f"{name} is not finite"
                raise ParseError(f"{problem}: {cell!r}", line=line, source=src)
            row[name] = value
        rows.append(row)
    return rows


def _features_path(arg: str) -> Path:
    path = Path(arg)
    if path.is_dir():
        path = path / "features.csv"
    if not path.is_file():
        raise FileNotFoundError(f"features file not found: {path}")
    return path


def _load_manifest(path: Path) -> list[dict[str, str]]:
    data = read_json(path)
    src = str(path)
    pairs = data.get("pairs") if isinstance(data, dict) else None
    if not isinstance(pairs, list):
        raise ParseError("manifest must be an object with a 'pairs' list", source=src)
    keys = ("operator", "earlier", "later")
    # where each operator and session id is first named: a second naming
    # would weigh an operator twice, or compare a session with itself
    first_named: dict[tuple[str, str], str] = {}
    for k, entry in enumerate(pairs):
        if not isinstance(entry, dict) or set(keys) - set(entry):
            raise ParseError("each pair needs operator, earlier, later", source=src)
        if not all(isinstance(entry[key], str) for key in keys):
            raise ParseError(f"pair {k} needs strings for operator, earlier and later, got {entry!r}",
                             source=src)
        for kind, name, where in (("operator", entry["operator"], f"pair {k}"),
                                  ("session", entry["earlier"], f"pair {k} earlier"),
                                  ("session", entry["later"], f"pair {k} later")):
            first = first_named.setdefault((kind, name), where)
            if first != where:
                raise ParseError(f"{kind} {name!r} is named by {first} and by {where}", source=src)
    return pairs


def cmd_compare(args: argparse.Namespace) -> int:
    from . import analysis

    rows = _read_features_csv(_features_path(args.features))
    manifest = _load_manifest(Path(args.manifest))
    if not manifest:
        print("no pairs in manifest", file=sys.stderr)
        return EXIT_EMPTY
    by_session: dict[str, list[dict[str, object]]] = {}
    for row in rows:
        by_session.setdefault(str(row["session_id"]), []).append(row)

    pairs = []
    for entry in sorted(manifest, key=lambda e: e["operator"]):
        for key in ("earlier", "later"):
            if entry[key] not in by_session:
                print(f"session {entry[key]!r} has no rows in features.csv: it was not analyzed, "
                      "or it has no operation units", file=sys.stderr)
                return EXIT_INPUT_ERROR
        earlier, later = (analysis.summarize_rows(entry[key], by_session[entry[key]])
                          for key in ("earlier", "later"))
        pairs.append((entry["operator"], earlier, later))

    report = analysis.pairwise_comparison(pairs)
    out = _out_dir(args.out)
    _write_csv(
        out / "comparison.csv",
        ("feature", "mean_delta_pct", "n_pairs", "n_later_smaller"),
        [[r.feature, r.mean_delta_pct, r.n_pairs, r.n_later_smaller] for r in report],
    )
    _write_json(out / "comparison_plot.json", {
        "kind": "earlier_vs_later_bar",
        "n_pairs_total": len(pairs),
        "features": [r.feature for r in report],
        "mean_delta_pct": [r.mean_delta_pct for r in report],
        "n_pairs": [r.n_pairs for r in report],
        "n_later_smaller": [r.n_later_smaller for r in report],
        "per_pair_deltas_pct": {r.feature: list(r.deltas_pct) for r in report},
    })
    return EXIT_OK


# --- correlate ---------------------------------------------------------------

def cmd_correlate(args: argparse.Namespace) -> int:
    from . import analysis

    rows = _read_features_csv(_features_path(args.features))
    ratings = load_ratings(Path(args.ratings))
    labeled = [row for row in rows if row["step_id"] is not None]
    if not labeled:
        print("no step-labeled units in features", file=sys.stderr)
        return EXIT_EMPTY
    report = analysis.difficulty_correlation(labeled, ratings)
    unrated = sorted({row["step_id"] for row in labeled} - set(report.step_ids))
    if unrated:
        logger.warning("steps without ratings ignored: %s", ", ".join(unrated))
    if len(report.step_ids) < 3:
        logger.warning(
            "only %d step(s) shared between features and ratings; correlations undefined",
            len(report.step_ids),
        )
    out = _out_dir(args.out)
    _write_csv(
        out / "correlation.csv",
        ("feature", "r_vs_difficulty", "r_vs_score", "n_steps"),
        [[r.feature, r.r_vs_difficulty, r.r_vs_score, r.n_steps] for r in report.rows],
    )
    by_role = {}
    for role in ("expert", "beginner"):
        try:
            role_report = analysis.difficulty_correlation(labeled, ratings, role=role)
        except ValueError:
            continue  # a step without raters of this role
        by_role[role] = {
            r.feature: {"r_vs_difficulty": r.r_vs_difficulty, "r_vs_score": r.r_vs_score, "n_steps": r.n_steps}
            for r in role_report.rows
        }
    _write_json(out / "correlation_plot.json", {
        "kind": "difficulty_correlation_bar",
        "step_ids": list(report.step_ids),
        "features": [r.feature for r in report.rows],
        "r_vs_difficulty": [r.r_vs_difficulty for r in report.rows],
        "r_vs_score": [r.r_vs_score for r in report.rows],
        "n_steps": [r.n_steps for r in report.rows],
        "by_role": by_role,
    })
    return EXIT_OK


# --- synth -------------------------------------------------------------------

def cmd_synth(args: argparse.Namespace) -> int:
    from . import synth

    raw = read_json(args.config) if args.config else {}
    with _judging(args.config):
        if not isinstance(raw, dict):
            raise ValueError("synth spec must be a JSON object")
        spec = synth.cohort_spec_from_dict(raw, seed_override=args.seed)
        cohort = synth.generate_cohort(spec)  # some values are judged only here
    out = _out_dir(args.out)
    synth.write_cohort(cohort, out, format=args.format)
    _write_json(out / "synth_spec_used.json", dataclasses.asdict(spec))
    print(f"wrote {len(cohort.sessions)} sessions "
          f"({spec.n_pairs} pairs, {spec.n_steps} steps) to {out}")
    return EXIT_OK


# --- entry point -------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default="out", help="output directory (default: %(default)s)")
    p.add_argument("--jobs", type=int, default=1,
                   help="must be >= 1; analyze parses, analyzes and writes its sessions in up "
                        "to this many processes, itself and forked workers, capped by the "
                        "sessions and usable cores, with the same outputs at any value "
                        "(default: %(default)s)")
    p.add_argument("--log-level", type=str.upper, default="WARNING",
                   choices=("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"),
                   help="logging level (default: %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="opgaze", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("validate", help="check session files")
    p.add_argument("paths", nargs="+", help="session files or directories")
    p.add_argument("--expected-rate", type=float, default=None,
                   help="declared sample rate to check against (default: each header's)")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="segment, cluster, and extract features")
    p.add_argument("paths", nargs="+", help="session files or directories")
    p.add_argument("--config", help="pipeline config JSON (cluster, segmentation, features)")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare", help="earlier-vs-later feature deltas")
    p.add_argument("features", help="analyze output directory or features.csv")
    p.add_argument("manifest", help="pairs.json manifest")
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("correlate", help="feature-difficulty correlations")
    p.add_argument("features", help="analyze output directory or features.csv")
    p.add_argument("ratings", help="ratings.csv")
    _add_common(p)
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("synth", help="generate a synthetic cohort")
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl",
                   help="session file format (default: %(default)s)")
    p.add_argument("--config", help="cohort spec JSON")
    p.add_argument("--seed", type=int, default=None, help="cohort seed, in place of the spec's")
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=args.log_level, format="%(levelname)s %(name)s: %(message)s")
    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        return args.func(args)
    except (ParseError, OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
