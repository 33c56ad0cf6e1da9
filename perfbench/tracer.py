"""Span tracing for the benchmark's per-layer run, installed from outside.

Run as a program, this rebinds the module-level names each opgaze layer
exposes to span-recording wrappers, calls ``opgaze.cli.main`` with the
remaining arguments, and writes the spans as JSON once main returns::

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json analyze DIR --out OUT

The source of the program is not changed.  Spans live in memory, carry
the session id as trace id and nest through a per-thread parent stack.
``layer_metrics`` turns the spans of one traced ``analyze``, ``compare``
and ``correlate`` into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Optional


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, trace."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        trace_of: Optional[Callable[[tuple], str]] = None,
        attrs_of: Optional[Callable[[tuple, object], dict]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span.

        ``trace_of`` names the trace of a root span from the call's
        arguments; nested spans inherit their parent's.  ``attrs_of`` adds
        counts taken from the arguments and the result.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            if parent is not None:
                trace = parent["trace"]
            else:
                trace = trace_of(args) if trace_of is not None else "run"
            with self._lock:
                span = {"id": len(self.spans),
                        "parent": parent["id"] if parent is not None else None,
                        "trace": trace, "name": name, "thread": threading.get_ident()}
                self.spans.append(span)
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if attrs_of is not None:
                span.update(attrs_of(args, result))
            return result

        setattr(owner, attr, traced)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries that ``opgaze.cli`` calls through."""
    from opgaze import analysis, cli, hotspot, session

    wrap = tracer.wrap
    wrap(cli, "find_session_files", "cli.find_session_files")
    # session files are named after their session id
    wrap(cli, "_load_session", "cli._load_session", trace_of=lambda a: Path(a[0]).stem)
    wrap(cli, "analyze_session", "cli.analyze_session", trace_of=lambda a: a[0].id)
    wrap(cli, "parse_session", "ingest.parse_session")
    wrap(cli, "load_step_labels", "ingest.load_step_labels")
    wrap(session.Session, "__post_init__", "session.Session.__post_init__")
    wrap(cli, "extract_touches", "hotspot.extract_touches",
         attrs_of=lambda a, r: {"touches": len(r)})
    wrap(hotspot.ClusterParams, "resolve", "hotspot.ClusterParams.resolve")
    wrap(cli, "cluster_touches", "hotspot.cluster_touches",
         attrs_of=lambda a, r: {"touches": len(a[0]),
                                "clustered": sum(h.touch_count for h in r)})
    wrap(cli, "segment_units", "segmentation.segment_units",
         attrs_of=lambda a, r: {"units": len(r),
                                "with_hotspot": sum(ou.hotspot_id is not None for ou in r)})
    wrap(cli, "feature_vector", "features.feature_vector",
         attrs_of=lambda a, r: {"undefined": bool(r.undefined)})
    wrap(cli, "build_distance_series", "cli.build_distance_series")
    wrap(cli, "_write_session_outputs", "cli._write_session_outputs",
         trace_of=lambda a: a[1].session.id)
    wrap(cli, "_write_csv", "cli._write_csv")
    # outputs are ASCII, so characters are bytes
    wrap(cli, "atomic_write_text", "ingest.atomic_write_text",
         attrs_of=lambda a, r: {"bytes": len(a[1])})
    wrap(cli, "touch_distribution", "hotspot.touch_distribution")
    wrap(cli, "touch_distribution_plot_data", "hotspot.touch_distribution_plot_data")
    wrap(analysis, "summarize_rows", "analysis.summarize_rows")
    wrap(analysis, "pairwise_comparison", "analysis.pairwise_comparison")
    wrap(analysis, "difficulty_correlation", "analysis.difficulty_correlation")
    wrap(cli, "_read_features_csv", "cli._read_features_csv",
         attrs_of=lambda a, r: {"rows": len(r)})


# --- per-layer metrics from spans ---------------------------------------------

class SpanSet:
    """Durations and self times of one traced command's spans."""

    def __init__(self, spans: list[dict]) -> None:
        self.spans = spans
        child_s: dict[int, float] = {}
        for s in spans:
            if s["parent"] is not None:
                child_s[s["parent"]] = child_s.get(s["parent"], 0.0) + s["end"] - s["start"]
        self._child_s = child_s

    def named(self, *names: str) -> list[dict]:
        return [s for s in self.spans if s["name"] in names]

    def total_s(self, *names: str) -> float:
        return sum(s["end"] - s["start"] for s in self.named(*names))

    def self_s(self, *names: str) -> float:
        """Duration minus the time of direct children, which nest on one thread."""
        return sum(s["end"] - s["start"] - self._child_s.get(s["id"], 0.0)
                   for s in self.named(*names))

    def attr(self, key: str, *names: str) -> float:
        return sum(s[key] for s in self.named(*names))

    def root_union_s(self) -> float:
        """Length of the union of root-span intervals across threads."""
        covered, reach = 0.0, float("-inf")
        for s in sorted((s for s in self.spans if s["parent"] is None),
                        key=lambda s: s["start"]):
            start = max(s["start"], reach)
            if s["end"] > start:
                covered += s["end"] - start
            reach = max(reach, s["end"])
        return covered


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(analyze: dict, compare: dict, correlate: dict,
                  frames: int, input_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced ``analyze`` + ``compare`` + ``correlate``.

    Each argument is the JSON a traced command wrote.  Times are seconds of
    span time summed over sessions and threads.
    """
    a, c, r = SpanSet(analyze["spans"]), SpanSet(compare["spans"]), SpanSet(correlate["spans"])
    parse_s = a.self_s("ingest.parse_session", "ingest.load_step_labels")
    cluster_s = a.total_s("hotspot.cluster_touches")
    cluster_n = a.attr("touches", "hotspot.cluster_touches")
    units = a.attr("units", "segmentation.segment_units")
    vectors = a.named("features.feature_vector")
    vector_s = a.total_s("features.feature_vector")
    tasks = a.named("cli._load_session", "cli.analyze_session")
    pool_busy = sum(s["end"] - s["start"] for s in tasks)
    pool_wall = max(s["end"] for s in tasks) - min(s["start"] for s in tasks)
    return {
        "ingest.parse_s": parse_s,
        "ingest.frames_per_s": _ratio(frames, parse_s),
        "ingest.bytes_per_s": _ratio(input_bytes, parse_s),
        "session.construct_s": a.total_s("session.Session.__post_init__"),
        "hotspot.extract_s": a.total_s("hotspot.extract_touches"),
        "hotspot.resolve_s": a.total_s("hotspot.ClusterParams.resolve"),
        "hotspot.cluster_s": cluster_s,
        "hotspot.touches_per_s": _ratio(cluster_n, cluster_s),
        "hotspot.clustered_share": _ratio(a.attr("clustered", "hotspot.cluster_touches"), cluster_n),
        "hotspot.touchdist_s": a.total_s("hotspot.touch_distribution",
                                         "hotspot.touch_distribution_plot_data"),
        "segmentation.segment_s": a.total_s("segmentation.segment_units"),
        "segmentation.units": units,
        "segmentation.hotspot_share": _ratio(a.attr("with_hotspot", "segmentation.segment_units"), units),
        "features.vector_s": vector_s,
        "features.vectors_per_s": _ratio(len(vectors), vector_s),
        "features.undefined_share": _ratio(sum(s["undefined"] for s in vectors), len(vectors)),
        "features.trace_series_s": a.total_s("cli.build_distance_series"),
        "features.trace_series_calls": len(a.named("cli.build_distance_series")),
        "cli.format_s": a.self_s("cli._write_session_outputs", "cli._write_csv"),
        "ingest.write_s": a.total_s("ingest.atomic_write_text"),
        "ingest.files_written": len(a.named("ingest.atomic_write_text")),
        "ingest.bytes_written": a.attr("bytes", "ingest.atomic_write_text"),
        "cli.discover_s": a.total_s("cli.find_session_files"),
        "cli.pool_busy_s": pool_busy,
        "cli.pool_wall_s": pool_wall,
        "cli.pool_overlap": _ratio(pool_busy, pool_wall),
        "cli.read_features_s": c.total_s("cli._read_features_csv") + r.total_s("cli._read_features_csv"),
        "analysis.compare_s": c.total_s("analysis.summarize_rows", "analysis.pairwise_comparison"),
        "analysis.correlate_s": r.total_s("analysis.difficulty_correlation"),
        # feature rows the two studies read, so twice the unit count
        "analysis.rows": c.attr("rows", "cli._read_features_csv") + r.attr("rows", "cli._read_features_csv"),
        "trace.coverage": _ratio(a.root_union_s(), analyze["main_s"]),
    }


def main(argv: list[str]) -> int:
    spans_path, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    install(tracer)
    from opgaze import cli

    start = time.perf_counter()
    code = cli.main(cli_args)
    main_s = time.perf_counter() - start
    spans_path.write_text(json.dumps({"main_s": main_s, "spans": tracer.spans}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
