"""Span tracing from outside the package, and the per-layer metrics it yields.

The tracer replaces public functions with timing wrappers under the names
their callers look them up by (for example ``bikeshare_equity.cli.count_by_tract``
or ``TractIndex.candidates``); nothing in the package is edited. Each span
records its name, start, end, parent span and thread, and stays in memory
until the run ends. Spans on the harvest's worker threads also record thread
CPU time, which is their busy time while other threads hold the interpreter
lock.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from dataclasses import dataclass
from statistics import median

import bikeshare_equity.cli as cli
import bikeshare_equity.gbfs_client as gbfs_client
import bikeshare_equity.geo as geo
import bikeshare_equity.join_aggregate as join_aggregate
import bikeshare_equity.snapshot_store as snapshot_store

# (owner, attribute, span name, layer). Span names for the analyze chain
# reuse the stage names of the CLI's _stage wrapper.
TRACED = (
    (cli, "fetch_system_catalog", "fetch_system_catalog", "gbfs_client"),
    (cli, "harvest", "harvest", "gbfs_client"),
    (cli, "append_snapshot", "append_snapshot", "snapshot_store"),
    (cli, "load_snapshot", "load_snapshot", "snapshot_store"),
    (cli, "load_boundaries", "load_boundaries", "geo"),
    (cli, "summarize_systems", "summarize_systems", "join_aggregate"),
    (cli, "count_by_tract", "count_by_tract", "join_aggregate"),
    (cli, "filter_zero_counties", "filter_zero_counties", "join_aggregate"),
    (cli, "read_demographics_csv", "read_demographics", "join_aggregate"),
    (cli, "join_demographics", "join_demographics", "join_aggregate"),
    (cli, "scale_predictors", "scale_predictors", "join_aggregate"),
    (cli, "build_model_frame", "build_model_frame", "join_aggregate"),
    (cli, "fit_poisson", "fit_poisson", "poisson_glm"),
    (cli, "render_report", "render_report", "poisson_glm"),
    (cli, "render_map_svg", "render_map_svg", "cli"),
    (join_aggregate, "assign_tract", "assign_tract", "geo"),
    (geo, "point_in_polygon", "point_in_polygon", "geo"),
    (geo.TractIndex, "candidates", "candidates", "geo"),
    (snapshot_store, "read_observations_csv", "read_observations_csv", "gbfs_client"),
    (snapshot_store, "write_observations_csv", "write_observations_csv", "gbfs_client"),
    (gbfs_client, "discover_feeds", "discover_feeds", "gbfs_client"),
    (gbfs_client, "fetch_document", "fetch_document", "gbfs_client"),
    (gbfs_client, "parse_station_information", "parse_station_information", "gbfs_client"),
    (gbfs_client, "parse_free_bike_status", "parse_free_bike_status", "gbfs_client"),
)
LAYER = {name: layer for _, _, name, layer in TRACED}


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int  # 0 for a root span
    thread: int
    busy: float  # thread CPU seconds on worker threads, else wall seconds
    result: object = None


def _count_result(name, result):
    """The part of a traced call's result that a per-layer count needs."""
    if name in ("candidates", "load_snapshot", "read_observations_csv",
                "filter_zero_counties"):
        return len(result)
    if name == "point_in_polygon":
        return bool(result)
    if name in ("parse_station_information", "parse_free_bike_status"):
        return (len(result[0]), result[1].dropped)
    if name == "count_by_tract":
        return result[1].unassigned
    if name == "join_demographics":
        return len(result[0])
    if name == "harvest":
        return len(result[1].failures)
    if name == "fit_poisson":
        return result.iterations
    return None


class Tracer:
    """Installs wrappers, collects spans; one instance per traced process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._saved: list = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, func):
        def traced(*args, **kwargs):
            stack = self._stack()
            on_worker = stack is not self._main_stack
            if stack:
                parent = stack[-1]
            else:
                # A worker thread's first span belongs to the span that is
                # open on the main thread (the harvest that started the pool).
                parent = self._main_stack[-1] if on_worker and self._main_stack else 0
            span_id = next(self._ids)
            stack.append(span_id)
            cpu = time.thread_time() if on_worker else 0.0
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                busy = time.thread_time() - cpu if on_worker else end - start
                stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, threading.get_ident(),
                                   busy, _count_result(name, result)))
            return result

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        for owner, attr, name, _ in TRACED:
            func = getattr(owner, attr, None)
            if func is None:
                continue  # a later version may drop the function; its metrics read 0
            self._saved.append((owner, attr, func))
            setattr(owner, attr, self._wrap(name, func))

    def uninstall(self) -> None:
        for owner, attr, func in reversed(self._saved):
            setattr(owner, attr, func)
        self._saved.clear()

    @contextlib.contextmanager
    def command(self, name: str):
        """A root span around one CLI command, named ``<command>_cmd``."""
        span_id = next(self._ids)
        self._main_stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._main_stack.pop()
            self.spans.append(Span(span_id, name + "_cmd", start, end, 0, self._main, end - start))


def _covered(intervals, start, end) -> float:
    """Length of [start, end] covered by the union of intervals."""
    total, reach = 0.0, start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans: list[Span], main_thread: int) -> dict[int, float]:
    """Each span's time minus the part its child spans account for.

    On the main thread that is the span's wall time minus the union of its
    children's intervals. On a pool thread it is the span's busy time minus
    its children's busy time.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        kids = children.get(span.span_id, ())
        if span.thread == main_thread:
            result[span.span_id] = (span.end - span.start) - _covered(
                [(k.start, k.end) for k in kids], span.start, span.end)
        else:
            result[span.span_id] = span.busy - sum(k.busy for k in kids)
    return result


def command_metrics(command: str, spans: list[Span], ring_vertices: int) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced CLI command."""
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def total(name):
        return sum(s.end - s.start for s in by_name.get(name, ()))

    def busy(name):
        return sum(s.busy for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    root = by_name[command + "_cmd"][0]
    selfs = self_times(spans, root.thread)
    m: dict[str, float] = {}
    if command in ("analyze", "map"):
        rows_read = sum(s.result for s in by_name.get("read_observations_csv", ()))
        rows_returned = sum(s.result for s in by_name.get("load_snapshot", ()))
        m["snapshot_store.load_snapshot_s"] = total("load_snapshot")
        m["snapshot_store.rows_read"] = rows_read
        m["snapshot_store.rows_returned"] = rows_returned
        m["snapshot_store.keep_ratio"] = rows_returned / rows_read if rows_read else 0.0
        m["snapshot_store.load_us_per_row"] = 1e6 * total("load_snapshot") / rows_read if rows_read else 0.0
        m["gbfs_client.read_observations_csv_s"] = total("read_observations_csv")
    if command == "analyze":
        n_assign = calls("assign_tract")
        pip = by_name.get("point_in_polygon", ())
        m["geo.load_boundaries_s"] = total("load_boundaries")
        m["geo.ring_vertices"] = ring_vertices
        m["geo.load_us_per_vertex"] = 1e6 * total("load_boundaries") / ring_vertices
        m["geo.assign_tract_s"] = total("assign_tract")
        m["geo.assign_us_per_obs"] = 1e6 * total("assign_tract") / n_assign if n_assign else 0.0
        m["geo.candidates_per_obs"] = (
            sum(s.result for s in by_name.get("candidates", ())) / n_assign if n_assign else 0.0
        )
        m["geo.pip_tests"] = len(pip)
        m["geo.pip_match_ratio"] = sum(s.result for s in pip) / len(pip) if pip else 0.0
        count_spans = by_name.get("count_by_tract", ())
        m["join_aggregate.count_by_tract_self_s"] = sum(selfs[s.span_id] for s in count_spans)
        for stage, metric in (
            ("summarize_systems", "summarize_systems_s"),
            ("filter_zero_counties", "filter_zero_counties_s"),
            ("read_demographics", "read_demographics_csv_s"),
            ("join_demographics", "join_demographics_s"),
            ("scale_predictors", "scale_predictors_s"),
            ("build_model_frame", "build_model_frame_s"),
        ):
            m["join_aggregate." + metric] = total(stage)
        m["join_aggregate.unassigned_obs"] = sum(s.result for s in count_spans)
        m["join_aggregate.tracts_retained"] = sum(s.result for s in by_name.get("filter_zero_counties", ()))
        m["join_aggregate.tracts_joined"] = sum(s.result for s in by_name.get("join_demographics", ()))
        m["poisson_glm.fit_poisson_s"] = total("fit_poisson")
        m["poisson_glm.irls_iterations"] = sum(s.result for s in by_name.get("fit_poisson", ()))
        m["poisson_glm.render_report_s"] = total("render_report")
        m["cli.analyze_self_s"] = selfs[root.span_id]
    if command == "map":
        m["cli.render_map_svg_s"] = total("render_map_svg")
    if command == "harvest":
        parse = by_name.get("parse_station_information", []) + by_name.get("parse_free_bike_status", [])
        parsed = sum(s.result[0] for s in parse)
        dropped = sum(s.result[1] for s in parse)
        parse_busy = sum(s.busy for s in parse)
        harvest_spans = by_name.get("harvest", ())
        harvest_ids = {s.span_id for s in harvest_spans}
        # Busy time of the per-system work: the outermost spans on the pool's
        # threads, whose parent is the harvest span on the main thread.
        system_busy = sum(s.busy for s in spans if s.parent in harvest_ids and s.thread != root.thread)
        m["gbfs_client.parse_s"] = parse_busy
        m["gbfs_client.parse_us_per_entity"] = 1e6 * parse_busy / (parsed + dropped) if parsed + dropped else 0.0
        m["gbfs_client.discover_feeds_s"] = busy("discover_feeds")
        m["gbfs_client.fetch_document_s"] = busy("fetch_document")
        m["gbfs_client.fetch_system_catalog_s"] = total("fetch_system_catalog")
        m["gbfs_client.harvest_s"] = total("harvest")
        m["gbfs_client.harvest_overlap"] = system_busy / total("harvest") if harvest_spans else 0.0
        m["gbfs_client.write_observations_csv_s"] = total("write_observations_csv")
        m["gbfs_client.entities_parsed"] = parsed
        m["gbfs_client.entities_dropped"] = dropped
        m["gbfs_client.feed_failures"] = sum(s.result for s in harvest_spans)
        m["snapshot_store.append_snapshot_s"] = total("append_snapshot")
    return m


def shares(command: str, spans: list[Span]) -> dict[str, float]:
    """Each span name's self and inclusive time as shares of the command's wall time.

    Keys are ``self:<name>`` and ``incl:<name>``. Pool-thread spans count
    busy time, so the shares of a threaded harvest need not sum to one.
    """
    root = next(s for s in spans if s.name == command + "_cmd")
    selfs = self_times(spans, root.thread)
    wall = root.end - root.start
    result: dict[str, float] = {}
    for span in spans:
        inclusive = span.end - span.start if span.thread == root.thread else span.busy
        for key, value in (("self:", selfs[span.span_id]), ("incl:", inclusive)):
            result[key + span.name] = result.get(key + span.name, 0.0) + value / wall
    return result


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    names = {name for sample in samples for name in sample}
    return {name: median(s[name] for s in samples if name in s) for name in sorted(names)}
