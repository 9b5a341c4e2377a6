"""Per-layer instrumentation for the traced run, installed from outside.

Nothing under ``src/`` changes: :class:`Instrumentation` replaces the
public entry points of each layer *on the class the caller looks them
up on* with timing wrappers, and hooks the process tracer so every
finished ``/query`` trace (the spans the server already emits) is kept
in memory until the segment ends. :func:`layer_summary` then turns the
calls and spans into the per-layer metrics listed in ``README.md``.

Timing wrappers record into a :class:`Recorder`; ``AQPSession._route``
is the one private name wrapped, as an ``aqp.route`` span, because the
plain front routes inside ``aqp.plan`` without a span of its own.
"""

from __future__ import annotations

import statistics
import threading
import time
from collections import defaultdict
from typing import Dict, List

from repro.aqp.session import AQPSession
from repro.core.cvopt import CVOptSampler
from repro.core.streaming import StreamingCVOptSampler
from repro.obs import default_tracer
from repro.warehouse.service import WarehouseService
from repro.warehouse.store import SampleStore

#: Spans whose self time is reported per query, by metric name.
SPAN_METRICS = {
    "aqp.parse": "aqp.parse_ms",
    "aqp.plan": "aqp.plan_ms",
    "aqp.compile": "aqp.compile_ms",
    "aqp.route": "aqp.route_ms",
    "aqp.execute": "aqp.execute_ms",
    "engine.factorize": "engine.factorize_ms",
    "warehouse.contract": "warehouse.contract_ms",
}


class Recorder:
    """Thread-safe in-memory store of wrapped calls and finished traces."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.calls: Dict[str, List] = defaultdict(list)
        self.traces: List = []

    def add(self, name: str, seconds: float, info=None) -> None:
        with self._lock:
            self.calls[name].append((seconds, info))

    def add_trace(self, trace) -> None:
        with self._lock:
            self.traces.append(trace)

    def take(self):
        """Return and clear everything recorded so far."""
        with self._lock:
            calls, traces = self.calls, self.traces
            self.calls, self.traces = defaultdict(list), []
        return calls, traces


def _timed(recorder: Recorder, name: str, original, info=None):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        result = original(*args, **kwargs)
        recorder.add(
            name,
            time.perf_counter() - t0,
            info(args, kwargs, result) if info is not None else None,
        )
        return result

    return wrapper


def _sql_of(args, kwargs, _result):
    return kwargs.get("sql", args[1] if len(args) > 1 else None)


def _rows_scanned(args, _kwargs, result):
    """Rows of the table the routed plan read: the sample, or the base
    tables for exact execution."""
    session = args[0]
    name = result.route.sample_name
    if name is not None:
        return session.catalog.get(name).num_rows
    return sum(t.num_rows for t in session.tables.values())


def _refresh_action(_args, _kwargs, report):
    return getattr(report, "action", None)


def _route_span(original):
    tracer = default_tracer()

    def wrapper(*args, **kwargs):
        with tracer.span("aqp.route"):
            return original(*args, **kwargs)

    return wrapper


class Instrumentation:
    """Installs and removes the wrappers; idempotent both ways."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._saved: List = []

    def _targets(self):
        r = self.recorder
        yield WarehouseService, "query_with_contract", lambda f: _timed(
            r, "warehouse.query", f, _sql_of)
        yield WarehouseService, "refresh", lambda f: _timed(
            r, "warehouse.refresh", f, _refresh_action)
        yield SampleStore, "put", lambda f: _timed(r, "warehouse.store_put", f)
        yield SampleStore, "get", lambda f: _timed(r, "warehouse.store_get", f)
        yield AQPSession, "query", lambda f: _timed(
            r, "aqp.query", f, _rows_scanned)
        yield AQPSession, "_route", _route_span
        yield CVOptSampler, "sample", lambda f: _timed(r, "core.build", f)
        for attr in ("observe_table", "finalize"):
            yield StreamingCVOptSampler, attr, lambda f: _timed(
                r, "core.resume", f)

    def install(self) -> None:
        if self._saved:
            return
        for cls, attr, wrap in self._targets():
            own = attr in cls.__dict__
            self._saved.append((cls, attr, cls.__dict__.get(attr), own))
            setattr(cls, attr, wrap(getattr(cls, attr)))
        resume = StreamingCVOptSampler.__dict__["resume"]
        self._saved.append((StreamingCVOptSampler, "resume", resume, True))
        timed = _timed(self.recorder, "core.resume", resume.__func__)
        StreamingCVOptSampler.resume = classmethod(timed)
        tracer = default_tracer()
        record = tracer._record

        def keep(trace):
            record(trace)
            self.recorder.add_trace(trace)

        tracer._record = keep

    def uninstall(self) -> None:
        if not self._saved:
            return
        for cls, attr, original, own in reversed(self._saved):
            if own:
                setattr(cls, attr, original)
            else:
                delattr(cls, attr)
        self._saved = []
        del default_tracer()._record


def _self_times(spans: List[Dict]) -> Dict[str, float]:
    """Each span's duration minus the part of its interval covered by
    its children (overlapping children are merged first)."""
    children: Dict[str, List] = defaultdict(list)
    for s in spans:
        if s.get("parent_id") is not None and s.get("duration") is not None:
            children[s["parent_id"]].append(
                (s["start_time"], s["start_time"] + s["duration"])
            )
    out = {}
    for s in spans:
        if s.get("duration") is None:
            continue
        lo, hi = s["start_time"], s["start_time"] + s["duration"]
        covered, edge = 0.0, lo
        for a, b in sorted(children.get(s["span_id"], ())):
            a, b = max(a, edge), min(b, hi)
            if b > a:
                covered += b - a
                edge = b
        out[s["span_id"]] = max(s["duration"] - covered, 0.0)
    return out


def _quantile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        int(q * 100) - 1
    ]


def layer_summary(calls, traces) -> Dict[str, float]:
    """Per-layer metrics of one traced segment (units in the names).

    Span times are the summed self time per ``/query`` trace; the
    exact-fallback time is its mean inclusive duration per fallback.
    """
    dicts = [t.to_dict() for t in traces]
    n = max(len(dicts), 1)
    self_sum: Dict[str, float] = defaultdict(float)
    counts: Dict[str, int] = defaultdict(int)
    fallback: List[float] = []
    for trace in dicts:
        spans = trace["spans"]
        selfs = _self_times(spans)
        for s in spans:
            counts[s["name"]] += 1
            if s["name"] in SPAN_METRICS:
                self_sum[s["name"]] += selfs.get(s["span_id"], 0.0)
            elif s["name"] == "warehouse.fallback_exact":
                fallback.append(s["duration"] or 0.0)
    out = {
        metric: 1e3 * self_sum[span] / n
        for span, metric in SPAN_METRICS.items()
    }
    out["aqp.compiles_per_query"] = counts["aqp.compile"] / n
    out["engine.factorize_calls_per_query"] = counts["engine.factorize"] / n
    out["warehouse.fallback_exact_ratio"] = len(fallback) / n
    out["warehouse.fallback_exact_ms"] = (
        1e3 * statistics.fmean(fallback) if fallback else 0.0
    )
    rows = sum(info for _s, info in calls.get("aqp.query", ()))
    out["engine.rows_scanned_per_query"] = rows / n
    query = [s for s, _ in calls.get("warehouse.query", ())]
    out["warehouse.query_p50_ms"] = 1e3 * _quantile(query, 0.50)
    out["warehouse.query_p99_ms"] = 1e3 * _quantile(query, 0.99)
    refresh = calls.get("warehouse.refresh", ())
    batches = max(len(refresh), 1)
    out["warehouse.refresh_ms"] = 1e3 * sum(s for s, _ in refresh) / batches
    out["core.resume_ms"] = 1e3 * sum(
        s for s, _ in calls.get("core.resume", ())
    ) / batches
    out["core.rebuild_escalations"] = sum(
        1 for _s, action in refresh if action == "rebuild"
    )
    for name in ("warehouse.store_put", "warehouse.store_get"):
        times = [s for s, _ in calls.get(name, ())]
        out[name + "_ms"] = 1e3 * statistics.fmean(times) if times else 0.0
    out["traced_queries"] = len(dicts)
    return out


def query_times(calls) -> List[List]:
    """``[sql, seconds]`` for every ``query_with_contract`` call, for
    pairing with the client's round trips."""
    return [[info, s] for s, info in calls.get("warehouse.query", ())]
