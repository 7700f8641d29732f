"""Outside-in layer trace: spans around each layer's public functions.

The wrappers are installed from here, only for a traced run, and removed
afterwards; nothing under ``src/`` changes. Each span keeps its name,
start, end, parent and a unit count (documents for per-observation
metrics). Spans stay in memory and are written out when the run ends.

A layer's self time is its span minus the spans of the *other* layers
it called: a chain of nested spans of one layer (``client.send`` calling
``client.uplink``) is one unit of that layer's work, and the first span
of another layer below it is subtracted as a whole.

Store reads count the documents they examine per document they return.
The examined count is the size of the candidate set the planner's own
``_plan`` produced for that read (the whole collection for a full scan),
read off its return value, so no planning is repeated.

Only the installing thread of the installing process records: shard
workers fork from a traced coordinator and inherit the wrappers, which
then just call through.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple


def _n_arg(position: int, name: str) -> Callable[[tuple, dict], int]:
    """Unit count = length of one argument (a batch of documents)."""

    def count(args: tuple, kwargs: dict) -> int:
        value = kwargs[name] if name in kwargs else (
            args[position] if len(args) > position else None
        )
        return len(value) if hasattr(value, "__len__") else 1

    return count


#: (module, class or None, attribute, span name, layer, unit count)
SPANS: List[Tuple[str, Optional[str], str, str, str, Optional[Callable]]] = [
    ("repro.client.client", "GoFlowClient", "try_transmit", "client.send", "client", None),
    ("repro.client.subscriber", "StreamConsumer", "poll", "client.poll", "client", None),
    ("repro.client.uplink", "BrokerUplink", "send", "client.uplink", "client", _n_arg(1, "documents")),
    ("repro.client.uplink", "RestBatchUplink", "send", "client.uplink", "client", _n_arg(1, "documents")),
    ("repro.broker.channel", "Channel", "basic_publish", "broker.publish", "broker", None),
    ("repro.core.api", "GoFlowAPI", "dispatch", "api.dispatch", "api", None),
    ("repro.core.datamgmt", "DataManager", "ingest", "datamgmt.ingest", "ingest", None),
    ("repro.core.datamgmt", "DataManager", "ingest_many", "datamgmt.ingest", "ingest", _n_arg(2, "documents")),
    ("repro.core.privacy", "PrivacyPolicy", "anonymize_ingest", "privacy.anonymize", "privacy", None),
    ("repro.core.privacy", "PrivacyPolicy", "anonymize_ingest_many", "privacy.anonymize", "privacy", _n_arg(1, "documents")),
    ("repro.docstore.collection", "Collection", "insert_one", "collection.insert", "store", None),
    ("repro.docstore.collection", "Collection", "insert_many", "collection.insert", "store", _n_arg(1, "documents")),
    ("repro.docstore.collection", "Collection", "aggregate", "aggregate.pipeline", "query", None),
    ("repro.sharding.router", "ShardedObservations", "aggregate", "aggregate.pipeline", "query", None),
    ("repro.docstore.wal", "WriteAheadLog", "log", "wal.append", "wal",
     lambda args, kwargs: len(args[1].get("docs") or ()) or 1),
    ("repro.docstore.wal", None, "recover_store", "wal.recover", "wal", None),
    ("repro.core.materialized", "MaterializedAnalytics", "observe", "materialized.fold", "derived", None),
    ("repro.core.materialized", "MaterializedAnalytics", "observe_batch", "materialized.fold", "derived", _n_arg(1, "documents")),
    ("repro.core.materialized", "MaterializedAnalytics", "_ensure_fresh", "materialized.refresh", "derived", None),
    ("repro.core.materialized", "MaterializedAnalytics", "_rebuild", "materialized.rebuild", "derived", None),
    ("repro.docstore.columnar", "ColumnarMirror", "on_insert_batch", "columnar.append", "derived", _n_arg(1, "docs")),
    ("repro.streaming.subscriptions", "SubscriptionManager", "on_stored", "streaming.on_stored", "streaming", _n_arg(2, "pairs")),
    ("repro.streaming.tiles", "TileDeltaEngine", "observe", "streaming.tile_fold", "streaming", None),
    ("repro.streaming.subscriptions", "SubscriptionManager", "next_events", "streaming.next_events", "streaming", None),
    ("repro.sharding.router", "ShardRouter", "ingest", "router.ingest", "sharding", None),
    ("repro.sharding.router", "ShardRouter", "ingest_many", "router.ingest", "sharding", _n_arg(2, "documents")),
    ("repro.sharding.router", "ShardRouter", "scatter_aggregate", "router.scatter", "sharding", None),
]

#: every public AnalyticsEngine figure query is one ``analytics.figure`` span
FIGURE_QUERIES = (
    "totals", "per_model_table", "cumulative_by_day", "provider_shares",
    "accuracy_values", "accuracy_buckets", "spl_values", "top_contributors",
    "hourly_distribution", "hourly_distribution_by_contributor",
    "activity_distribution", "transmission_delays",
)
#: store reads: ``collection.find`` spans with examined/returned counts
FINDS = ("find", "find_one", "count")
#: per-call counters (no span): filter checks made by the fan-out
COUNTERS = [
    ("repro.streaming.filters", "FilterSpec", "matches", "streaming.match_checks"),
    ("repro.streaming.filters", "FilterSpec", "wants_region", "streaming.match_checks"),
]

#: every per-layer metric the traced run prints, with its unit
PER_LAYER = {
    "client.send_self_us": "us",
    "client.poll_us": "us",
    "broker.publish_self_us": "us",
    "api.dispatch_self_us": "us",
    "datamgmt.ingest_self_us_per_obs": "us",
    "privacy.anonymize_us_per_obs": "us",
    "datamgmt.dedup_hits": "count",
    "collection.insert_us_per_obs": "us",
    "collection.find_ms": "ms",
    "collection.examined_per_returned": "ratio",
    "collection.full_scans": "count",
    "wal.append_us_per_obs": "us",
    "wal.syncs_per_kobs": "1/kobs",
    "wal.bytes_per_obs": "B/obs",
    "wal.recover_s": "s",
    "materialized.fold_us_per_obs": "us",
    "columnar.append_us_per_obs": "us",
    "materialized.rebuilds": "count",
    "columnar.rebuilds": "count",
    "materialized.rebuild_ms": "ms",
    "columnar.rebuild_ms": "ms",
    "columnar.kernel_share": "ratio",
    "analytics.figure_query_ms": "ms",
    "aggregate.pipeline_ms": "ms",
    "streaming.on_stored_us_per_obs": "us",
    "streaming.tile_fold_us_per_obs": "us",
    "streaming.next_events_us": "us",
    "streaming.match_checks_per_obs": "count",
    "streaming.events_per_obs": "count",
    "router.ingest_self_us_per_obs": "us",
    "router.worker_wait_ms_per_batch": "ms",
    "router.scatter_merge_ms": "ms",
    "ipc.bytes_per_obs": "B/obs",
    "ipc.round_trips_per_batch": "count",
    "sharding.max_shard_share": "ratio",
    "trace.overhead_pct": "%",
}

LAYER_OF = {name: layer for _, _, _, name, layer, _ in SPANS}
LAYER_OF.update({"analytics.figure": "query", "collection.find": "store",
                 "columnar.refresh": "derived", "ipc.submit": "ipc", "ipc.wait": "ipc"})


class Tracer:
    """Records spans from wrapped functions until :meth:`uninstall`."""

    def __init__(self) -> None:
        #: [name, start, end, parent index, units]
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        #: find span index -> (documents examined, documents returned)
        self.finds: Dict[int, Tuple[int, int]] = {}
        self._examined: Optional[int] = None
        self._stack: List[int] = []
        self._pid = os.getpid()
        self._tid = threading.get_ident()
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for module, cls, attr, name, _layer, units in SPANS:
            self._patch(module, cls, attr, lambda fn, n=name, u=units: self._span(fn, n, u))
        for attr in FIGURE_QUERIES:
            self._patch("repro.core.analytics", "AnalyticsEngine", attr,
                        lambda fn: self._span(fn, "analytics.figure", None))
        for attr in FINDS:
            self._patch("repro.docstore.collection", "Collection", attr,
                        lambda fn, a=attr: self._find(fn, a))
        self._patch("repro.docstore.collection", "Collection", "_plan", self._plan)
        self._patch("repro.docstore.columnar", "ColumnarMirror", "_ensure_fresh_locked",
                    self._refresh)
        for attr, name in (("submit", "ipc.submit"), ("result", "ipc.wait")):
            self._patch("repro.sharding.workers", "WorkerHandle", attr,
                        lambda fn, n=name: self._ipc(fn, n))
        for module, cls, attr, name in COUNTERS:
            self._patch(module, cls, attr, lambda fn, n=name: self._counter(fn, n))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, module: str, cls: Optional[str], attr: str, make: Callable) -> None:
        owner: Any = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        original = owner.__dict__[attr]
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._undo.append((owner, attr, original))

    def _mine(self) -> bool:
        return threading.get_ident() == self._tid and os.getpid() == self._pid

    # -- wrappers ------------------------------------------------------------

    def _enter(self, name: str, units: int) -> list:
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, units]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _span(self, fn: Callable, name: str, units: Optional[Callable]) -> Callable:
        def traced(*args, **kwargs):
            if not self._mine():
                return fn(*args, **kwargs)
            record = self._enter(name, units(args, kwargs) if units else 1)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._stack.pop()

        return traced

    def _find(self, fn: Callable, attr: str) -> Callable:
        """Store reads; a filtered read also records the documents it
        examined (from :meth:`_plan`) and returned."""

        def traced(collection, filter_doc=None, *args, **kwargs):
            if not self._mine():
                return fn(collection, filter_doc, *args, **kwargs)
            self._examined = None
            index = len(self.spans)
            record = self._enter("collection.find", 1)
            record[1] = perf_counter()
            try:
                result = fn(collection, filter_doc, *args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._stack.pop()
            if filter_doc and self._examined is not None:
                if attr == "count":
                    returned = result
                elif attr == "find_one":
                    returned = int(result is not None)
                else:
                    returned = result.count()
                self.finds[index] = (self._examined, returned)
            return result

        return traced

    def _plan(self, fn: Callable) -> Callable:
        """The planner's candidate set, sized for the store read that asked
        for it (None means a scan of every document)."""

        def counted(collection, filter_doc, *args, **kwargs):
            candidates = fn(collection, filter_doc, *args, **kwargs)
            if self._stack and self.spans[self._stack[-1]][0] == "collection.find" and self._mine():
                self._examined = len(collection._docs) if candidates is None else len(candidates)
            return candidates

        return counted

    def _refresh(self, fn: Callable) -> Callable:
        """The columnar mirror's lazy refresh; units = 1 when it rebuilt."""

        def traced(*args, **kwargs):
            if not self._mine():
                return fn(*args, **kwargs)
            record = self._enter("columnar.refresh", 0)
            record[1] = perf_counter()
            try:
                rebuilt = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._stack.pop()
            record[4] = 1 if rebuilt else 0
            return rebuilt

        return traced

    def _ipc(self, fn: Callable, name: str) -> Callable:
        """Worker round-trip halves; units = wire bytes moved in the call
        (the connection's own byte counters)."""

        def traced(handle, *args, **kwargs):
            if not self._mine():
                return fn(handle, *args, **kwargs)
            wire = handle.conn
            before = wire.bytes_out + wire.bytes_in
            record = self._enter(name, 0)
            record[1] = perf_counter()
            try:
                return fn(handle, *args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._stack.pop()
                record[4] = wire.bytes_out + wire.bytes_in - before

        return traced

    def _counter(self, fn: Callable, name: str) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- output --------------------------------------------------------------

    def write(self, path: Path) -> None:
        """One JSON line per span: name, start, end, parent, units."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


class Analysis:
    """Per-layer aggregates over the spans ``first`` to ``last`` (exclusive)
    of a finished trace: a stretch of top-level calls, so every span in it
    has its callees in it too."""

    def __init__(self, tracer: Tracer, first: int, last: int) -> None:
        spans = tracer.spans
        self.tracer = tracer
        self.first, self.last = first, last
        self.dur = [s[2] - s[1] for s in spans]
        layer = [LAYER_OF[s[0]] for s in spans]
        root = list(range(len(spans)))
        foreign = [0.0] * len(spans)
        for i in range(first, last):
            parent = spans[i][3]
            if parent < 0:
                continue
            if layer[parent] == layer[i]:
                root[i] = root[parent]
            else:
                foreign[root[parent]] += self.dur[i]
        self.by_name: Dict[str, List[int]] = defaultdict(list)
        self.roots: Dict[str, List[int]] = defaultdict(list)
        for i in range(first, last):
            self.by_name[spans[i][0]].append(i)
            if root[i] == i:
                self.roots[spans[i][0]].append(i)
        #: a chain root's self time (the whole chain's, minus other layers)
        self.self_time = [d - f for d, f in zip(self.dur, foreign)]
        self.root = root
        self.layers = set(layer[first:last])
        reads = [counts for i, counts in tracer.finds.items() if first <= i < last]
        self.examined = sum(examined for examined, _ in reads)
        self.returned = sum(returned for _, returned in reads)

    def units(self, name: str) -> int:
        return sum(self.tracer.spans[i][4] for i in self.by_name.get(name, ()))

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def self_per_call(self, name: str) -> Optional[float]:
        roots = self.roots.get(name)
        return sum(self.self_time[i] for i in roots) / len(roots) if roots else None

    def self_per_unit(self, name: str) -> Optional[float]:
        roots = self.roots.get(name)
        units = sum(self.tracer.spans[i][4] for i in roots or ())
        return sum(self.self_time[i] for i in roots) / units if units else None

    def total(self, name: str, units_only: bool = False) -> float:
        spans = self.tracer.spans
        return sum(
            self.dur[i] for i in self.by_name.get(name, ())
            if not units_only or spans[i][4]
        )

    def per_unit(self, name: str, per: Optional[str] = None) -> Optional[float]:
        units = self.units(per or name)
        return self.total(name) / units if units else None

    def p50(self, name: str) -> Optional[float]:
        indices = self.by_name.get(name)
        return statistics.median(self.dur[i] for i in indices) if indices else None

    def mean(self, name: str) -> Optional[float]:
        indices = self.by_name.get(name)
        return self.total(name) / len(indices) if indices else None

    def under(self, name: str, parent_name: str) -> List[int]:
        """Spans ``name`` called from a ``parent_name`` span (directly, or
        through more spans of the caller's layer)."""
        spans = self.tracer.spans
        out = []
        for i in self.by_name.get(name, ()):
            parent = spans[i][3]
            while parent >= 0 and spans[parent][0] != parent_name and self.root[parent] != parent:
                parent = spans[parent][3]
            if parent >= 0 and spans[parent][0] == parent_name:
                out.append(i)
        return out


def layer_metrics(analysis: Analysis, probe: Dict[str, Any]) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric whose layer ran: name -> (value, unit).

    ``probe`` holds the program's own counters over the same window as
    the spans of ``analysis``.
    """
    out: Dict[str, Tuple[float, str]] = {}
    us, ms = 1e6, 1e3

    def put(name: str, value: Optional[float], unit: str, scale: float = 1.0) -> None:
        if value is not None:
            out[name] = (value * scale, unit)

    a = analysis
    layers = a.layers
    put("client.send_self_us", a.self_per_call("client.send"), "us", us)
    put("client.poll_us", a.mean("client.poll"), "us", us)
    put("broker.publish_self_us", a.self_per_call("broker.publish"), "us", us)
    put("api.dispatch_self_us", a.self_per_call("api.dispatch"), "us", us)
    put("datamgmt.ingest_self_us_per_obs", a.self_per_unit("datamgmt.ingest"), "us", us)
    put("privacy.anonymize_us_per_obs", a.per_unit("privacy.anonymize"), "us", us)
    if "ingest" in layers:
        put("datamgmt.dedup_hits", probe.get("dedup_hits"), "count")
    put("collection.insert_us_per_obs", a.self_per_unit("collection.insert"), "us", us)
    put("collection.find_ms", a.p50("collection.find"), "ms", ms)
    if a.returned:
        put("collection.examined_per_returned", a.examined / a.returned, "ratio")
    if "store" in layers:
        put("collection.full_scans", probe.get("full_scans"), "count")
    wal_units = a.units("wal.append")
    put("wal.append_us_per_obs", a.per_unit("wal.append"), "us", us)
    if wal_units:
        put("wal.syncs_per_kobs", probe.get("wal_syncs", 0) * 1000.0 / wal_units, "1/kobs")
        put("wal.bytes_per_obs", probe.get("wal_bytes", 0) / wal_units, "B/obs")
    put("wal.recover_s", a.mean("wal.recover"), "s")
    # both views defer their per-document work to the next read: a fold
    # is the ingest-side append plus the read-side drain of the backlog
    folded = a.units("materialized.fold")
    if folded:
        rebuilds_in_refresh = sum(a.dur[i] for i in a.under("materialized.rebuild", "materialized.refresh"))
        drain = a.total("materialized.refresh") - rebuilds_in_refresh
        put("materialized.fold_us_per_obs", (a.total("materialized.fold") + drain) / folded, "us", us)
    appended = a.units("columnar.append")
    if appended:
        drain = a.total("columnar.refresh") - a.total("columnar.refresh", units_only=True)
        put("columnar.append_us_per_obs", (a.total("columnar.append") + drain) / appended, "us", us)
    if "derived" in layers:
        put("materialized.rebuilds", a.calls("materialized.rebuild"), "count")
        put("materialized.rebuild_ms", a.total("materialized.rebuild"), "ms", ms)
        put("columnar.rebuilds", a.units("columnar.refresh"), "count")
        put("columnar.rebuild_ms", a.total("columnar.refresh", units_only=True), "ms", ms)
    hits, fallbacks = probe.get("kernel_hits"), probe.get("fallbacks")
    if hits is not None and hits + fallbacks:
        put("columnar.kernel_share", hits / (hits + fallbacks), "ratio")
    put("analytics.figure_query_ms", a.p50("analytics.figure"), "ms", ms)
    put("aggregate.pipeline_ms", a.p50("aggregate.pipeline"), "ms", ms)
    stored = a.units("streaming.on_stored")
    put("streaming.on_stored_us_per_obs", a.per_unit("streaming.on_stored"), "us", us)
    if stored:
        put("streaming.tile_fold_us_per_obs", a.total("streaming.tile_fold") / stored, "us", us)
        put("streaming.match_checks_per_obs",
            a.tracer.counts["streaming.match_checks"] / stored, "count")
        put("streaming.events_per_obs", probe.get("fanned_out", 0) / stored, "count")
    put("streaming.next_events_us", a.mean("streaming.next_events"), "us", us)
    batches = a.roots.get("router.ingest", [])
    put("router.ingest_self_us_per_obs", a.self_per_unit("router.ingest"), "us", us)
    if batches:
        waits = a.under("ipc.wait", "router.ingest")
        put("router.worker_wait_ms_per_batch",
            sum(a.dur[i] for i in waits) / len(batches), "ms", ms)
        put("ipc.round_trips_per_batch", len(waits) / len(batches), "count")
        wire = sum(a.tracer.spans[i][4] for i in waits + a.under("ipc.submit", "router.ingest"))
        put("ipc.bytes_per_obs", wire / a.units("router.ingest"), "B/obs")
    put("router.scatter_merge_ms", a.self_per_call("router.scatter"), "ms", ms)
    put("sharding.max_shard_share", probe.get("max_shard_share"), "ratio")
    return out


def layer_shares(analysis: Analysis, seconds: float) -> Dict[str, float]:
    """Each layer's self time in the analysed spans (the timed phase), as
    a share of ``seconds`` of operation time; plus the whole fan-out
    call, the figure the streaming plane is judged by."""
    spans = analysis.tracer.spans
    shares: Dict[str, float] = defaultdict(float)
    for i in range(analysis.first, analysis.last):
        if analysis.root[i] == i:
            shares[LAYER_OF[spans[i][0]]] += analysis.self_time[i] / seconds
        if spans[i][0] == "streaming.on_stored":
            shares["streaming.on_stored (whole call)"] += analysis.dur[i] / seconds
    return {name: round(share, 4) for name, share in sorted(shares.items())}
