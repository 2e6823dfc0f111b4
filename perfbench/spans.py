"""Benchmark-side tracing: spans around calls into the program's layers.

The traced run wraps public functions of the program (the wrappers live
here, nothing inside ``src/`` changes), records one span per call, and
splits each request's wall time among the layers: at every instant of a
request the deepest open span owns the time, so the per-layer self times of
a request add up to its duration exactly, even when spans overlap or run on
other threads (the service's event loop and cache threads, the remote cell
round trips).  Wall time outside every request is ``residual_s``.

Parent links follow a :class:`contextvars.ContextVar`, which the service's
asyncio tasks and ``asyncio.to_thread`` calls inherit.  A served request is
tied to the client span that sent it through its tenant name.
"""

from __future__ import annotations

import contextlib
import contextvars
import heapq
import sys
import threading
import time
from collections import Counter
from typing import Callable, Dict, Iterable, List, Optional

#: Span name -> the per-layer metric its self time is reported under.
LAYER_OF = {
    "model.materialize": "model.materialize_s",
    "sim.engine": "sim.engine_s",
    "sim.kernel": "sim.kernel_s",
    "sim.lanes": "sim.lanes_s",
    "sim.fast_path": "sim.fast_path_s",
    "obs.finalize": "obs.finalize_s",
    "analysis.cache_get": "analysis.cache_get_s",
    "analysis.cache_put": "analysis.cache_put_s",
    "analysis.encode": "analysis.encode_s",
    "analysis.decode": "analysis.decode_s",
    "analysis.keys": "analysis.keys_s",
    "analysis.aggregate": "analysis.aggregate_s",
    "service.parse": "service.parse_s",
    "dist.remote": "dist.remote_s",
}


class Span:
    """One call: name, start, end (``time.perf_counter``) and parent."""

    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float,
                 parent: Optional["Span"] = None):
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.parent = parent

    def root(self) -> "Span":
        span = self
        while span.parent is not None:
            span = span.parent
        return span

    def depth(self) -> int:
        depth, span = 0, self
        while span.parent is not None:
            depth, span = depth + 1, span.parent
        return depth


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None)
        #: tenant -> the client span of the request that tenant has open.
        self.open_requests: Dict[str, Span] = {}
        self._lock = threading.Lock()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def open(self, name: str, parent: Optional[Span] = None) -> Span:
        span = Span(name, time.perf_counter(),
                    parent if parent is not None else self.current.get())
        self.spans.append(span)
        return span

    @contextlib.contextmanager
    def span(self, name: str, tenant: Optional[str] = None):
        """A span that is the parent of every span opened inside it;
        with ``tenant`` it also parents the service-side spans of the
        request that tenant sends meanwhile."""
        span = self.open(name)
        token = self.current.set(span)
        if tenant is not None:
            self.open_requests[tenant] = span
        try:
            yield span
        finally:
            if tenant is not None:
                self.open_requests.pop(tenant, None)
            self.current.reset(token)
            span.end = time.perf_counter()

    def wrap(self, func: Callable, name: str,
             after: Optional[Callable] = None) -> Callable:
        """``func`` inside a span; ``after(result, args, kwargs)`` runs
        on the result (outside the span) to record counts."""
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            token = tracer.current.set(span)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.current.reset(token)
                span.end = time.perf_counter()
            if after is not None:
                after(result, args, kwargs)
            return result

        traced.__wrapped__ = func
        return traced


def split_request(root: Span, spans: Iterable[Span]) -> Dict[str, float]:
    """Split ``root``'s duration among span names: at each instant the
    open span with the greatest depth (then the latest start) owns it.

    ``spans`` are the descendants of ``root``; their intervals are clipped
    to the root's.  The returned seconds add up to the root's duration.
    """
    members = [(span, span.depth()) for span in spans]
    members.append((root, 0))
    events = []
    for order, (span, depth) in enumerate(members):
        start = max(span.start, root.start)
        end = min(span.end if span.end is not None else root.end, root.end)
        if end > start:
            events.append((start, 1, order, depth, span.name))
            events.append((end, 0, order, depth, span.name))
    events.sort(key=lambda event: (event[0], event[1]))
    owned: Dict[str, float] = {}
    active: list = []  # heap of (-depth, -start, order, name)
    closed = set()
    last = root.start
    for moment, opening, order, depth, name in events:
        while active and active[0][2] in closed:
            heapq.heappop(active)
        if active and moment > last:
            owner = active[0][3]
            owned[owner] = owned.get(owner, 0.0) + (moment - last)
        last = moment
        if opening:
            heapq.heappush(active, (-depth, -moment, order, name))
        else:
            closed.add(order)
    return owned


def layer_seconds(tracer: Tracer, root_layer: str) -> Dict[str, float]:
    """Per-layer self seconds over every request span (name ``request``).

    Spans outside any request (work a worker thread does for no open
    request) are left out; ``root_layer`` names the metric a request's own
    self time is reported under.
    """
    by_root: Dict[int, List[Span]] = {}
    roots = []
    for span in list(tracer.spans):
        if span.parent is None:
            if span.name == "request" and span.end is not None:
                roots.append(span)
            continue
        by_root.setdefault(id(span.root()), []).append(span)
    totals: Dict[str, float] = {}
    for root in roots:
        for name, seconds in split_request(
                root, by_root.get(id(root), ())).items():
            metric = root_layer if name == "request" else LAYER_OF[name]
            totals[metric] = totals.get(metric, 0.0) + seconds
    return totals


# ---------------------------------------------------------------------------
# wrappers around the program's public entry points
# ---------------------------------------------------------------------------

def _patch_everywhere(target: Callable, replacement: Callable,
                      undo: list) -> None:
    """Point every loaded ``repro`` module's name for ``target`` (its
    defining module and every ``from ... import`` site) at
    ``replacement``."""
    for module in list(sys.modules.values()):
        if module is None or not module.__name__.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is target:
                undo.append((module, attr, value))
                setattr(module, attr, replacement)


def _patch_attr(owner, attr: str, replacement, undo: list) -> None:
    undo.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, replacement)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap the program's layer entry points for the ``with`` body."""
    import repro.service.server  # noqa: F401 - a site of patched names
    from repro.analysis import transport
    from repro.analysis.batch import build_column_block
    from repro.analysis.cellcache import CellCache
    from repro.analysis.sweep import (aggregate_outcomes, cell_cache_key,
                                      materialize_cell)
    from repro.dist.coordinator import RemoteCellExecutor
    from repro.dist.queue import LeaseQueue
    from repro.obs.metrics import MetricsCollector
    from repro.service.protocol import parse_request, resolve_jobs
    from repro.sim import batch_kernels, block_kernels, engine, steady

    undo: list = []

    def on_sim(result, args, kwargs):
        tracer.count("sim.engine_runs")
        tracer.count("sim.jobs", len(result.jobs))
        if kwargs.get("instrument") is not None:
            tracer.count("sim.instrumented_runs")

    plain = [
        (materialize_cell, "model.materialize",
         lambda result, args, kwargs: tracer.count("model.cells")),
        (build_column_block, "model.materialize", None),
        (engine.simulate, "sim.engine", on_sim),
        (batch_kernels.kernel_simulate, "sim.kernel", None),
        (block_kernels.run_lanes, "sim.lanes", None),
        (steady.try_steady_fast_path, "sim.fast_path", None),
        (transport.encode_cell, "analysis.encode", None),
        (transport.decode_cell, "analysis.decode", None),
        (cell_cache_key, "analysis.keys", None),
        (aggregate_outcomes, "analysis.aggregate", None),
        (resolve_jobs, "service.parse", None),
    ]
    for func, name, after in plain:
        _patch_everywhere(func, tracer.wrap(func, name, after), undo)

    def parse_linked(data):
        span = tracer.open("service.parse")
        try:
            request = parse_request(data)
        finally:
            span.end = time.perf_counter()
        client = tracer.open_requests.get(request.tenant)
        if client is not None:
            # Everything this handler task does next serves that request.
            span.parent = client
            tracer.current.set(client)
        return request

    _patch_everywhere(parse_request, parse_linked, undo)

    _patch_attr(CellCache, "get",
                tracer.wrap(CellCache.get, "analysis.cache_get"),
                undo)
    _patch_attr(CellCache, "put",
                tracer.wrap(CellCache.put, "analysis.cache_put"), undo)
    lease = LeaseQueue.lease

    def counted_lease(self, *args, **kwargs):
        granted = lease(self, *args, **kwargs)
        if granted is not None:
            tracer.count("dist.leases")
        return granted

    _patch_attr(LeaseQueue, "lease", counted_lease, undo)

    finalize = MetricsCollector.metrics.fget
    _patch_attr(MetricsCollector, "metrics",
                property(tracer.wrap(finalize, "obs.finalize")), undo)
    collector_init = MetricsCollector.__init__

    def counted_init(self, *args, **kwargs):
        tracer.count("obs.collectors")
        collector_init(self, *args, **kwargs)

    _patch_attr(MetricsCollector, "__init__", counted_init, undo)

    submit_cell = RemoteCellExecutor.submit_cell

    def remote_submit(self, context, spec, *args, **kwargs):
        span = tracer.open("dist.remote")
        future = submit_cell(self, context, spec, *args, **kwargs)

        def finished(_future):
            span.end = time.perf_counter()

        future.add_done_callback(finished)
        return future

    _patch_attr(RemoteCellExecutor, "submit_cell", remote_submit, undo)
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

