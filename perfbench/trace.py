"""Span recording around the layer entry points of ``repro``.

The traced run of the benchmark installs the wrappers below around the
public entry points of each layer (``store``, ``kernels.csr``, ``core``,
``api``, ``streaming``, ``mapreduce`` and ``serve``).  Each wrapper
records one span: name, start, end, parent span, operation id, thread
and a few attributes.  Spans stay in memory and are written out at the
end of the run as Chrome trace-event JSON, which opens in Perfetto.

A span is recorded only inside a traced operation: the benchmark opens
a root span per operation with :meth:`Tracer.op`, and a wrapper records
only when the calling context already holds a span.  An untraced
operation therefore pays one context-variable lookup per wrapped call,
which is how the run measures its own overhead.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    id: int
    parent: Optional[int]
    op: int
    name: str
    start: int
    end: int = 0
    tid: int = 0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.roots: Dict[int, Span] = {}
        #: ``(queue wait, solve seconds)`` of every finished server job.
        self.jobs: List[Tuple[float, float]] = []
        self._ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _open(self, name: str, parent: Span, attrs: dict) -> Span:
        return Span(
            next(self._ids),
            parent.id,
            parent.op,
            name,
            time.perf_counter_ns(),
            tid=threading.get_ident(),
            attrs=attrs,
        )

    @contextmanager
    def op(self, op_id: int, name: str, **attrs):
        """Root span of one traced operation."""
        root = Span(
            next(self._ids), None, op_id, name, time.perf_counter_ns(),
            tid=threading.get_ident(), attrs=attrs,
        )
        self.roots[op_id] = root
        token = _CURRENT.set(root)
        try:
            yield root
        finally:
            root.end = time.perf_counter_ns()
            _CURRENT.reset(token)
            self.spans.append(root)

    @contextmanager
    def span(self, name: str, parent: Optional[Span] = None, **attrs):
        """A child span of ``parent`` (default: the context's span).

        Yields ``None`` and records nothing outside a traced operation.
        """
        if parent is None:
            parent = _CURRENT.get()
        if parent is None:
            yield None
            return
        span = self._open(name, parent, attrs)
        token = _CURRENT.set(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter_ns()
            _CURRENT.reset(token)
            self.spans.append(span)

    # -- patching ------------------------------------------------------
    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        after: Optional[Callable] = None,
    ) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``after(span, args, kwargs, result)`` may add attributes.  Plain
        functions, methods and classmethods are supported.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        func = raw.__func__ if isinstance(raw, classmethod) else raw
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if _CURRENT.get() is None:
                return func(*args, **kwargs)
            with tracer.span(name) as span:
                result = func(*args, **kwargs)
                if after is not None:
                    after(span, args, kwargs, result)
                return result

        self._patch(
            owner, attr, raw, classmethod(wrapper) if raw is not func else wrapper
        )

    def _patch(self, owner, attr: str, raw, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def install(self) -> None:
        """Wrap the layer entry points of every ``repro`` layer."""
        import repro
        import repro.core.atleast_k as atleast_k
        import repro.core.directed as directed
        import repro.core.undirected as undirected
        import repro.mapreduce.densest as mr_densest
        import repro.serve.app as serve_app
        import repro.streaming.engine as stream_engine
        from repro.kernels import CSRDigraph, CSRGraph, resolve_engine
        from repro.mapreduce.runtime import MapReduceRuntime
        from repro.serve.app import DensestRequestHandler, DensestService
        from repro.serve.catalog import ResultCatalog
        from repro.serve.jobs import JobManager
        from repro.store.shards import SHARD_DTYPE, ShardedEdgeStore
        from repro.streaming import compaction

        # store: open + fingerprint, and every shard array read.
        self.wrap(ShardedEdgeStore, "open", "store.open")
        self.wrap(ShardedEdgeStore, "fingerprint", "store.open")

        def read_bytes(span, args, kwargs, result):
            span.attrs["bytes"] = int(result[0].size) * SHARD_DTYPE.itemsize

        self.wrap(ShardedEdgeStore, "shard_arrays", "store.read", read_bytes)

        # kernels.csr: snapshot builds from shard stores.
        self.wrap(CSRGraph, "from_shards", "csr.build")
        self.wrap(CSRDigraph, "from_shards", "csr.build")

        # core: the peels, with the kernel tier they resolve to.
        def peel_attrs(span, args, kwargs, result):
            span.attrs["passes"] = int(result.passes)
            span.attrs["tier"] = resolve_engine(kwargs.get("engine", "auto"), args[0])

        for module, attr in (
            (undirected, "densest_subgraph"),
            (atleast_k, "densest_subgraph_atleast_k"),
            (directed, "densest_subgraph_directed"),
        ):
            self.wrap(module, attr, "core.peel", peel_attrs)

        # api: solve(), as the package exports it and as the server's
        # job threads call it, with the Solution's cost report.
        def solve_attrs(span, args, kwargs, result):
            span.attrs["backend"] = result.backend
            cost = result.cost
            for key in ("stream_passes", "edges_streamed", "bytes_scanned"):
                value = getattr(cost, key)
                if value is not None:
                    span.attrs[key] = int(value)

        self.wrap(repro, "solve", "api.solve", solve_attrs)
        self.wrap(serve_app, "solve", "api.solve", solve_attrs)

        # streaming: the engines and the compaction writes beside them.
        for attr in (
            "stream_densest_subgraph",
            "stream_densest_subgraph_atleast_k",
            "stream_densest_subgraph_directed",
        ):
            self.wrap(stream_engine, attr, "streaming.solve")
        self.wrap(compaction._MemorySink, "append", "streaming.compact")
        self.wrap(compaction.Compactor, "finish", "streaming.compact")

        # mapreduce: driver, rounds with their counters, pool lifecycle.
        def round_attrs(span, args, kwargs, result):
            runtime, counters = args[0], result[1]
            span.attrs.update(
                shuffle_bytes=int(counters.shuffle_bytes),
                shuffle_records=int(counters.shuffle_records),
                runtime=id(runtime),
                tasks_retried=int(runtime.tasks_retried),
                workers_lost=int(runtime.workers_lost),
            )

        for attr in (
            "mr_densest_subgraph",
            "mr_densest_subgraph_atleast_k",
            "mr_densest_subgraph_directed",
        ):
            self.wrap(mr_densest, attr, "mapreduce.driver")
        self.wrap(MapReduceRuntime, "run", "mapreduce.round", round_attrs)
        self.wrap(MapReduceRuntime, "_ensure_pool", "mapreduce.pool")
        self.wrap(MapReduceRuntime, "close", "mapreduce.pool")

        # serve: handler, request logic, catalog, and the job threads.
        self._install_serve(
            DensestRequestHandler, DensestService, ResultCatalog, JobManager
        )

    def _install_serve(self, handler_cls, service_cls, catalog_cls, jobs_cls) -> None:
        tracer = self
        dispatch = handler_cls.__dict__["_dispatch"]

        @functools.wraps(dispatch)
        def traced_dispatch(handler, method):
            # The client names its operation in X-Request-Id; the handler
            # thread's span hangs off that operation's root span.
            op = _op_from_header(handler.headers.get("X-Request-Id"))
            root = tracer.roots.get(op)
            if root is None:
                return dispatch(handler, method)
            with tracer.span("serve.handler", parent=root):
                return dispatch(handler, method)

        self._patch(handler_cls, "_dispatch", dispatch, traced_dispatch)
        self.wrap(service_cls, "solve_request", "serve.request")
        self.wrap(catalog_cls, "get", "serve.catalog_get")
        self.wrap(catalog_cls, "put", "serve.catalog_put")

        submit = jobs_cls.__dict__["submit"]

        @functools.wraps(submit)
        def traced_submit(manager, key, fn, *args, **kwargs):
            # Run the job in the submitting request's context, so the
            # solve's spans join the operation that asked for it.
            if _CURRENT.get() is not None:
                fn = functools.partial(contextvars.copy_context().run, fn)
            return submit(manager, key, fn, *args, **kwargs)

        self._patch(jobs_cls, "submit", submit, traced_submit)
        finish = jobs_cls.__dict__["_finish"]

        @functools.wraps(finish)
        def traced_finish(manager, job):
            finish(manager, job)
            if job.started_at is not None:
                tracer.jobs.append(
                    (job.started_at - job.submitted_at, job.solve_seconds)
                )

        self._patch(jobs_cls, "_finish", finish, traced_finish)

    # -- output --------------------------------------------------------
    def write_chrome_trace(self, path) -> None:
        """Write every span as a Chrome trace-event ``X`` event."""
        base = min((s.start for s in self.spans), default=0)
        tids: Dict[int, int] = {}
        events = []
        for s in sorted(self.spans, key=lambda s: s.start):
            tid = tids.setdefault(s.tid, len(tids) + 1)
            events.append(
                {
                    "name": s.name,
                    "cat": s.name.split(".", 1)[0],
                    "ph": "X",
                    "ts": (s.start - base) / 1e3,
                    "dur": (s.end - s.start) / 1e3,
                    "pid": 1,
                    "tid": tid,
                    "args": {"op": s.op, "id": s.id, "parent": s.parent, **s.attrs},
                }
            )
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def _op_from_header(value) -> Optional[int]:
    try:
        return int(value)
    except (TypeError, ValueError):
        return None


def covered_ns(intervals: Iterable[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_seconds(span: Span, children: List[Span]) -> float:
    """The span's duration minus the part its child spans cover."""
    covered = covered_ns(((c.start, c.end) for c in children), span.start, span.end)
    return (span.end - span.start - covered) / 1e9
