"""HTTP query layer: densest-subgraph-as-a-service.

A dependency-light serving process over the solver registry — stdlib
``http.server.ThreadingHTTPServer`` + ``json``, one thread per
connection, solves on the :class:`~repro.serve.jobs.JobManager` pool,
answers out of the :class:`~repro.serve.catalog.ResultCatalog`.

Endpoints
---------
=======  =======================  =========================================
method   path                     purpose
=======  =======================  =========================================
GET      ``/healthz``             liveness probe
GET      ``/stats``               hit ratio, queue depth, per-backend counts
GET      ``/datasets``            registered datasets
GET      ``/datasets/<name>``     one dataset record
POST     ``/datasets``            register a shard store / edge list /
                                  registry dataset
POST     ``/solve``               catalog consult -> cached answer or job
GET      ``/jobs``                recent jobs
GET      ``/jobs/<id>``           job status (result key when DONE)
DELETE   ``/jobs/<id>``           cancel a queued job, or cooperatively
                                  cancel a running one (the response's
                                  ``outcome`` says which happened)
GET      ``/results``             catalog listing (paginated)
GET      ``/results/<key>``       one solution (member list paginated)
=======  =======================  =========================================

``POST /solve`` body::

    {"dataset": "<name or fingerprint>",
     "problem": {"kind": "densest_subgraph", "epsilon": 0.1, ...},
     "backend": "auto",          # optional
     "options": {"engine": "numpy"},  # optional solver knobs
     "wait": 30.0,               # optional: block up to N seconds
     "deadline": 5.0}            # optional: per-request latency budget

A catalog hit answers ``200`` immediately with the stored solution
bytes; a miss submits a job and answers ``202`` with the job id (or
``200`` after joining it when ``wait`` is given); a full queue answers
``429``.  Every ``429`` carries a ``Retry-After`` header derived from
live queue depth.  Under overload (or an unaffordable ``deadline``)
the service degrades *explicitly* — a stale cached answer marked
``"stale": true``, a cheap coarser-ε solve marked ``"degraded": true``,
or a shed — never a silently-wrong or unbounded-latency answer
(DESIGN.md §14).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..api import ExecutionContext, solve
from ..api.problems import (
    DensestAtLeastK,
    DensestSubgraph,
    DirectedDensest,
    MODE_GRAPH,
    Problem,
)
from ..datasets import registry as dataset_registry
from ..datasets.registry import ServedDataset
from ..errors import ParameterError, ReproError
from .admission import (
    AdmissionGate,
    CircuitBreaker,
    ClientRateLimiter,
    OverloadConfig,
    retry_after_seconds,
)
from .catalog import CatalogError, ResultCatalog, params_json, result_key
from .jobs import DONE, FAILED, JobManager, QueueFullError

#: Problem kinds constructible over HTTP.
PROBLEM_TYPES = {
    cls.kind: cls for cls in (DensestSubgraph, DensestAtLeastK, DirectedDensest)
}

#: Default member-list page size on ``GET /results/<key>`` when a page
#: is requested (no ``limit``/``offset`` means the full solution).
DEFAULT_PAGE = 1000


class HTTPError(ReproError):
    """A service error with an HTTP status code.

    ``headers`` ride onto the HTTP response (``Retry-After`` on a shed)
    and ``payload`` keys are merged into the JSON error body, so a
    machine-readable mirror of the header reaches clients that only
    parse the body.
    """

    def __init__(
        self,
        status: int,
        message: str,
        *,
        headers: Optional[Dict[str, str]] = None,
        payload: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.headers = dict(headers or {})
        self.payload = dict(payload or {})


class DensestService:
    """The serving logic behind the HTTP handler (transport-free).

    Owns the catalog, the job manager, and the resolved dataset inputs.
    All methods are thread-safe; the HTTP layer is a thin JSON shim
    over them, which is also what the in-process tests drive.
    """

    def __init__(
        self,
        catalog: ResultCatalog,
        *,
        context: Optional[ExecutionContext] = None,
        max_queue: int = 64,
        overload: Optional[OverloadConfig] = None,
    ) -> None:
        self.catalog = catalog
        self.context = context or ExecutionContext(workers=2)
        self.jobs = JobManager(self.context.workers, max_queue=max_queue)
        self.overload = overload or OverloadConfig()
        self.limiter = (
            ClientRateLimiter(self.overload.client_rate, self.overload.client_burst)
            if self.overload.client_rate is not None
            else None
        )
        self.gate = AdmissionGate(self.overload.admit_budget_edges)
        self._solve_ops = itertools.count()  # serve.solve fault-site index
        self.started_at = time.time()
        self._inputs: Dict[str, Any] = {}  # fingerprint -> resolved input
        self._inputs_lock = threading.Lock()

    # -- datasets ------------------------------------------------------
    def register_dataset(self, spec: Dict[str, Any]) -> ServedDataset:
        """Register an input under a stable name.

        ``spec`` names exactly one source:

        * ``{"name": ..., "store": "<dir>"}`` — an existing
          :class:`~repro.store.ShardedEdgeStore` (content-fingerprinted);
        * ``{"name": ..., "edge_list": "<path>", "directed": bool}`` —
          converted into a store under the service spill dir first;
        * ``{"name": ..., "dataset": "<registry name>", "scale": ...,
          "seed": ...}`` — a deterministic synthetic registry graph.
        """
        name = spec.get("name")
        if not name or not isinstance(name, str):
            raise HTTPError(400, "dataset registration needs a string 'name'")
        sources = [k for k in ("store", "edge_list", "dataset") if spec.get(k)]
        if len(sources) != 1:
            raise HTTPError(
                400,
                "give exactly one of 'store', 'edge_list', or 'dataset' "
                f"(got {sources or 'none'})",
            )
        kind = sources[0]
        try:
            if kind == "store":
                record, input_obj = self._register_store(name, spec["store"])
            elif kind == "edge_list":
                record, input_obj = self._register_edge_list(
                    name, spec["edge_list"], bool(spec.get("directed", False))
                )
            else:
                record, input_obj = self._register_synthetic(
                    name,
                    spec["dataset"],
                    float(spec.get("scale", 1.0)),
                    spec.get("seed"),
                )
        except HTTPError:
            raise
        except ReproError as exc:
            raise HTTPError(400, str(exc)) from exc
        try:
            record = self.catalog.register_dataset(record)
        except CatalogError as exc:
            raise HTTPError(409, str(exc)) from exc
        with self._inputs_lock:
            self._inputs[record.fingerprint] = input_obj
        return record

    def _register_store(self, name: str, path: str) -> Tuple[ServedDataset, Any]:
        from ..store import ShardedEdgeStore

        store = ShardedEdgeStore.open(path)
        return self._store_record(name, store, "store"), store

    @staticmethod
    def _store_record(name: str, store, input_kind: str) -> ServedDataset:
        return ServedDataset(
            name=name,
            fingerprint=store.fingerprint(),
            source=str(store.path),
            input_kind=input_kind,
            directed=store.directed,
            num_nodes=store.num_nodes,
            num_edges=store.num_edges,
        )

    def _register_edge_list(
        self, name: str, path: str, directed: bool
    ) -> Tuple[ServedDataset, Any]:
        import os

        from ..store import ShardedEdgeStore, write_edge_list_store
        from ..store.shards import MANIFEST_NAME

        if not self.context.spill_dir:
            raise HTTPError(
                400,
                "edge-list registration converts into a shard store and "
                "needs the server started with --spill-dir",
            )
        store_dir = os.path.join(self.context.spill_dir, f"dataset-{name}")
        if os.path.exists(os.path.join(store_dir, MANIFEST_NAME)):
            store = ShardedEdgeStore.open(store_dir)
        else:
            store = write_edge_list_store(
                path,
                store_dir,
                directed=directed,
                num_shards=self.context.shard_count,
            )
        return self._store_record(name, store, "edge_list"), store

    def _register_synthetic(
        self, name: str, dataset: str, scale: float, seed: Optional[int]
    ) -> Tuple[ServedDataset, Any]:
        meta = dataset_registry.info(dataset)
        graph = dataset_registry.load(dataset, scale=scale, seed=seed)
        record = ServedDataset(
            name=name,
            fingerprint=dataset_registry.synthetic_fingerprint(
                dataset, scale=scale, seed=seed
            ),
            source=f"synthetic:{dataset}",
            input_kind="synthetic",
            directed=meta.kind == "directed",
            num_nodes=graph.num_nodes,
            num_edges=graph.num_edges,
            scale=scale,
            seed=meta.default_seed if seed is None else int(seed),
        )
        return record, graph

    def _resolve_input(self, record: ServedDataset) -> Any:
        """The live input object for a dataset record (lazily reopened).

        One object per dataset: racing first resolutions all return the
        object that won the insert, so a store's CSR snapshot is built
        once however many cold solves hold it.
        """
        with self._inputs_lock:
            cached = self._inputs.get(record.fingerprint)
        if cached is not None:
            return cached
        if record.input_kind in ("store", "edge_list"):
            from ..store import ShardedEdgeStore

            input_obj = ShardedEdgeStore.open(record.source)
        else:
            input_obj = dataset_registry.load(
                record.source.split(":", 1)[1],
                scale=record.scale if record.scale is not None else 1.0,
                seed=record.seed,
            )
        with self._inputs_lock:
            return self._inputs.setdefault(record.fingerprint, input_obj)

    # -- solving -------------------------------------------------------
    def _build_problem(self, record: ServedDataset, spec: Dict[str, Any]) -> Problem:
        if not isinstance(spec, dict):
            raise HTTPError(400, "'problem' must be an object")
        kind = spec.get("kind", "densest_subgraph")
        cls = PROBLEM_TYPES.get(kind)
        if cls is None:
            raise HTTPError(
                400,
                f"unknown problem kind {kind!r} "
                f"(one of: {', '.join(sorted(PROBLEM_TYPES))})",
            )
        params = {k: v for k, v in spec.items() if k != "kind"}
        if "ratio_grid" in params and params["ratio_grid"] is not None:
            params["ratio_grid"] = tuple(params["ratio_grid"])
        input_obj = self._resolve_input(record)
        try:
            return cls(input_obj, **params)
        except TypeError as exc:
            raise HTTPError(400, f"bad problem parameters: {exc}") from None
        except ParameterError as exc:
            raise HTTPError(400, str(exc)) from None

    def solve_request(
        self, body: Dict[str, Any], *, client: Optional[str] = None
    ) -> Tuple[int, Dict[str, Any]]:
        """Handle ``POST /solve``; returns ``(http_status, payload)``.

        The overload pipeline (DESIGN.md §14) runs between the catalog
        consult and the job submission, and only for *fresh cold* work:
        warm hits ship cached bytes for microseconds and stay
        unmetered, and attaching to an in-flight solve adds no solver
        cost, so neither consumes admission budget.

        1. per-client token bucket (cold request rate) — over → shed;
        2. per-request cost cap (manifest edges) — over → shed;
        3. ladder triggers: queue fraction past ``degrade_at``, a
           ``deadline`` the cost model says the exact solve cannot
           meet, or the global admission gate refusing the cost — any
           → :meth:`_degrade_or_shed` (stale answer, coarser cheap
           solve, or shed; every rung labeled in the payload).

        A shed is an :class:`HTTPError` 429 whose ``Retry-After``
        header is derived from live queue depth.
        """
        record = self._dataset_or_404(body.get("dataset"))
        backend = body.get("backend", "auto")
        if not isinstance(backend, str):
            raise HTTPError(400, "'backend' must be a string")
        problem = self._build_problem(record, body.get("problem") or {})
        params = params_json(problem)
        options = body.get("options") or {}
        if not isinstance(options, dict):
            raise HTTPError(400, "'options' must be an object")
        key = result_key(record.fingerprint, problem.kind, params, backend)

        row = self.catalog.get(key)  # counts the hit/miss
        if row is not None:
            return 200, self._result_payload(row, cached=True)

        wait = body.get("wait")
        deadline = self._deadline_budget(body)
        cfg = self.overload
        cost = int(record.num_edges or 0)
        reserved: Optional[int] = None
        if cfg.enabled and self.jobs.in_flight(key) is None:
            if self.limiter is not None and client is not None:
                delay = self.limiter.try_acquire(client)
                if delay is not None:
                    self._shed(
                        f"client {client!r} is over its cold-request rate",
                        extra=delay,
                    )
            if cfg.max_cost_edges is not None and cost > cfg.max_cost_edges:
                self._shed(
                    f"dataset {record.name!r} costs {cost} edges, over the "
                    f"per-request cap of {cfg.max_cost_edges}"
                )
            depth = self.jobs.queue_depth()
            overloaded = (
                cfg.degrade_at is not None
                and depth["pending"] / max(1, depth["capacity"]) >= cfg.degrade_at
            )
            unaffordable = (
                deadline is not None
                and cfg.edges_per_second is not None
                and cost / cfg.edges_per_second > deadline
            )
            if overloaded or unaffordable or not self.gate.try_admit(cost):
                reason = (
                    "queue past the degrade threshold"
                    if overloaded
                    else "exact solve cannot meet the deadline"
                    if unaffordable
                    else "admission budget exhausted"
                )
                return self._degrade_or_shed(
                    record, problem, backend, key, wait=wait, reason=reason
                )
            reserved = cost  # admitted: released when the job is terminal
        return self._submit_solve(
            record,
            problem,
            params,
            backend,
            options,
            key,
            wait=wait,
            deadline=deadline,
            reserved=reserved,
        )

    def _deadline_budget(self, body: Dict[str, Any]) -> Optional[float]:
        """The request's effective latency budget (request ∧ server)."""
        deadline = body.get("deadline")
        if deadline is not None:
            try:
                deadline = float(deadline)
            except (TypeError, ValueError):
                raise HTTPError(
                    400, "'deadline' must be a number of seconds"
                ) from None
            if deadline <= 0:
                raise HTTPError(400, "'deadline' must be positive")
        budgets = [
            b for b in (deadline, self.context.deadline_seconds) if b is not None
        ]
        return min(budgets) if budgets else None

    def _shed(self, reason: str, *, extra: float = 0.0) -> None:
        """Reject with 429 + ``Retry-After`` and count the shed."""
        self.catalog.bump_counter("shed")
        retry = retry_after_seconds(
            self.jobs.queue_depth(),
            base=self.overload.retry_after_base,
            extra=extra,
        )
        raise HTTPError(
            429,
            f"overloaded: {reason}; retry after {retry}s",
            headers={"Retry-After": str(retry)},
            payload={"retry_after": retry, "shed": True},
        )

    def _degrade_plan(self, problem: Problem) -> Optional[Tuple[str, Problem]]:
        """The cheaper ``(backend, problem)`` a ladder solve runs.

        Coarsen ε to ``degrade_epsilon`` (never *refine* a coarser
        request) and pick the cheapest capable backend: the sketch for
        plain densest-subgraph on any input, the greedy exact solver
        for in-memory graphs, a coarse streaming peel otherwise.
        ``None`` means no rung is cheaper than the request — shed.
        """
        eps = getattr(problem, "epsilon", None)
        coarse = max(self.overload.degrade_epsilon, eps or 0.0)
        degraded = (
            dataclasses.replace(problem, epsilon=coarse)
            if eps is not None
            else problem
        )
        if problem.kind == DensestSubgraph.kind:
            return "sketch", degraded
        if problem.input_mode == MODE_GRAPH:
            return "greedy", degraded
        if eps is not None and coarse > eps:
            return "streaming", degraded
        return None

    def _degrade_or_shed(
        self,
        record: ServedDataset,
        problem: Problem,
        backend: str,
        key: str,
        *,
        wait: Any,
        reason: str,
    ) -> Tuple[int, Dict[str, Any]]:
        """Walk the degradation ladder for an unadmittable exact solve.

        Rung 1 — a *stale* cached answer: the most recent stored result
        for the same dataset + problem kind (any parameters/backend),
        marked ``"stale": true``.  Rung 2 — a *degraded* fresh solve:
        :meth:`_degrade_plan`'s cheap backend at coarse ε, marked
        ``"degraded": true``.  Rung 3 — shed.  Labeled payloads carry
        ``requested_key`` (what an unconstrained retry would hit) and
        ``degrade_reason``; stored catalog rows are never mutated, so
        warm byte-identity is untouched.
        """
        label = {"requested_key": key, "degrade_reason": reason}
        if self.overload.stale_ok:
            row = self.catalog.latest_for(record.fingerprint, problem.kind)
            if row is not None:
                self.catalog.bump_counter("stale_served")
                payload = self._result_payload(row, cached=True)
                payload.update(label, stale=True)
                return 200, payload
        plan = self._degrade_plan(problem)
        if plan is None:
            self._shed(f"no cheaper plan for {problem.kind} ({reason})")
        d_backend, d_problem = plan
        d_params = params_json(d_problem)
        d_key = result_key(
            record.fingerprint, d_problem.kind, d_params, d_backend
        )
        label["degraded"] = True
        d_row = self.catalog.get(d_key)
        if d_row is not None:
            self.catalog.bump_counter("degraded")
            payload = self._result_payload(d_row, cached=True)
            payload.update(label)
            return 200, payload
        status, payload = self._submit_solve(
            record, d_problem, d_params, d_backend, {}, d_key,
            wait=wait, label=label,
        )
        self.catalog.bump_counter("degraded")
        return status, payload

    def _submit_solve(
        self,
        record: ServedDataset,
        problem: Problem,
        params: str,
        backend: str,
        options: Dict[str, Any],
        key: str,
        *,
        wait: Any,
        deadline: Optional[float] = None,
        reserved: Optional[int] = None,
        label: Optional[Dict[str, Any]] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        """Submit a cold solve and answer 200/202/500 (or shed on a
        full queue).  ``reserved`` is admission-gate cost to release
        when the job reaches any terminal state; ``label`` keys are
        merged into the response payload (degradation markers)."""
        # Each job gets its own cancel event, threaded into the solve
        # through the context so DELETE /jobs/<id> can interrupt a
        # running peel at its next pass boundary.
        cancel_event = threading.Event()
        job_context = dataclasses.replace(self.context, cancel_event=cancel_event)
        if deadline is not None:
            job_context = dataclasses.replace(
                job_context, deadline_seconds=deadline
            )
        plan = self.context.fault_plan
        op = next(self._solve_ops)

        def run():
            if plan is not None:
                plan.fire("serve.solve", op)
            start = time.perf_counter()
            solution = solve(
                problem, backend=backend, context=job_context, **options
            )
            elapsed = time.perf_counter() - start
            return self.catalog.put(
                key,
                dataset_fingerprint=record.fingerprint,
                problem_kind=problem.kind,
                params=params,
                backend=backend,
                solution=solution,
                solve_seconds=elapsed,
            )

        description = {
            "dataset": record.name,
            "problem_kind": problem.kind,
            "params": json.loads(params),
            "backend": backend,
        }
        if label:
            description["degraded"] = bool(label.get("degraded"))
        on_done = (
            (lambda job: self.gate.release(reserved))
            if reserved is not None
            else None
        )
        try:
            job, created = self.jobs.submit(
                key, run, description, cancel_event=cancel_event, on_done=on_done
            )
        except QueueFullError as exc:
            if reserved is not None:
                self.gate.release(reserved)
            self._shed(str(exc))
        if not created:
            if reserved is not None:
                self.gate.release(reserved)  # attached: no new cost
            self.catalog.bump_counter("coalesced")

        if wait is not None:
            job.wait(float(wait))
        if job.status == DONE:
            payload = self._result_payload(job.result, cached=False)
            if label:
                payload.update(label)
            return 200, payload
        if job.status == FAILED:
            return 500, {"job": job.to_jsonable()}
        payload = {"job": job.to_jsonable()}
        if label:
            payload.update(label)
        return 202, payload

    def _dataset_or_404(self, name: Any) -> ServedDataset:
        if not name or not isinstance(name, str):
            raise HTTPError(400, "'dataset' must name a registered dataset")
        record = self.catalog.get_dataset(name)
        if record is None:
            raise HTTPError(404, f"no dataset registered as {name!r}")
        return record

    # -- payload shaping ----------------------------------------------
    def _result_payload(
        self,
        row: Dict[str, Any],
        *,
        cached: bool,
        offset: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> Dict[str, Any]:
        solution = json.loads(row["solution_json"])
        payload = {
            "key": row["key"],
            "cached": cached,
            "dataset_fingerprint": row["dataset_fingerprint"],
            "problem_kind": row["problem_kind"],
            "params": json.loads(row["params_json"]),
            "backend": row["backend"],
            "solved_backend": row["solved_backend"],
            "density": row["density"],
            "size": row["size"],
            "solve_seconds": row["solve_seconds"],
            "created_at": row["created_at"],
            "hits": row["hits"],
            "solution": solution,
        }
        if offset is not None or limit is not None:
            offset = max(0, int(offset or 0))
            limit = int(limit if limit is not None else DEFAULT_PAGE)
            members = solution.get("nodes", {})
            members = members.get("__set__", members) if isinstance(members, dict) else members
            page = members[offset : offset + limit]
            payload["solution"] = {**solution, "nodes": {"__set__": page}}
            payload["page"] = {
                "offset": offset,
                "limit": limit,
                "returned": len(page),
                "total": row["size"],
            }
        return payload

    def result_by_key(
        self, key: str, *, offset: Optional[int], limit: Optional[int]
    ) -> Dict[str, Any]:
        row = self.catalog.get(key)
        if row is None:
            raise HTTPError(404, f"no cached result under key {key!r}")
        return self._result_payload(row, cached=True, offset=offset, limit=limit)

    def stats(self) -> Dict[str, Any]:
        payload = self.catalog.stats()
        payload["queue"] = self.jobs.queue_depth()
        admission = dict(self.gate.gauges())
        admission["clients_tracked"] = (
            len(self.limiter) if self.limiter is not None else 0
        )
        admission["overload_enabled"] = self.overload.enabled
        payload["admission"] = admission
        payload["uptime_seconds"] = time.time() - self.started_at
        # A served store holds its CSR snapshot after its first
        # in-memory solve: ``held`` counts the datasets whose next cold
        # miss skips the build, ``nbytes`` the memory that costs.
        with self._inputs_lock:
            inputs = list(self._inputs.values())
        held = [getattr(obj, "held_snapshot", None) for obj in inputs]
        held = [snap for snap in held if snap is not None]
        payload["snapshots"] = {
            "held": len(held), "nbytes": sum(snap.nbytes for snap in held),
        }
        try:
            from ..kernels import tier_report

            payload["kernel_tiers"] = tier_report()
        except Exception:  # pragma: no cover - report must never break /stats
            payload["kernel_tiers"] = None
        return payload

    def close(self) -> None:
        self.jobs.shutdown(wait=False)
        self.catalog.close()


# ----------------------------------------------------------------------
# HTTP transport
# ----------------------------------------------------------------------
class DensestRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP verbs + paths onto the :class:`DensestService`."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-densest"
    # Headers and body go out as two writes; with Nagle on, the body
    # of every response after the first on a kept-alive connection
    # waits for the client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True

    #: Max accepted request body (datasets are registered by *path*, so
    #: request bodies are small problem descriptions).
    MAX_BODY = 1 << 20

    def log_message(self, fmt, *args):  # pragma: no cover - quiet by default
        if getattr(self.server, "verbose", False):
            super().log_message(fmt, *args)

    @property
    def service(self) -> DensestService:
        return self.server.service  # type: ignore[attr-defined]

    # -- plumbing ------------------------------------------------------
    def _send_json(
        self,
        status: int,
        payload: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length > self.MAX_BODY:
            raise HTTPError(413, f"request body over {self.MAX_BODY} bytes")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise HTTPError(400, f"request body is not valid JSON: {exc}") from None
        if not isinstance(body, dict):
            raise HTTPError(400, "request body must be a JSON object")
        return body

    def _dispatch(self, method: str) -> None:
        split = urlsplit(self.path)
        parts = [p for p in split.path.split("/") if p]
        query = {k: v[-1] for k, v in parse_qs(split.query).items()}
        headers: Optional[Dict[str, str]] = None
        try:
            status, payload = self._route(method, parts, query)
        except HTTPError as exc:
            status, payload = exc.status, {"error": str(exc), **exc.payload}
            headers = exc.headers
        except ReproError as exc:
            status, payload = 400, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - a handler must answer
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        self._send_json(status, payload, headers)

    # -- routing -------------------------------------------------------
    def _route(self, method, parts, query) -> Tuple[int, Dict[str, Any]]:
        service = self.service
        if method == "GET" and parts == ["healthz"]:
            return 200, {"status": "ok", "uptime_seconds": time.time() - service.started_at}
        if method == "GET" and parts == ["stats"]:
            return 200, service.stats()
        if method == "GET" and parts == ["datasets"]:
            return 200, {
                "datasets": [r.to_jsonable() for r in service.catalog.list_datasets()]
            }
        if method == "GET" and len(parts) == 2 and parts[0] == "datasets":
            return 200, {"dataset": service._dataset_or_404(parts[1]).to_jsonable()}
        if method == "POST" and parts == ["datasets"]:
            record = service.register_dataset(self._read_json())
            return 201, {"dataset": record.to_jsonable()}
        if method == "POST" and parts == ["solve"]:
            # the rate-limiter's client identity: an explicit header
            # when the client offers one, else the peer address
            client = self.headers.get("X-Client-Id") or self.client_address[0]
            return service.solve_request(self._read_json(), client=client)
        if method == "GET" and parts == ["jobs"]:
            limit = int(query.get("limit", 100))
            return 200, {
                "jobs": [j.to_jsonable() for j in service.jobs.list_jobs(limit=limit)]
            }
        if len(parts) == 2 and parts[0] == "jobs":
            job = service.jobs.get(parts[1])
            if job is None:
                raise HTTPError(404, f"no job {parts[1]!r}")
            if method == "GET":
                payload = {"job": job.to_jsonable()}
                if job.status == DONE and job.result is not None:
                    payload["result_key"] = job.result["key"]
                return 200, payload
            if method == "DELETE":
                outcome = service.jobs.cancel(parts[1])
                return (200 if outcome else 409), {
                    "job": job.to_jsonable(),
                    "cancelled": outcome == "cancelled",
                    "outcome": outcome or "finished",
                }
        if method == "GET" and parts == ["results"]:
            offset = int(query.get("offset", 0))
            limit = int(query.get("limit", 100))
            return 200, {
                "results": service.catalog.list_results(offset=offset, limit=limit)
            }
        if method == "GET" and len(parts) == 2 and parts[0] == "results":
            offset = query.get("offset")
            limit = query.get("limit")
            return 200, service.result_by_key(
                parts[1],
                offset=int(offset) if offset is not None else None,
                limit=int(limit) if limit is not None else None,
            )
        raise HTTPError(404, f"no route {method} /{'/'.join(parts)}")

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")


class DensestHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer owning a :class:`DensestService`."""

    daemon_threads = True

    def __init__(self, address, service: DensestService, *, verbose: bool = False):
        super().__init__(address, DensestRequestHandler)
        self.service = service
        self.verbose = verbose

    def shutdown(self) -> None:  # also stop the solver pool
        super().shutdown()
        self.service.close()


def build_server(
    *,
    host: str = "127.0.0.1",
    port: int = 8080,
    catalog_path: str = "catalog.sqlite",
    workers: int = 2,
    spill_dir: Optional[str] = None,
    shard_count: int = 8,
    max_queue: int = 64,
    deadline_seconds: Optional[float] = None,
    verbose: bool = False,
    client_rate: Optional[float] = None,
    client_burst: int = 10,
    max_cost_edges: Optional[int] = None,
    admit_budget_edges: Optional[int] = None,
    degrade_at: Optional[float] = None,
    edges_per_second: Optional[float] = None,
    degrade_epsilon: float = 1.0,
    stale_ok: bool = True,
    retry_after_base: float = 1.0,
    breaker_threshold: Optional[int] = 5,
    breaker_reset_seconds: float = 30.0,
    fault_plan=None,
) -> DensestHTTPServer:
    """Construct a ready-to-run server (``port=0`` picks a free port).

    ``deadline_seconds`` is the per-job wall-clock budget: a solve that
    overruns it unwinds cooperatively and the job reports
    ``FAILED`` with a ``timeout:`` error instead of running forever.

    The overload knobs (``client_rate`` … ``retry_after_base``) map
    one-to-one onto :class:`~repro.serve.admission.OverloadConfig`; all
    default to off, so a bare server behaves exactly as before.
    ``breaker_threshold``/``breaker_reset_seconds`` size the catalog's
    circuit breaker (``breaker_threshold=None`` disables it — catalog
    errors then propagate as before).  ``fault_plan`` arms a
    :class:`~repro.faults.FaultPlan` against both the solver tier and
    the catalog's ``catalog.read``/``catalog.write``/``serve.solve``
    sites — the chaos harness's entry point.
    """
    context = ExecutionContext(
        workers=workers,
        spill_dir=spill_dir,
        shard_count=shard_count,
        deadline_seconds=deadline_seconds,
        fault_plan=fault_plan,
    )
    overload = OverloadConfig(
        client_rate=client_rate,
        client_burst=client_burst,
        max_cost_edges=max_cost_edges,
        admit_budget_edges=admit_budget_edges,
        degrade_at=degrade_at,
        edges_per_second=edges_per_second,
        degrade_epsilon=degrade_epsilon,
        stale_ok=stale_ok,
        retry_after_base=retry_after_base,
    )
    breaker = (
        CircuitBreaker(breaker_threshold, breaker_reset_seconds)
        if breaker_threshold is not None
        else None
    )
    service = DensestService(
        ResultCatalog(catalog_path, breaker=breaker, fault_plan=fault_plan),
        context=context,
        max_queue=max_queue,
        overload=overload,
    )
    return DensestHTTPServer((host, port), service, verbose=verbose)


def run_server(**kwargs) -> None:
    """Build and serve forever (the ``repro-densest serve`` entry).

    Installs a SIGTERM handler for graceful drain: the listener stops
    accepting connections, in-flight handlers finish, and the solver
    pool shuts down — the clean-exit path under process supervisors.
    """
    import signal

    server = build_server(**kwargs)
    host, port = server.server_address[:2]
    print(f"repro-densest serving on http://{host}:{port}")
    print(f"  catalog : {server.service.catalog.path}")
    print(f"  workers : {server.service.jobs.workers}")

    def _drain(signum, frame):  # pragma: no cover - signal delivery
        # shutdown() must not run on the serve_forever thread (it
        # joins the serve loop), so hand it to a helper thread.
        threading.Thread(target=server.shutdown, daemon=True).start()

    try:
        signal.signal(signal.SIGTERM, _drain)
    except ValueError:  # pragma: no cover - not the main thread
        pass
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    finally:
        server.shutdown()
        server.server_close()
