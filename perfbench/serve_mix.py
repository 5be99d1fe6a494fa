"""The ``serve_mix`` workload: ``repro-densest serve`` over HTTP.

One client thread sends open-loop warm ``POST /solve`` requests for
primed keys, stepping through a fixed ladder of offered rates; each is
timed from the moment it was due.  A second thread runs closed-loop
cold ``POST /solve`` requests with ``wait``, one in flight, each on a
key it has never sent.  The server runs as a subprocess with a fresh
catalog; the traced run hosts ``build_server`` in this process instead,
so the wrappers see the server-side calls.
"""

from __future__ import annotations

import http.client
import itertools
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import Solution
from repro.serve import build_server

from .common import (
    SETUP_REPS,
    Op,
    RunResult,
    StoreInput,
    generate_store,
    peak_rss_mb,
    percentile,
    pool_workers,
    repeated_setup,
    reset_peak_rss,
)
from .oracle import Oracle, solution_bytes

#: Offered warm rates (requests/s), three steps per doubling.  The top
#: rates are beyond what one client thread can send.
LADDER = tuple(round(50 * 2 ** (i / 3)) for i in range(19))
#: The rate ``warm_p50_s`` and ``warm_p90_s`` are reported at.  The
#: ladder returns to it in segments spread over the run, and the metrics
#: are medians over segments, so a slow spell of the machine moves few
#: of them.
REFERENCE_RATE = 100
REFERENCE_SEGMENTS = 8
#: A step is sustained when its warm p90 (from due time) and the
#: lateness of its last request are at most this.
LATENCY_LIMIT_S = 0.05
#: The traced run alternates traced and untraced windows of this length.
TRACE_WINDOW_S = 0.5

DATASET = "nested"
#: Primed keys of the warm traffic.
WARM_PROBLEMS = (
    {"kind": "densest_subgraph", "epsilon": 0.5},
    {"kind": "densest_subgraph", "epsilon": 0.3},
    {"kind": "densest_subgraph", "epsilon": 0.2},
    {"kind": "densest_at_least_k", "k": 32, "epsilon": 0.3},
)


def schedule(ladder) -> List[Tuple[int, str]]:
    """``(rate, name)`` segments: a reference segment before every other step."""
    plan: List[Tuple[int, str]] = []
    steps = [rate for rate in ladder if rate != REFERENCE_RATE]
    for i, rate in enumerate(steps):
        refs = sum(name.startswith("ref") for _, name in plan)
        if i % 2 == 0 and refs < REFERENCE_SEGMENTS:
            plan.append((REFERENCE_RATE, f"ref{refs}"))
        plan.append((rate, f"rate{rate}"))
    return plan


def cold_problem(i: int) -> dict:
    """The ``i``-th never-sent key: ε below every warm key's ε."""
    return {"kind": "densest_subgraph", "epsilon": 0.04 + i / 4096}


def oracle_key(problem: dict) -> Tuple:
    """The :class:`~perfbench.oracle.Oracle` key of a request's problem."""
    params = tuple(sorted((k, v) for k, v in problem.items() if k != "kind"))
    return (DATASET, problem["kind"], params)


def send(port: int, path: str, body: Optional[dict] = None, op_id=None):
    """POST ``body`` as JSON (GET without one) on a fresh connection.

    The repository's own clients (``urllib.request``) open a connection
    per request.  A kept-alive connection would stall each response
    ~40 ms on Nagle and delayed ACK, because the handler writes headers
    and body in separate sends.
    """
    headers = {"Content-Type": "application/json"}
    if op_id is not None:
        headers["X-Request-Id"] = str(op_id)
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request(
            "GET" if body is None else "POST",
            path,
            body=None if body is None else json.dumps(body),
            headers=headers,
        )
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class SubprocessServer:
    """``repro-densest serve`` as a child process."""

    def __init__(self, root: Path, work: Path) -> None:
        work.mkdir(parents=True, exist_ok=True)
        log = work / "server.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        with open(log, "w") as out:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-u", "-m", "repro.cli", "serve",
                    "--port", "0",
                    "--catalog", str(work / "catalog.sqlite"),
                    "--workers", str(pool_workers()),
                ],
                stdout=out,
                stderr=subprocess.STDOUT,
                env=env,
                cwd=root,
            )
        self.port = self._wait_for_port(log)

    def _wait_for_port(self, log: Path) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            for line in log.read_text().splitlines():
                if "serving on http://" in line:
                    return int(line.rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        self.stop()
        raise RuntimeError(f"server did not start:\n{log.read_text()}")

    @property
    def pid(self) -> str:
        return str(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class InProcessServer:
    """``build_server`` on a thread of this process (traced run)."""

    def __init__(self, work: Path) -> None:
        work.mkdir(parents=True, exist_ok=True)
        self.server = build_server(
            port=0, catalog_path=str(work / "catalog.sqlite"), workers=pool_workers()
        )
        self.port = self.server.server_address[1]
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    pid = "self"

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=20)


def _setup(root: Path, work: Path, seed: int, n: int, in_process: bool):
    """Generate the graph, write the store, start and prime the server."""
    store_in = generate_store(DATASET, work / DATASET, n=n, directed=False, seed=seed)
    server = InProcessServer(work) if in_process else SubprocessServer(root, work)
    try:
        status, body = send(
            server.port, "/datasets", {"name": DATASET, "store": str(store_in.path)}
        )
        if status != 201:
            raise RuntimeError(f"dataset registration answered {status}: {body!r}")
        primed = {}
        for problem in WARM_PROBLEMS:
            status, body = send(
                server.port, "/solve",
                {"dataset": DATASET, "problem": problem, "wait": 60},
            )
            if status != 200:
                raise RuntimeError(f"priming {problem} answered {status}: {body!r}")
            primed[json.dumps(problem, sort_keys=True)] = _answer(body)
    except BaseException:
        server.stop()
        raise
    return store_in, server, primed


def _answer(body: bytes) -> Tuple[bool, str]:
    """``(labeled, canonical answer bytes)`` of a 200 response body."""
    payload = json.loads(body)
    labeled = bool(payload.get("stale") or payload.get("degraded"))
    return labeled, solution_bytes(Solution.from_jsonable(payload["solution"]))


def run(root: Path, work: Path, seed: int, seconds: float, scale: float,
        tracer=None) -> RunResult:
    n = max(200, int(10_000 * scale))
    (store_in, server, primed), setup_seconds = repeated_setup(
        lambda rep_dir: _setup(root, rep_dir, seed, n, tracer is not None),
        work,
        1 if tracer is not None else SETUP_REPS,
        discard=lambda setup: setup[1].stop(),
    )
    try:
        reset_peak_rss(server.pid)
        if tracer is not None:
            tracer.jobs.clear()
        ops, wall, steps = _timed_phase(server.port, seed, seconds, tracer)
        rss = peak_rss_mb(server.pid)
        stats = json.loads(send(server.port, "/stats")[1])
    finally:
        server.stop()

    _check(ops, primed, store_in)
    return RunResult(
        setup_seconds, ops, wall, rss, {DATASET: store_in},
        extra={"steps": steps, "stats": stats},
    )


def _timed_phase(port: int, seed: int, seconds: float, tracer):
    ids = itertools.count()
    warm_ops: List[Op] = []
    cold_ops: List[Op] = []
    steps: List[dict] = []
    stop = threading.Event()
    start = time.perf_counter()
    plan = [(REFERENCE_RATE, "ref0")] if tracer is not None else schedule(LADDER)

    def traced_at(t: float) -> bool:
        return tracer is not None and int((t - start) / TRACE_WINDOW_S) % 2 == 1

    def request(op, body):
        op.traced = traced_at(op.start)
        try:
            if op.traced:
                with tracer.op(op.id, op.label, config=op.config):
                    status, payload = send(port, "/solve", body, op.id)
            else:
                status, payload = send(port, "/solve", body, op.id)
        except (OSError, http.client.HTTPException) as exc:
            op.ok, op.error = False, f"{type(exc).__name__}: {exc}"
            return
        if status != 200:
            op.ok, op.error = False, f"HTTP {status}: {payload[:200]!r}"
        else:
            op.answer = payload

    def warm_loop():
        rng = random.Random(seed)
        # Every segment offers the same number of requests and sends all
        # of them on its schedule however late it runs, so a rate above
        # capacity shows as lateness that grows through the segment.
        # The ladder stops when time is up.
        unit = max(20, int(seconds / sum(1.0 / rate for rate, _ in plan)))
        try:
            for rate, name in plan:
                step_start = time.perf_counter()
                if step_start - start >= seconds:
                    break
                for k in range(unit):
                    due = step_start + k / rate
                    now = time.perf_counter()
                    if due > now:
                        time.sleep(due - now)
                    problem = rng.choice(WARM_PROBLEMS)
                    op = Op(next(ids), "warm", name, time.perf_counter(),
                            0.0, warm=True, due=due, expected=oracle_key(problem))
                    request(op, {"dataset": DATASET, "problem": problem})
                    op.latency = time.perf_counter() - due
                    warm_ops.append(op)
                steps.append({"rate": rate, "name": name, "sent": unit,
                              "lag_s": op.start - op.due})
        finally:
            stop.set()

    def cold_loop():
        for i in itertools.count():
            if stop.is_set():
                break
            problem = cold_problem(i)
            op = Op(next(ids), "cold", "cold", time.perf_counter(), 0.0,
                    expected=oracle_key(problem))
            request(op, {"dataset": DATASET, "problem": problem, "wait": 60})
            op.latency = time.perf_counter() - op.start
            cold_ops.append(op)

    # Daemon threads, so a terminated run exits without finishing them.
    threads = [
        threading.Thread(target=loop, daemon=True) for loop in (warm_loop, cold_loop)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    for step in steps:
        lat = [op.latency for op in warm_ops if op.config == step["name"] and op.ok]
        step["p50_s"] = percentile(lat, 50)
        step["p90_s"] = percentile(lat, 90)
    return warm_ops + cold_ops, wall, steps


def _check(
    ops: List[Op], primed: Dict[str, Tuple[bool, str]], store_in: StoreInput
) -> None:
    """Cold answers against the oracle; warm answers against priming."""
    oracle = Oracle()
    oracle.add_graph(DATASET, store_in.src, store_in.dst, store_in.num_nodes, False)
    first: Dict[Tuple, str] = {}
    for problem in WARM_PROBLEMS:
        labeled, answer = primed[json.dumps(problem, sort_keys=True)]
        key = oracle_key(problem)
        if labeled or answer != oracle.expected(*key):
            raise RuntimeError(f"priming answer for {problem} is wrong")
        first[key] = answer
    for op in ops:
        if not op.ok:
            continue
        op.labeled, op.answer = _answer(op.answer)
        if op.labeled:
            continue
        op.edges = store_in.num_edges if not op.warm else 0
        expected = first.get(op.expected)
        if expected is None:
            expected = first[op.expected] = oracle.expected(*op.expected)
        if op.answer != expected:
            op.ok, op.error = False, "answer differs from the first answer for its key"


def sustained_rps(steps: List[dict]) -> float:
    """Highest offered rate meeting the latency limit without backlog.

    A rate is sustained when the p90 from due time and the lateness of
    the last request of its segment (the median over segments, for the
    reference rate) are both within the limit.  The highest sustained
    rate is interpolated log-linearly toward the rate above it, to where
    the worse of the two crosses the limit, so the figure is not
    quantized to the ladder.
    """
    by_rate: Dict[int, List[float]] = {}
    for step in steps:
        by_rate.setdefault(step["rate"], []).append(max(step["p90_s"], step["lag_s"]))
    rates = sorted(by_rate)
    badness = [statistics.median(by_rate[rate]) for rate in rates]
    passed = [i for i, bad in enumerate(badness) if bad <= LATENCY_LIMIT_S]
    if not passed:
        return rates[0] * LATENCY_LIMIT_S / badness[0]
    lo = passed[-1]
    if lo == len(rates) - 1:
        return float(rates[lo])
    frac = (LATENCY_LIMIT_S - badness[lo]) / (badness[lo + 1] - badness[lo])
    return rates[lo] * math.exp(frac * math.log(rates[lo + 1] / rates[lo]))
