"""The batch workloads: one closed-loop caller of ``repro.solve``.

``shard_solve``, ``stream_oocore`` and ``mr_rounds`` each run a fixed
list of calls, cycle after cycle, until the run's seconds are spent.
Every call opens its store by path, as a command-line run does, and
every store is queried more than once per cycle, so a snapshot or result
cache would show.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import repro
from repro.kernels import native_backend

from .common import (
    SETUP_REPS,
    Op,
    RunResult,
    StoreInput,
    generate_store,
    peak_rss_mb,
    pool_workers,
    repeated_setup,
    reset_peak_rss,
)
from .oracle import Oracle, solution_bytes


@dataclass(frozen=True)
class Call:
    """One ``solve()`` call of a workload's list."""

    label: str
    config: str
    store: str
    kind: str
    params: Tuple[Tuple[str, object], ...]
    backend: str = "auto"
    options: Callable[[Path], dict] = lambda work: {}  # solve() keywords

    def problem(self, store):
        cls = {
            "densest_subgraph": repro.DensestSubgraph,
            "densest_at_least_k": repro.DensestAtLeastK,
            "directed_densest": repro.DirectedDensest,
        }[self.kind]
        return cls(store, **dict(self.params))


@dataclass(frozen=True)
class BatchWorkload:
    stores: Dict[str, dict]  # name -> generate_store() keyword arguments
    calls: List[Call]


def _pool(work: Path) -> dict:
    return {"context": repro.ExecutionContext(workers=pool_workers())}


def _pool_file(work: Path) -> dict:
    return {
        "context": repro.ExecutionContext(
            workers=pool_workers(), shuffle_dir=str(work / "shuffle")
        )
    }


def _compact(work: Path) -> dict:
    # A spill directory on the context turns pass compaction on.
    return {"context": repro.ExecutionContext(spill_dir=str(work / "spill"))}


def _fused(work: Path) -> dict:
    return {"fused": True}


def workloads(scale: float) -> Dict[str, BatchWorkload]:
    """The batch workloads at ``scale`` (1.0 for the benchmark)."""

    def n(base: int) -> int:
        return max(200, int(base * scale))

    und, dig = "und", "dir"
    shard_solve = BatchWorkload(
        stores={
            und: {"n": n(50_000), "directed": False},
            dig: {"n": n(50_000), "directed": True},
        },
        calls=[
            *(
                Call(f"und densest eps={eps}", "auto", und, "densest_subgraph",
                     (("epsilon", eps),))
                for eps in (0.5, 0.1, 0.01)
            ),
            Call(
                "und at_least_k k=16 eps=0.05", "auto", und, "densest_at_least_k",
                (("epsilon", 0.05), ("k", 16)),
            ),
            Call(
                "dir directed c=1 eps=0.5", "auto", dig, "directed_densest",
                (("epsilon", 0.5), ("ratio", 1.0)),
            ),
            Call(
                "dir directed c=1 eps=0.2", "auto", dig, "directed_densest",
                (("epsilon", 0.2), ("ratio", 1.0)),
            ),
        ],
    )
    # Thin shells peel at the same pass count on every seed (12 at this
    # eps), so the work per call does not change with the seed.
    params = (("epsilon", 0.05),)
    stream_oocore = BatchWorkload(
        stores={
            "big": {"n": n(100_000), "directed": False, "degree": 7.2, "shrink": 0.8}
        },
        calls=[
            Call("stream compact", "compact", "big", "densest_subgraph", params,
                 "streaming", _compact),
            Call("stream nocompact", "nocompact", "big", "densest_subgraph", params,
                 "streaming"),
        ],
    )
    params = (("epsilon", 0.3),)
    mr_rounds = BatchWorkload(
        stores={"mr": {"n": n(20_000), "directed": False}},
        calls=[
            Call("mr serial", "serial", "mr", "densest_subgraph", params, "mapreduce"),
            Call("mr fused", "fused", "mr", "densest_subgraph", params, "mapreduce",
                 _fused),
            Call("mr pool", "pool", "mr", "densest_subgraph", params, "mapreduce",
                 _pool),
            Call("mr pool_file", "pool_file", "mr", "densest_subgraph", params,
                 "mapreduce", _pool_file),
        ],
    )
    return {
        "shard_solve": shard_solve,
        "stream_oocore": stream_oocore,
        "mr_rounds": mr_rounds,
    }


def _setup(spec: BatchWorkload, work: Path, seed: int) -> Dict[str, StoreInput]:
    """Generate every graph, write its store, load the C kernel."""
    stores = {}
    for i, (name, shape) in enumerate(sorted(spec.stores.items())):
        stores[name] = generate_store(name, work / name, seed=seed * 100 + i, **shape)
    native_backend()
    return stores


def run(
    spec: BatchWorkload, work: Path, seed: int, seconds: float, tracer=None
) -> RunResult:
    """Set up, run the closed loop for ``seconds``, check every answer.

    With a ``tracer`` every other cycle is traced, so the run measures
    its own tracing overhead on identical calls.
    """
    stores, setup_seconds = repeated_setup(
        lambda rep_dir: _setup(spec, rep_dir, seed),
        work,
        1 if tracer is not None else SETUP_REPS,
    )
    for name in ("shuffle", "spill"):
        (work / name).mkdir(exist_ok=True)

    ops: List[Op] = []
    reset_peak_rss()
    start = time.perf_counter()
    cycle = 0
    # Whole cycles only, and at least two, so every call has a repeat.
    while cycle < 2 or time.perf_counter() - start < seconds:
        traced = tracer is not None and cycle % 2 == 1
        for call in spec.calls:
            op = Op(len(ops), call.label, call.config, 0.0, 0.0, cycle=cycle,
                    traced=traced, expected=(call.store, call.kind, call.params))
            store_in = stores[call.store]
            op.start = time.perf_counter()
            try:
                if traced:
                    with tracer.op(op.id, call.label, config=call.config):
                        solution = _solve(call, store_in, work)
                else:
                    solution = _solve(call, store_in, work)
            except Exception as exc:  # noqa: BLE001 - a failed op is counted
                op.ok, op.error = False, f"{type(exc).__name__}: {exc}"
            op.latency = time.perf_counter() - op.start
            if op.ok:
                op.edges = store_in.num_edges
                op.answer = solution
            ops.append(op)
        cycle += 1
    wall = time.perf_counter() - start
    rss = peak_rss_mb()

    oracle = Oracle()
    for store_in in stores.values():
        oracle.add_graph(
            store_in.name, store_in.src, store_in.dst, store_in.num_nodes,
            store_in.directed,
        )
    for op in ops:
        if op.ok:
            op.answer = solution_bytes(op.answer)
            if op.answer != oracle.expected(*op.expected):
                op.ok, op.error = False, "answer differs from the numpy-tier oracle"
    return RunResult(setup_seconds, ops, wall, rss, stores)


def _solve(call: Call, store_in: StoreInput, work: Path):
    store = repro.ShardedEdgeStore.open(store_in.path)
    return repro.solve(call.problem(store), backend=call.backend, **call.options(work))
