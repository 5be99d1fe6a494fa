"""The CSR snapshot a shard store builds once and holds per instance.

``ShardedEdgeStore.snapshot()`` builds ``CSRGraph``/``CSRDigraph``
``from_shards`` on the first in-memory solve and returns the same
object afterwards.  These tests count the builds, check that reusing
the snapshot never changes an answer's bytes (on the C tier and under
``REPRO_NATIVE=off``), and pin its lifetime: per instance, never
cached on a failed build, dropped by ``repair()``, and not pickled.
"""

from __future__ import annotations

import pickle
import sys
import threading
import time

import numpy as np
import pytest

from repro.api import DensestAtLeastK, DensestSubgraph, DirectedDensest, solve
from repro.errors import StoreCorruptionError
from repro.faults import corrupt_shard
from repro.kernels import native
from repro.kernels.csr import CSRDigraph, CSRGraph
from repro.store import ShardedEdgeStore

UNDIRECTED_ARRAYS = ("indptr", "indices", "weights", "degrees")
DIRECTED_ARRAYS = (
    "out_indptr", "out_indices", "out_weights", "out_degrees",
    "in_indptr", "in_indices", "in_weights", "in_degrees",
)


def _write(path, *, directed, n=300, m=2400, seed=4):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    # A dense core so the peels run several passes.
    core = rng.integers(0, 25, (2, 400))
    src = np.concatenate([src, core[0]])
    dst = np.concatenate([dst, core[1]])
    w = rng.choice([0.5, 1.0, 2.25], src.size)
    ShardedEdgeStore.write(
        path, (src, dst, w), directed=directed, num_shards=5, num_nodes=n
    )
    return path


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("snapshot-stores")
    return {
        directed: _write(root / f"d{int(directed)}", directed=directed)
        for directed in (False, True)
    }


@pytest.fixture()
def builds(monkeypatch):
    """Every ``from_shards`` call, in order (the argument store)."""
    calls = []
    for cls in (CSRGraph, CSRDigraph):
        build = cls.__dict__["from_shards"].__func__

        def counted(klass, store, _build=build):
            calls.append(store)
            return _build(klass, store)

        monkeypatch.setattr(cls, "from_shards", classmethod(counted))
    return calls


@pytest.fixture(params=["c", "off"])
def tier(request, monkeypatch):
    """Run on the C library, then with ``REPRO_NATIVE=off``."""
    if request.param == "off":
        monkeypatch.setenv("REPRO_NATIVE", "off")
    native.reset_backend_cache()
    if request.param == "c" and native.c_library() is None:
        pytest.skip("the C library does not load here")
    yield request.param
    monkeypatch.undo()
    native.reset_backend_cache()


def _same_arrays(a, b):
    names = DIRECTED_ARRAYS if isinstance(a, CSRDigraph) else UNDIRECTED_ARRAYS
    return all(np.array_equal(getattr(a, x), getattr(b, x)) for x in names)


PROBLEMS = {
    "densest": (False, lambda s, e: DensestSubgraph(s, epsilon=e)),
    "at_least_k": (False, lambda s, e: DensestAtLeastK(s, k=30, epsilon=e)),
    "directed": (True, lambda s, e: DirectedDensest(s, ratio=1.0, epsilon=e)),
}
EPSILONS = (0.05, 0.3, 1.0)


@pytest.mark.parametrize("kind", sorted(PROBLEMS))
def test_repeat_solves_build_once_with_fresh_store_bytes(paths, builds, tier, kind):
    directed, make = PROBLEMS[kind]
    store = ShardedEdgeStore.open(paths[directed])
    held = [solve(make(store, eps), backend="core-csr") for eps in EPSILONS]
    assert builds == [store]
    assert store.held_snapshot is store.snapshot()
    fresh = [
        solve(make(ShardedEdgeStore.open(paths[directed]), eps), backend="core-csr")
        for eps in EPSILONS
    ]
    assert len(builds) == 1 + len(EPSILONS)
    assert [s.to_json() for s in held] == [s.to_json() for s in fresh]


def test_backends_share_the_held_snapshot(paths, builds):
    store = ShardedEdgeStore.open(paths[False])
    problem = DensestSubgraph(store, epsilon=0.2)
    core = solve(problem, backend="core-csr")
    mapreduce = solve(problem, backend="mapreduce")
    assert len(builds) == 1
    assert core.nodes == mapreduce.nodes and core.density == mapreduce.density


def test_concurrent_first_solves_share_one_build(paths, builds, monkeypatch):
    build = CSRGraph.__dict__["from_shards"].__func__

    def slow(klass, store):  # widen the race window
        time.sleep(0.05)
        return build(klass, store)

    monkeypatch.setattr(CSRGraph, "from_shards", classmethod(slow))
    store = ShardedEdgeStore.open(paths[False])
    barrier = threading.Barrier(4)
    answers = [None] * 4

    def worker(i):
        barrier.wait()
        answers[i] = solve(DensestSubgraph(store, epsilon=0.2), backend="core-csr")

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(builds) == 1
    assert len({a.to_json() for a in answers}) == 1


def test_corrupt_store_raises_every_call_and_caches_nothing(tmp_path, builds):
    path = _write(tmp_path / "st", directed=False)
    corrupt_shard(path, shard=2)
    store = ShardedEdgeStore.open(path)
    for attempt in range(1, 4):
        with pytest.raises(StoreCorruptionError, match="checksum mismatch"):
            solve(DensestSubgraph(store, epsilon=0.2), backend="core-csr")
        assert store.held_snapshot is None
        assert len(builds) == attempt


def test_repair_drops_the_snapshot(tmp_path, builds):
    path = _write(tmp_path / "st", directed=False)
    store = ShardedEdgeStore.open(path)
    problem = DensestSubgraph(store, epsilon=0.2)
    solve(problem, backend="core-csr")
    # Damage after the build is invisible to this instance, exactly
    # like a shard it already verified...
    corrupt_shard(path, shard=1)
    solve(problem, backend="core-csr")
    assert len(builds) == 1
    # ...until repair quarantines the shard and drops the snapshot.
    assert not store.repair().ok
    assert store.held_snapshot is None
    with pytest.raises(StoreCorruptionError, match="quarantined"):
        solve(problem, backend="core-csr")


def test_healthy_repair_keeps_the_snapshot(paths):
    store = ShardedEdgeStore.open(paths[False])
    snap = store.snapshot()
    assert store.repair().ok
    assert store.snapshot() is snap


def test_each_open_builds_its_own(paths, builds):
    first = ShardedEdgeStore.open(paths[True])
    second = ShardedEdgeStore.open(paths[True])
    a, b = first.snapshot(), second.snapshot()
    assert a is not b and _same_arrays(a, b)
    assert builds == [first, second]
    assert first.snapshot() is a and second.snapshot() is b


def test_store_pickles_without_its_snapshot(paths, builds):
    store = ShardedEdgeStore.open(paths[False])
    snap = store.snapshot()
    clone = pickle.loads(pickle.dumps(store))
    assert clone.held_snapshot is None
    assert clone.path == store.path and clone.num_edges == store.num_edges
    assert _same_arrays(clone.snapshot(), snap)
    assert len(builds) == 2
    assert store.snapshot() is snap


def test_nbytes_counts_the_csr_arrays(paths):
    for directed, names in ((False, UNDIRECTED_ARRAYS), (True, DIRECTED_ARRAYS)):
        snap = ShardedEdgeStore.open(paths[directed]).snapshot()
        assert snap.nbytes == sum(getattr(snap, x).nbytes for x in names) > 0
