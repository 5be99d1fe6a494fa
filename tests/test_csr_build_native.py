"""Parity and safety of the compiled CSR build from shard stores.

``CSRGraph.from_shards`` / ``CSRDigraph.from_shards`` fill the CSR with
the C counting-sort passes whenever the C library loads, and with the
numpy fill otherwise.  The numpy fill is the oracle here: every array
of the C build must be bit-identical to it (and to ``from_edge_arrays``
where that builder applies, i.e. without parallel edges), and the C
passes must refuse bad input with a ``GraphError`` instead of writing
out of bounds.
"""

from __future__ import annotations

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from repro.api import DensestAtLeastK, DensestSubgraph, DirectedDensest, solve
from repro.api.backends import CoreCSRSolver
from repro.errors import GraphError
from repro.kernels import NATIVE_SIZE_CUTOFF, csr as csr_mod, native
from repro.kernels.csr import CSRDigraph, CSRGraph
from repro.store import ShardedEdgeStore

LIB = native.c_library()
needs_c = pytest.mark.skipif(LIB is None, reason="the C library does not load here")

DYADIC = np.array([0.125, 0.5, 1.0, 2.25, 3.0])
UNDIRECTED_ARRAYS = ("indptr", "indices", "weights", "degrees")
DIRECTED_ARRAYS = (
    "out_indptr", "out_indices", "out_weights", "out_degrees",
    "in_indptr", "in_indices", "in_weights", "in_degrees",
)


def _cls(store):
    return CSRDigraph if store.directed else CSRGraph


def numpy_fill(store):
    """``from_shards`` with the C library hidden: the numpy fill."""
    with mock.patch.object(csr_mod, "_csr_library", lambda: None):
        return _cls(store).from_shards(store)


def assert_same(a, b):
    names = DIRECTED_ARRAYS if isinstance(a, CSRDigraph) else UNDIRECTED_ARRAYS
    for name in names:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y), name
    assert a.total_weight == b.total_weight
    assert list(a.labels) == list(b.labels)


def check_fills(store):
    """The default build equals the numpy fill; returns the default build."""
    got = _cls(store).from_shards(store)
    assert_same(numpy_fill(store), got)
    return got


def write(tmp_path, name, src, dst, w=None, *, directed, shards, n):
    source = (np.asarray(src), np.asarray(dst))
    if w is not None:
        source += (np.asarray(w, dtype=np.float64),)
    return ShardedEdgeStore.write(
        tmp_path / name, source, directed=directed, num_shards=shards, num_nodes=n
    )


def unique_pairs(rng, n, m, *, directed):
    """``m`` random distinct weighted edges, no self-loops or parallel pairs."""
    src = rng.integers(0, n, 4 * m)
    dst = rng.integers(0, n, 4 * m)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    lo, hi = (src, dst) if directed else (np.minimum(src, dst), np.maximum(src, dst))
    _, first = np.unique(lo * n + hi, return_index=True)
    first = np.sort(first)[:m]
    # Dyadic weights: degree sums come out the same in any order, so the
    # shard builds can be compared with from_edge_arrays bit for bit.
    return src[first], dst[first], rng.choice(DYADIC, first.size)


def fake_store(shards, n, *, directed=False, second=None):
    """A minimal store: ``second`` replaces the shards from the second scan on."""
    scans = []

    def iter_shard_arrays():
        data = shards if not scans or second is None else second
        scans.append(1)
        for u, v, w in data:
            yield (
                np.asarray(u, dtype=np.int64),
                np.asarray(v, dtype=np.int64),
                np.asarray(w, dtype=np.float64),
            )

    return SimpleNamespace(
        directed=directed, num_nodes=n, iter_shard_arrays=iter_shard_arrays
    )


# ----------------------------------------------------------------------
# Parity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("directed", [False, True])
def test_empty_store(tmp_path, directed):
    for n in (0, 6):
        store = write(
            tmp_path, f"e{n}", np.empty(0, np.int64), np.empty(0, np.int64),
            directed=directed, shards=3, n=n,
        )
        snap = check_fills(store)
        assert snap.num_nodes == n and snap.num_edges == 0


@pytest.mark.parametrize("directed", [False, True])
def test_trailing_isolated_nodes(tmp_path, directed):
    rng = np.random.default_rng(1)
    src, dst, w = unique_pairs(rng, 40, 120, directed=directed)
    n = int(max(src.max(), dst.max())) + 25
    store = write(tmp_path, "st", src, dst, w, directed=directed, shards=4, n=n)
    snap = check_fills(store)
    assert_same(_cls(store).from_edge_arrays(src, dst, w, num_nodes=n), snap)
    assert snap.num_nodes == n


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("shards", [1, 7, 64])
def test_shard_counts(tmp_path, directed, shards):
    rng = np.random.default_rng(shards)
    src, dst, w = unique_pairs(rng, 300, 2500, directed=directed)
    store = write(tmp_path, "st", src, dst, w, directed=directed, shards=shards, n=300)
    snap = check_fills(store)
    assert_same(_cls(store).from_edge_arrays(src, dst, w, num_nodes=300), snap)


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("shards", [1, 5])
def test_duplicates_in_both_orientations_keep_tie_order(tmp_path, directed, shards):
    # Parallel entries of one (row, col) pair sum left to right in the
    # kernels, so their order must match the numpy fill exactly.
    # Non-dyadic weights make any reordering visible in the bits.  One
    # shard holds (a, b) and (b, a) together; with five, hashing by u
    # splits most of them across shards.
    rng = np.random.default_rng(7)
    pairs = [(0, 1), (1, 0), (2, 5), (5, 2), (3, 4), (1, 2), (2, 1)]
    src, dst = [], []
    for _ in range(30):
        for a, b in pairs:
            src.append(a)
            dst.append(b)
    src, dst = np.array(src), np.array(dst)
    order = rng.permutation(src.size)
    src, dst = src[order], dst[order]
    w = rng.random(src.size) / 3.0 + 0.1
    store = write(tmp_path, "st", src, dst, w, directed=directed, shards=shards, n=8)
    filled = sum(1 for u, _, _ in store.iter_shard_arrays() if len(u))
    assert filled == 1 if shards == 1 else filled > 1
    snap = check_fills(store)
    assert snap.num_edges == src.size


def test_self_loops_and_duplicates_from_a_plain_store():
    # Stores written by ShardWriter never hold self-loops, but the
    # builders accept any (u, v, w) shard source; both fills must agree.
    shards = [
        ([0, 0, 3, 1], [0, 2, 1, 3], [0.3, 0.7, 0.1, 0.9]),
        ([], [], []),
        ([2, 3, 3], [0, 3, 1], [0.2, 0.4, 1.1]),
    ]
    for directed in (False, True):
        store = fake_store(shards, 5, directed=directed)
        assert_same(numpy_fill(store), _cls(store).from_shards(store))


def test_directed_star_with_in_degree_far_above_out_degree(tmp_path):
    # Node 0 receives an edge from every other node and sends one: the
    # out-CSR's column pass must bucket by in-degree (in_indptr).
    n = 5000
    src = np.concatenate([np.arange(1, n), [0]])
    dst = np.concatenate([np.zeros(n - 1, np.int64), [1]])
    w = np.random.default_rng(3).choice(DYADIC, n)
    store = write(tmp_path, "star", src, dst, w, directed=True, shards=4, n=n)
    snap = check_fills(store)
    assert_same(CSRDigraph.from_edge_arrays(src, dst, w, num_nodes=n), snap)
    assert snap.in_indptr[1] == n - 1 and snap.out_indptr[1] == 1


@needs_c
def test_bucketing_by_the_wrong_pointer_raises_instead_of_writing(tmp_path):
    n = 500
    src = np.arange(1, n)
    dst = np.zeros(n - 1, np.int64)
    store = write(tmp_path, "star", src, dst, directed=True, shards=2, n=n)
    snap = CSRDigraph.from_shards(store)
    # Bucketing the v-keyed column pass by the row (out) pointer puts
    # n - 1 entries into node 0's empty bucket.
    with pytest.raises(GraphError, match="bucket overflow"):
        csr_mod._c_bucket_shards(
            LIB, store, n, snap.out_indptr, lambda u, v: ((v, u),)
        )


# ----------------------------------------------------------------------
# Safety
# ----------------------------------------------------------------------
@pytest.mark.parametrize("use_c", [False, True])
@pytest.mark.parametrize("directed", [False, True])
def test_int32_entry_guard_raises_before_any_fill(
    tmp_path, monkeypatch, use_c, directed
):
    if use_c and LIB is None:
        pytest.skip("the C library does not load here")
    rng = np.random.default_rng(4)
    src, dst, w = unique_pairs(rng, 50, 40, directed=directed)
    store = write(tmp_path, "st", src, dst, w, directed=directed, shards=3, n=50)
    monkeypatch.setattr(csr_mod, "MAX_CSR_ENTRIES", 30)
    scatter = mock.Mock(side_effect=AssertionError("C fill ran"))
    monkeypatch.setattr(csr_mod, "_c_scatter", scatter)
    if not use_c:
        monkeypatch.setattr(csr_mod, "_csr_library", lambda: None)
    with pytest.raises(GraphError, match="int32 index space"):
        _cls(store).from_shards(store)
    scatter.assert_not_called()


@pytest.mark.parametrize("use_c", [False, True])
@pytest.mark.parametrize("directed", [False, True])
def test_out_of_range_id_raises_before_any_fill(monkeypatch, use_c, directed):
    if use_c and LIB is None:
        pytest.skip("the C library does not load here")
    # The bad id sits in the last shard: the count pass must have
    # checked every shard before the first scatter.
    store = fake_store(
        [([0, 1], [1, 2], [1.0, 1.0]), ([2, 9], [3, 0], [1.0, 1.0])], 4,
        directed=directed,
    )
    scatter = mock.Mock(side_effect=AssertionError("C fill ran"))
    monkeypatch.setattr(csr_mod, "_c_scatter", scatter)
    if not use_c:
        monkeypatch.setattr(csr_mod, "_csr_library", lambda: None)
    with pytest.raises(GraphError, match=r"edge endpoints must lie in \[0, 4\)"):
        _cls(store).from_shards(store)
    scatter.assert_not_called()


@needs_c
@pytest.mark.parametrize("directed", [False, True])
def test_store_changed_between_passes_raises(directed):
    first = [([0, 1, 2], [1, 2, 3], [1.0, 1.0, 1.0])]
    # Same entry count, different rows: buckets overflow.
    moved = [([0, 0, 0], [1, 2, 3], [1.0, 1.0, 1.0])]
    store = fake_store(first, 4, directed=directed, second=moved)
    with pytest.raises(GraphError, match="changed between the count and fill"):
        _cls(store).from_shards(store)
    # Fewer entries: buckets left short, caught before the second pass.
    store = fake_store(first, 4, directed=directed, second=[([0], [1], [1.0])])
    with pytest.raises(GraphError, match="changed between the count and fill"):
        _cls(store).from_shards(store)
    # An id out of range on the second scan only.
    stray = [([0, 1, 7], [1, 2, 3], [1.0, 1.0, 1.0])]
    store = fake_store(first, 4, directed=directed, second=stray)
    with pytest.raises(GraphError, match="out of range"):
        _cls(store).from_shards(store)


def test_native_off_uses_the_numpy_fill(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    src, dst, w = unique_pairs(rng, 80, 300, directed=False)
    store = write(tmp_path, "st", src, dst, w, directed=False, shards=3, n=80)
    monkeypatch.setenv("REPRO_NATIVE", "off")
    native.reset_backend_cache()
    try:
        assert native.c_library() is None
        snap = CSRGraph.from_shards(store)
    finally:
        monkeypatch.delenv("REPRO_NATIVE")
        native.reset_backend_cache()
    assert_same(numpy_fill(store), snap)


# ----------------------------------------------------------------------
# core-csr: auto reaches the compiled tier with the numpy answer
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def big_stores(tmp_path_factory):
    root = tmp_path_factory.mktemp("stores")
    rng = np.random.default_rng(11)
    n = NATIVE_SIZE_CUTOFF + 500
    stores = {}
    for directed in (False, True):
        src, dst, _ = unique_pairs(rng, n, 6 * n, directed=directed)
        # A dense core so the peel runs several passes.
        core = rng.integers(0, 60, (2, 1500))
        core = core[:, core[0] != core[1]]
        src = np.concatenate([src, core[0]])
        dst = np.concatenate([dst, core[1]])
        stores[directed] = write(
            root, f"d{int(directed)}", src, dst, directed=directed, shards=6, n=n
        )
    return stores


@pytest.mark.parametrize(
    "make",
    [
        lambda s: DensestSubgraph(s[False], epsilon=0.1),
        lambda s: DensestAtLeastK(s[False], k=40, epsilon=0.05),
        lambda s: DirectedDensest(s[True], ratio=1.0, epsilon=0.3),
    ],
    ids=["densest", "at_least_k", "directed"],
)
def test_core_csr_auto_matches_numpy_on_shard_stores(big_stores, make, monkeypatch):
    tiers = []
    resolve = CoreCSRSolver._graph_engine

    def spy(self, engine, graph):
        tiers.append(resolve(self, engine, graph))
        return tiers[-1]

    monkeypatch.setattr(CoreCSRSolver, "_graph_engine", spy)
    problem = make(big_stores)
    auto = solve(problem, backend="core-csr")
    pinned = solve(problem, backend="core-csr", engine="numpy")
    assert auto.to_json() == pinned.to_json()
    expected = "native" if native.available_backend() is not None else "numpy"
    assert tiers == [expected, "numpy"]
