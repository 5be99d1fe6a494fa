"""The paper's §5.2 MapReduce realization of the peeling algorithms.

Edge records are key-value pairs ``(u, (v, w))`` — an edge from u to v
of weight w, keyed by its first endpoint.  Each peeling pass is the
exact job pipeline the paper describes:

1. **Degree job** (1 round): map each edge to ``⟨u; w⟩`` and ``⟨v; w⟩``
   (for directed graphs, ``⟨('out', u); w⟩`` and ``⟨('in', v); w⟩``),
   combine/reduce by summing.  The driver derives the surviving edge
   weight and density from the degree output — the "trivial counting"
   the paper mentions.

2. **Node-removal job** (2 rounds undirected, 1 round directed): the
   driver injects a marker record ``⟨r; '$'⟩`` for every node r slated
   for removal; the reducer for a key that saw a marker emits nothing,
   otherwise it copies its edges through, re-keyed on the other
   endpoint so the second round (or the next pass) can filter on it.
   Only edges with both endpoints unmarked survive — exactly the
   paper's two-phase filter.

Every job carries both record-form and batch-form callables, so the
same pipeline runs on either runtime path.  ``engine="numpy"`` (or
``engine="auto"`` on an int-labeled graph) drives the jobs columnar:
edges live as int64/float64 arrays keyed by node label, markers are a
boolean column instead of the ``'$'`` string, degrees come back as one
``np.bincount``-style segment sum, and removal is a boolean mask over
the grouped edge rows.  The columnar drivers meter the same record
counts per round as the record drivers and make the same threshold
decisions up to float-reassociation noise (combiner-local and
pass-total sums associate differently, so degrees and thresholds can
differ in the last ULPs; bit-identical for dyadic weights, e.g.
unweighted graphs — the same caveat as the core engines).  The parity
suite in
``tests/test_mapreduce_columnar.py`` asserts outputs, traces, and
counters agree.

The driver keeps O(n) state (alive flags, best set) and makes the same
threshold decisions as :func:`repro.core.densest_subgraph` /
:func:`repro.core.densest_subgraph_directed`; tests assert the outputs
are identical.  All rounds are metered, and
:class:`MapReduceRunReport` groups counters by peeling pass so a
:class:`~repro.mapreduce.cost.CostModel` can regenerate Figure 6.7.

``fused=True`` replaces the degree + removal pipeline with a single
*fused* round per pass: the edge input stays static across passes and
the driver broadcasts the cumulative kill set as a per-round parameter
(``takes_params`` jobs), so the fused mapper filters dead-endpoint
edges and emits degree contributions in one pass — one round instead
of three (undirected) or two (directed), and no edge records travel
back to the driver.  Under a file-backed shuffle the fused columnar
drivers additionally spill the edge input once up front
(``runtime.spill_splits``) so every subsequent pass ships only the
kill set to the workers.  See DESIGN.md §13.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple, Union

import numpy as np

from .._tolerances import THRESHOLD_EPS
from .._validation import check_epsilon, check_positive_float
from ..core.result import DensestSubgraphResult, DirectedDensestSubgraphResult
from ..core.trace import DirectedPassRecord, PassRecord
from ..errors import MapReduceError, ParameterError
from ..graph.directed import DirectedGraph
from ..graph.undirected import UndirectedGraph
from .columnar import ColumnarKV
from .cost import CostModel
from .job import JobCounters, MapReduceJob
from .runtime import MapReduceRuntime, register_job

Node = Hashable
_MARKER = "$"

#: Engine names accepted by the drivers' ``engine=`` parameter.
ENGINES = ("auto", "python", "numpy")


# ----------------------------------------------------------------------
# Job definitions
# ----------------------------------------------------------------------
def _degree_mapper(u, edge):
    """Edge (u, (v, w)) -> one weight contribution per endpoint."""
    v, w = edge
    return [(u, w), (v, w)]


def _sum_reducer(key, values):
    """Classic sum reducer (doubles as the combiner)."""
    return [(key, sum(values))]


def _degree_mapper_batch(batch):
    """Batch twin of :func:`_degree_mapper`: 2 records per edge row."""
    w = batch.columns["w"]
    return ColumnarKV(
        np.concatenate([batch.keys, batch.columns["v"]]),
        {"w": np.concatenate([w, w])},
    )


def _sum_reducer_batch(grouped):
    """Batch twin of :func:`_sum_reducer`: one segment sum per key."""
    return ColumnarKV(grouped.keys, {"w": grouped.segment_sum("w")})


DEGREE_JOB = register_job(MapReduceJob(
    name="degree",
    mapper=_degree_mapper,
    reducer=_sum_reducer,
    combiner=_sum_reducer,
    mapper_batch=_degree_mapper_batch,
    reducer_batch=_sum_reducer_batch,
    combiner_batch=_sum_reducer_batch,
))


def _directed_degree_mapper(u, edge):
    """Edge (u, (v, w)) -> out-contribution for u, in-contribution for v."""
    v, w = edge
    return [(("out", u), w), (("in", v), w)]


def _directed_degree_mapper_batch(batch):
    """Batch twin of :func:`_directed_degree_mapper`.

    Int keys cannot carry the ``('out', u)`` tuple tag, so the side is
    packed into the key's low bit instead: ``2u`` for out, ``2v + 1``
    for in (the driver decodes with a shift).  The encoding is a
    bijection, so per-task key multiplicities — and hence all record
    counters — match the record form exactly.
    """
    w = batch.columns["w"]
    return ColumnarKV(
        np.concatenate([batch.keys * 2, batch.columns["v"] * 2 + 1]),
        {"w": np.concatenate([w, w])},
    )


DIRECTED_DEGREE_JOB = register_job(MapReduceJob(
    name="directed-degree",
    mapper=_directed_degree_mapper,
    reducer=_sum_reducer,
    combiner=_sum_reducer,
    mapper_batch=_directed_degree_mapper_batch,
    reducer_batch=_sum_reducer_batch,
    combiner_batch=_sum_reducer_batch,
))


def _identity_mapper(key, value):
    """Pass records through unchanged."""
    return [(key, value)]


def _identity_mapper_batch(batch):
    """Pass a batch through unchanged."""
    return batch


def _filter_and_pivot_reducer(key, values):
    """Drop all edges of a marked node; re-key survivors on the other endpoint.

    Values are either the marker string or ``(other, w)`` tuples; if any
    marker is present the whole group (all edges incident on ``key``
    from this side) is dropped.
    """
    if any(v == _MARKER for v in values):
        return []
    return [(other, (key, w)) for other, w in values]


def _filter_and_pivot_reducer_batch(grouped):
    """Batch twin of :func:`_filter_and_pivot_reducer`.

    Markers are a boolean ``m`` column; a marker row marks its whole
    group (it shares the group's key), so one segment-OR plus a repeat
    yields the row-level drop mask, and the survivors re-key on the
    ``v`` column with the old key moving into ``v``.
    """
    keep = ~grouped.expand(grouped.segment_any("m"))
    rows = grouped.rows
    new_keys = rows.columns["v"][keep]
    return ColumnarKV(
        new_keys,
        {
            "v": rows.keys[keep],
            "w": rows.columns["w"][keep],
            "m": np.zeros(new_keys.size, dtype=bool),
        },
    )


REMOVAL_JOB = register_job(MapReduceJob(
    name="remove-marked",
    mapper=_identity_mapper,
    reducer=_filter_and_pivot_reducer,
    mapper_batch=_identity_mapper_batch,
    reducer_batch=_filter_and_pivot_reducer_batch,
))


def _filter_keep_key_reducer(key, values):
    """Drop all edges of a marked node; keep survivors keyed as-is."""
    if any(v == _MARKER for v in values):
        return []
    return [(key, value) for value in values]


def _filter_keep_key_reducer_batch(grouped):
    """Batch twin of :func:`_filter_keep_key_reducer`."""
    keep = ~grouped.expand(grouped.segment_any("m"))
    return grouped.rows.take(keep)


REMOVAL_JOB_KEEP_KEY = register_job(MapReduceJob(
    name="remove-marked-keep-key",
    mapper=_identity_mapper,
    reducer=_filter_keep_key_reducer,
    mapper_batch=_identity_mapper_batch,
    reducer_batch=_filter_keep_key_reducer_batch,
))


def _pivot_mapper(key, value):
    """Re-key an edge (u, (v, w)) on its second endpoint -> (v, (u, w)).

    Marker records ``(r, '$')`` pass through unchanged so the reducer can
    filter on the pivoted key.
    """
    if value == _MARKER:
        return [(key, value)]
    v, w = value
    return [(v, (key, w))]


def _pivot_mapper_batch(batch):
    """Batch twin of :func:`_pivot_mapper`: swap key and ``v`` on edge
    rows, pass marker rows through unchanged."""
    m = batch.columns["m"]
    return ColumnarKV(
        np.where(m, batch.keys, batch.columns["v"]),
        {
            "v": np.where(m, batch.columns["v"], batch.keys),
            "w": batch.columns["w"],
            "m": m,
        },
    )


REMOVAL_JOB_PIVOT_SECOND = register_job(MapReduceJob(
    name="remove-marked-second",
    mapper=_pivot_mapper,
    reducer=_filter_and_pivot_reducer,
    mapper_batch=_pivot_mapper_batch,
    reducer_batch=_filter_and_pivot_reducer_batch,
))


# ----------------------------------------------------------------------
# Fused peel round: filter + degree in ONE map/reduce round per pass.
#
# The classic pipeline pays three shuffles per pass (degree round + two
# marker-filter rounds) and rewrites the whole edge set every pass.
# The fused job inverts the data flow: the edge input stays *static*
# across all passes, and the driver broadcasts the cumulative kill set
# (a small ``params`` value — the driver already keeps O(n) alive
# state) to the mappers, which drop dead-endpoint edges and emit the
# degree contributions of the survivors; the combiner sums partial
# degrees per map task, the reducer finishes the sum, and the driver
# makes the kill decision directly off the degree output.  Markers,
# pivot rounds, and the per-pass edge rewrite disappear — per-pass
# shuffle drops to the (combiner-compacted) degree records alone.
# ----------------------------------------------------------------------
def _in_sorted(values: "np.ndarray", table: "np.ndarray") -> "np.ndarray":
    """Vectorized membership of ``values`` in a sorted int64 ``table``
    (``table`` must be nonempty)."""
    pos = np.searchsorted(table, values)
    pos[pos == table.size] = 0
    return table[pos] == values


def _fused_degree_mapper(u, edge, dead):
    """Edge (u, (v, w)) -> degree contributions, unless an endpoint is
    in the broadcast kill set."""
    v, w = edge
    if u in dead or v in dead:
        return []
    return [(u, w), (v, w)]


def _fused_degree_mapper_batch(batch, dead):
    """Batch twin of :func:`_fused_degree_mapper`; ``dead`` is a sorted
    int64 label array (same membership the record twin's set tests)."""
    keys = batch.keys
    v = batch.columns["v"]
    w = batch.columns["w"]
    if dead.size:
        keep = ~(_in_sorted(keys, dead) | _in_sorted(v, dead))
        keys, v, w = keys[keep], v[keep], w[keep]
    return ColumnarKV(
        np.concatenate([keys, v]),
        {"w": np.concatenate([w, w])},
    )


FUSED_DEGREE_JOB = register_job(MapReduceJob(
    name="fused-degree",
    mapper=_fused_degree_mapper,
    reducer=_sum_reducer,
    combiner=_sum_reducer,
    mapper_batch=_fused_degree_mapper_batch,
    reducer_batch=_sum_reducer_batch,
    combiner_batch=_sum_reducer_batch,
    takes_params=True,
))


def _fused_directed_degree_mapper(u, edge, dead):
    """Directed fused twin: ``dead`` is a ``(dead_s, dead_t)`` pair;
    an edge survives while its source is in S and its target in T."""
    dead_s, dead_t = dead
    v, w = edge
    if u in dead_s or v in dead_t:
        return []
    return [(("out", u), w), (("in", v), w)]


def _fused_directed_degree_mapper_batch(batch, dead):
    """Batch twin of :func:`_fused_directed_degree_mapper` with the
    same bit-packed side keys as the classic directed degree job."""
    dead_s, dead_t = dead
    keys = batch.keys
    v = batch.columns["v"]
    w = batch.columns["w"]
    drop = np.zeros(keys.size, dtype=bool)
    if dead_s.size:
        drop |= _in_sorted(keys, dead_s)
    if dead_t.size:
        drop |= _in_sorted(v, dead_t)
    if drop.any():
        keep = ~drop
        keys, v, w = keys[keep], v[keep], w[keep]
    return ColumnarKV(
        np.concatenate([keys * 2, v * 2 + 1]),
        {"w": np.concatenate([w, w])},
    )


FUSED_DIRECTED_DEGREE_JOB = register_job(MapReduceJob(
    name="fused-directed-degree",
    mapper=_fused_directed_degree_mapper,
    reducer=_sum_reducer,
    combiner=_sum_reducer,
    mapper_batch=_fused_directed_degree_mapper_batch,
    reducer_batch=_sum_reducer_batch,
    combiner_batch=_sum_reducer_batch,
    takes_params=True,
))


# ----------------------------------------------------------------------
# Engine resolution and columnar input construction
# ----------------------------------------------------------------------
#: Columnar-eligible labels must leave one bit of int64 headroom so the
#: directed degree job can bit-pack the side tag (``2u`` / ``2v + 1``)
#: without overflow.
_LABEL_BOUND = 2**62


def _int_labeled(graph) -> bool:
    """True when every node label fits the columnar int64 key space
    (with the bit-packing headroom).  CSR snapshots with an integer
    label array are decided by one vectorized min/max instead of a
    per-element scan."""
    from ..kernels import CSRDigraph, CSRGraph

    if isinstance(graph, (CSRGraph, CSRDigraph)):
        arr = np.asarray(graph.labels)
        if arr.dtype.kind in "iu":
            if arr.size == 0:
                return True
            return -_LABEL_BOUND <= int(arr.min()) and int(arr.max()) < _LABEL_BOUND
        labels = graph.labels
    else:
        labels = graph.nodes()
    return all(
        isinstance(node, int)
        and not isinstance(node, bool)
        and -_LABEL_BOUND <= node < _LABEL_BOUND
        for node in labels
    )


def resolve_mr_engine(engine: str, graph) -> str:
    """Resolve an ``engine=`` argument to ``"python"`` or ``"numpy"``.

    The columnar path keys shuffles on int64 node labels, so unlike the
    core peels (which factorize any labels into dense indices up
    front), ``"auto"`` requires the graph to be int-labeled; exotic
    labels stay on the record path.  ``engine="numpy"`` on an
    ineligible graph raises instead of silently degrading.
    """
    if engine not in ENGINES:
        raise ParameterError(f"engine must be one of {ENGINES}, got {engine!r}")
    if engine == "python":
        return "python"
    eligible = _int_labeled(graph)
    if engine == "numpy":
        if not eligible:
            raise MapReduceError(
                "engine='numpy' needs int node labels with |label| < 2**62 "
                "(columnar batches key the shuffle on int64 labels, and the "
                "directed degree job bit-packs a side tag); relabel or use "
                "engine='python'"
            )
        return "numpy"
    return "numpy" if eligible else "python"


def _edge_batch(graph) -> "ColumnarKV":
    """The graph's edges as a columnar batch keyed on the first endpoint.

    Columns: ``v`` (other endpoint label), ``w`` (weight), ``m``
    (marker flag, all False).  CSR snapshots are translated with two
    vectorized label gathers; dict graphs take one counted
    ``np.fromiter`` pass over ``weighted_edges()``, preserving the
    iteration order the record drivers see so the two engines assign
    identical records to identical tasks.
    """
    from ..kernels import CSRDigraph, CSRGraph

    if isinstance(graph, (CSRGraph, CSRDigraph)):
        ui, vi, w = graph.edge_arrays()
        labels_arr = np.asarray(graph.labels, dtype=np.int64)
        keys = labels_arr[ui]
        v = labels_arr[vi]
    else:
        m = graph.num_edges
        dtype = np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])
        arr = np.fromiter(graph.weighted_edges(), dtype=dtype, count=m)
        keys, v, w = arr["u"], arr["v"], arr["w"].copy()
    return ColumnarKV(keys, {"v": v, "w": w, "m": np.zeros(keys.size, dtype=bool)})


def _fused_edge_batch(edges: "ColumnarKV") -> "ColumnarKV":
    """The fused jobs' static input: edge rows without the marker
    column (fused passes never inject markers, so the bool column
    would be dead weight in every split shipped or spilled)."""
    return ColumnarKV(
        edges.keys, {"v": edges.columns["v"], "w": edges.columns["w"]}
    )


def _fused_columnar_input(edges: "ColumnarKV", runtime: MapReduceRuntime):
    """The fused drivers' job input and (optional) spill handle.

    Under the file-backed shuffle the static edge batch is spilled to
    disk once, so each pass ships only the kill-set broadcast and run
    manifests through the driver; otherwise the in-memory batch is
    reused directly.  The caller must ``cleanup()`` a non-None handle.
    """
    fused_edges = _fused_edge_batch(edges)
    if runtime.uses_file_shuffle:
        spilled = runtime.spill_splits(fused_edges, tag="peel-input")
        return spilled, spilled
    return fused_edges, None


def _marker_batch(marked_labels: "np.ndarray") -> "ColumnarKV":
    """Marker rows ``⟨r; m=True⟩`` for the nodes slated for removal."""
    count = marked_labels.size
    return ColumnarKV(
        marked_labels,
        {
            "v": np.full(count, -1, dtype=np.int64),
            "w": np.zeros(count, dtype=np.float64),
            "m": np.ones(count, dtype=bool),
        },
    )


def _with_markers(edges: "ColumnarKV", marked_labels: "np.ndarray") -> "ColumnarKV":
    """Edges plus trailing marker rows (the record path's ``edges + markers``)."""
    if marked_labels.size == 0:
        return edges
    return ColumnarKV.concat([edges, _marker_batch(marked_labels)])


def _columnar_state(graph):
    """Shared prologue of the columnar drivers.

    Returns ``(labels, labels_arr, order, sorted_labels, edges)`` — the
    label universe, its int64 array and searchsorted index (for
    scattering job outputs back onto dense driver state), and the
    initial edge batch.
    """
    from ..kernels.csr import build_label_index

    labels = list(graph.nodes())
    if not labels:
        raise MapReduceError("graph has no nodes")
    labels_arr = np.asarray(labels, dtype=np.int64)
    order, sorted_labels = build_label_index(labels_arr)
    return labels, labels_arr, order, sorted_labels, _edge_batch(graph)


def _scatter_by_label(order, sorted_labels, n, keys, values) -> "np.ndarray":
    """Dense length-``n`` float array holding ``values`` at the driver
    indices of the ``keys`` labels (zeros elsewhere)."""
    from ..kernels.csr import lookup_indices

    out = np.zeros(n, dtype=np.float64)
    if keys.size:
        out[lookup_indices(order, sorted_labels, keys)] = values
    return out


# ----------------------------------------------------------------------
# Run report
# ----------------------------------------------------------------------
@dataclass
class MapReduceRunReport:
    """Result of an MR peeling run plus per-pass round counters.

    Attributes
    ----------
    result:
        The algorithm result (undirected or directed variant).
    rounds_per_pass:
        ``rounds_per_pass[p]`` lists the :class:`JobCounters` of every
        MapReduce round executed during peeling pass p.
    """

    result: Union[DensestSubgraphResult, DirectedDensestSubgraphResult]
    rounds_per_pass: List[List[JobCounters]]

    def pass_times(self, cost_model: Optional[CostModel] = None) -> List[float]:
        """Simulated per-pass wall-clock seconds (Figure 6.7's series)."""
        model = cost_model if cost_model is not None else CostModel()
        return model.pass_seconds(self.rounds_per_pass)

    def total_rounds(self) -> int:
        """Total MapReduce rounds across the run."""
        return sum(len(rounds) for rounds in self.rounds_per_pass)

    def total_time(self, cost_model: Optional[CostModel] = None) -> float:
        """Simulated total wall-clock seconds."""
        return sum(self.pass_times(cost_model))


# ----------------------------------------------------------------------
# Undirected driver (Algorithm 1 in MapReduce)
# ----------------------------------------------------------------------
def mr_densest_subgraph(
    graph: UndirectedGraph,
    epsilon: float = 0.5,
    *,
    runtime: Optional[MapReduceRuntime] = None,
    engine: str = "auto",
    fused: bool = False,
) -> MapReduceRunReport:
    """Algorithm 1 as a chain of MapReduce rounds (§5.2).

    Per pass: one degree round, then the two-round removal filter.
    Returns the same node set, density, and per-pass trace as
    :func:`repro.core.densest_subgraph`.  ``engine`` selects the
    runtime path: ``"python"`` (record-at-a-time), ``"numpy"``
    (columnar batches), or ``"auto"`` (columnar when the graph is
    int-labeled and numpy is importable).

    ``fused=True`` collapses each pass to ONE round: the edge input
    stays static, the driver broadcasts the cumulative kill set as job
    params, and the fused job filters + counts degrees in the mapper
    (combiner-compacted) — same node set, density, threshold
    decisions, and pass count as the classic three-round pipeline
    (bit-identical for dyadic weights, the usual float-reassociation
    caveat otherwise) at a fraction of the shuffled bytes.
    """
    epsilon = check_epsilon(epsilon)
    if runtime is None:
        runtime = MapReduceRuntime()
    if resolve_mr_engine(engine, graph) == "numpy":
        return _mr_densest_subgraph_columnar(graph, epsilon, runtime, fused=fused)
    labels = list(graph.nodes())
    if not labels:
        raise MapReduceError("graph has no nodes")
    alive: Dict[Node, bool] = {u: True for u in labels}
    remaining = len(labels)
    edges: List[Tuple[Node, Tuple[Node, float]]] = [
        (u, (v, w)) for u, v, w in graph.weighted_edges()
    ]
    dead: set = set()

    best_set = list(labels)
    best_density: Optional[float] = None
    best_pass = 0
    factor = 2.0 * (1.0 + epsilon)
    pending: Optional[dict] = None
    trace: List[PassRecord] = []
    rounds_per_pass: List[List[JobCounters]] = []
    pass_index = 0

    while remaining > 0:
        pass_index += 1
        pass_rounds: List[JobCounters] = []

        # Round 1: degrees (and, via their sum, the surviving weight).
        # Fused mode filters the static edge set against the broadcast
        # kill set inside the same round.
        if fused:
            degree_pairs, counters = runtime.run(
                FUSED_DEGREE_JOB, edges, params=frozenset(dead)
            )
        else:
            degree_pairs, counters = runtime.run(DEGREE_JOB, edges)
        pass_rounds.append(counters)
        degrees: Dict[Node, float] = dict(degree_pairs)
        weight = sum(degrees.values()) / 2.0
        density = weight / remaining

        if pending is not None:
            trace.append(
                PassRecord(edges_after=weight, density_after=density, **pending)
            )
            if density > best_density:  # type: ignore[operator]
                best_density = density
                best_set = [u for u in labels if alive[u]]
                best_pass = pending["pass_index"]
        if best_density is None:
            best_density = density

        threshold = factor * density
        to_remove = [
            u
            for u in labels
            if alive[u] and degrees.get(u, 0.0) <= threshold + THRESHOLD_EPS
        ]

        pending = {
            "pass_index": pass_index,
            "nodes_before": remaining,
            "edges_before": weight,
            "density_before": density,
            "threshold": threshold,
            "removed": len(to_remove),
            "nodes_after": remaining - len(to_remove),
        }
        for u in to_remove:
            alive[u] = False
        remaining -= len(to_remove)

        if fused:
            # No removal rounds: next pass's mapper filter sees the
            # grown kill set instead of a rewritten edge list.
            dead.update(to_remove)
        else:
            # Rounds 2-3: drop edges incident to removed nodes.  Markers
            # are injected into the job input; the first round filters on
            # the first endpoint and re-keys on the second, the second
            # round filters on the (new) first key and re-keys back.
            markers = [(u, _MARKER) for u in to_remove]
            half_filtered, counters = runtime.run(REMOVAL_JOB, edges + markers)
            pass_rounds.append(counters)
            edges, counters = runtime.run(REMOVAL_JOB, half_filtered + markers)
            pass_rounds.append(counters)
        rounds_per_pass.append(pass_rounds)

    if pending is not None:
        trace.append(PassRecord(edges_after=0.0, density_after=0.0, **pending))

    result = DensestSubgraphResult(
        nodes=frozenset(best_set),
        density=best_density if best_density is not None else 0.0,
        passes=pass_index,
        epsilon=epsilon,
        best_pass=best_pass,
        trace=tuple(trace),
    )
    return MapReduceRunReport(result=result, rounds_per_pass=rounds_per_pass)


def _mr_densest_subgraph_columnar(
    graph, epsilon: float, runtime: MapReduceRuntime, fused: bool = False
) -> MapReduceRunReport:
    """Columnar twin of :func:`mr_densest_subgraph`.

    Identical round structure and threshold decisions; the driver-side
    state is an alive bitmap plus a dense degree array scattered from
    the degree job's output batch.  Fused mode additionally pre-spills
    the static edge input once under a file-backed shuffle, so every
    pass ships only the sorted kill-set broadcast.
    """
    labels, labels_arr, order, sorted_labels, edges = _columnar_state(graph)
    n = len(labels)
    alive = np.ones(n, dtype=bool)
    remaining = n

    best_mask = alive.copy()
    best_density: Optional[float] = None
    best_pass = 0
    factor = 2.0 * (1.0 + epsilon)
    pending: Optional[dict] = None
    trace: List[PassRecord] = []
    rounds_per_pass: List[List[JobCounters]] = []
    pass_index = 0

    job_input = spilled = None
    dead_sorted = np.empty(0, dtype=np.int64)
    if fused:
        job_input, spilled = _fused_columnar_input(edges, runtime)

    try:
        while remaining > 0:
            pass_index += 1
            pass_rounds: List[JobCounters] = []

            if fused:
                degree_out, counters = runtime.run(
                    FUSED_DEGREE_JOB, job_input, params=dead_sorted
                )
            else:
                degree_out, counters = runtime.run(DEGREE_JOB, edges)
            pass_rounds.append(counters)
            degrees = _scatter_by_label(
                order, sorted_labels, n, degree_out.keys, degree_out.columns["w"]
            )
            weight = float(degrees.sum()) / 2.0
            density = weight / remaining

            if pending is not None:
                trace.append(
                    PassRecord(edges_after=weight, density_after=density, **pending)
                )
                if density > best_density:  # type: ignore[operator]
                    best_density = density
                    best_mask = alive.copy()
                    best_pass = pending["pass_index"]
            if best_density is None:
                best_density = density

            threshold = factor * density
            remove_mask = alive & (degrees <= threshold + THRESHOLD_EPS)
            removed = int(remove_mask.sum())

            pending = {
                "pass_index": pass_index,
                "nodes_before": remaining,
                "edges_before": weight,
                "density_before": density,
                "threshold": threshold,
                "removed": removed,
                "nodes_after": remaining - removed,
            }
            alive &= ~remove_mask
            remaining -= removed

            if fused:
                dead_sorted = np.sort(labels_arr[~alive])
            else:
                marked = labels_arr[remove_mask]
                half_filtered, counters = runtime.run(
                    REMOVAL_JOB, _with_markers(edges, marked)
                )
                pass_rounds.append(counters)
                edges, counters = runtime.run(
                    REMOVAL_JOB, _with_markers(half_filtered, marked)
                )
                pass_rounds.append(counters)
            rounds_per_pass.append(pass_rounds)
    finally:
        if spilled is not None:
            spilled.cleanup()

    if pending is not None:
        trace.append(PassRecord(edges_after=0.0, density_after=0.0, **pending))

    result = DensestSubgraphResult(
        nodes=frozenset(labels[i] for i in np.flatnonzero(best_mask)),
        density=best_density if best_density is not None else 0.0,
        passes=pass_index,
        epsilon=epsilon,
        best_pass=best_pass,
        trace=tuple(trace),
    )
    return MapReduceRunReport(result=result, rounds_per_pass=rounds_per_pass)


# ----------------------------------------------------------------------
# Size-constrained driver (Algorithm 2 in MapReduce)
# ----------------------------------------------------------------------
def mr_densest_subgraph_atleast_k(
    graph: UndirectedGraph,
    k: int,
    epsilon: float = 0.5,
    *,
    runtime: Optional[MapReduceRuntime] = None,
    engine: str = "auto",
    fused: bool = False,
) -> MapReduceRunReport:
    """Algorithm 2 as a chain of MapReduce rounds.

    Identical round structure to :func:`mr_densest_subgraph` (degree
    round + two removal rounds per pass); the driver restricts the
    removal batch to the ε/(1+ε)·|S| lowest-degree members of the
    threshold set and stops once |S| < k, matching
    :func:`repro.core.densest_subgraph_atleast_k`.  ``engine`` and
    ``fused`` select the runtime path as in
    :func:`mr_densest_subgraph` (fused: one kill-set-broadcast round
    per pass, including the final valuation round).
    """
    from .._validation import check_positive_int

    epsilon = check_epsilon(epsilon)
    check_positive_int(k, "k")
    if runtime is None:
        runtime = MapReduceRuntime()
    if resolve_mr_engine(engine, graph) == "numpy":
        return _mr_densest_subgraph_atleast_k_columnar(
            graph, k, epsilon, runtime, fused=fused
        )
    labels = list(graph.nodes())
    if not labels:
        raise MapReduceError("graph has no nodes")
    if k > len(labels):
        raise MapReduceError(f"k={k} exceeds the graph's {len(labels)} nodes")
    alive: Dict[Node, bool] = {u: True for u in labels}
    remaining = len(labels)
    edges: List[Tuple[Node, Tuple[Node, float]]] = [
        (u, (v, w)) for u, v, w in graph.weighted_edges()
    ]
    dead: set = set()

    best_set = list(labels)
    best_density: Optional[float] = None
    best_pass = 0
    factor = 2.0 * (1.0 + epsilon)
    batch_fraction = epsilon / (1.0 + epsilon)
    pending: Optional[dict] = None
    trace: List[PassRecord] = []
    rounds_per_pass: List[List[JobCounters]] = []
    pass_index = 0

    while remaining >= k and remaining > 0:
        pass_index += 1
        pass_rounds: List[JobCounters] = []
        if fused:
            degree_pairs, counters = runtime.run(
                FUSED_DEGREE_JOB, edges, params=frozenset(dead)
            )
        else:
            degree_pairs, counters = runtime.run(DEGREE_JOB, edges)
        pass_rounds.append(counters)
        degrees: Dict[Node, float] = dict(degree_pairs)
        weight = sum(degrees.values()) / 2.0
        density = weight / remaining

        if pending is not None:
            trace.append(
                PassRecord(edges_after=weight, density_after=density, **pending)
            )
            if density > best_density:  # type: ignore[operator]
                best_density = density
                best_set = [u for u in labels if alive[u]]
                best_pass = pending["pass_index"]
        if best_density is None:
            best_density = density

        threshold = factor * density
        candidates = [
            u
            for u in labels
            if alive[u] and degrees.get(u, 0.0) <= threshold + THRESHOLD_EPS
        ]
        batch_size = min(
            len(candidates), max(1, math.floor(batch_fraction * remaining))
        )
        candidates.sort(key=lambda u: degrees.get(u, 0.0))
        to_remove = candidates[:batch_size]

        pending = {
            "pass_index": pass_index,
            "nodes_before": remaining,
            "edges_before": weight,
            "density_before": density,
            "threshold": threshold,
            "removed": len(to_remove),
            "nodes_after": remaining - len(to_remove),
        }
        for u in to_remove:
            alive[u] = False
        remaining -= len(to_remove)

        if fused:
            dead.update(to_remove)
        else:
            markers = [(u, _MARKER) for u in to_remove]
            half_filtered, counters = runtime.run(REMOVAL_JOB, edges + markers)
            pass_rounds.append(counters)
            edges, counters = runtime.run(REMOVAL_JOB, half_filtered + markers)
            pass_rounds.append(counters)
        rounds_per_pass.append(pass_rounds)

    if pending is not None:
        if remaining == 0:
            edges_after, density_after = 0.0, 0.0
        else:
            # |S| fell below k; value the final state with one more
            # degree round so the trace is complete (cannot win).
            if fused:
                degree_pairs, counters = runtime.run(
                    FUSED_DEGREE_JOB, edges, params=frozenset(dead)
                )
            else:
                degree_pairs, counters = runtime.run(DEGREE_JOB, edges)
            if rounds_per_pass:
                rounds_per_pass[-1].append(counters)
            edges_after = sum(dict(degree_pairs).values()) / 2.0
            density_after = edges_after / remaining
            if remaining >= k and density_after > (best_density or 0.0):
                best_density = density_after
                best_set = [u for u in labels if alive[u]]
                best_pass = pending["pass_index"]
        trace.append(
            PassRecord(edges_after=edges_after, density_after=density_after, **pending)
        )

    result = DensestSubgraphResult(
        nodes=frozenset(best_set),
        density=best_density if best_density is not None else 0.0,
        passes=pass_index,
        epsilon=epsilon,
        best_pass=best_pass,
        trace=tuple(trace),
    )
    return MapReduceRunReport(result=result, rounds_per_pass=rounds_per_pass)


def _mr_densest_subgraph_atleast_k_columnar(
    graph, k: int, epsilon: float, runtime: MapReduceRuntime, fused: bool = False
) -> MapReduceRunReport:
    """Columnar twin of :func:`mr_densest_subgraph_atleast_k`."""
    labels, labels_arr, order, sorted_labels, edges = _columnar_state(graph)
    n = len(labels)
    if k > n:
        raise MapReduceError(f"k={k} exceeds the graph's {n} nodes")
    alive = np.ones(n, dtype=bool)
    remaining = n

    best_mask = alive.copy()
    best_density: Optional[float] = None
    best_pass = 0
    factor = 2.0 * (1.0 + epsilon)
    batch_fraction = epsilon / (1.0 + epsilon)
    pending: Optional[dict] = None
    trace: List[PassRecord] = []
    rounds_per_pass: List[List[JobCounters]] = []
    pass_index = 0

    job_input = spilled = None
    dead_sorted = np.empty(0, dtype=np.int64)
    if fused:
        job_input, spilled = _fused_columnar_input(edges, runtime)

    def _scatter_degrees(degree_out) -> "np.ndarray":
        return _scatter_by_label(
            order, sorted_labels, n, degree_out.keys, degree_out.columns["w"]
        )

    def _degree_round():
        if fused:
            return runtime.run(FUSED_DEGREE_JOB, job_input, params=dead_sorted)
        return runtime.run(DEGREE_JOB, edges)

    try:
        while remaining >= k and remaining > 0:
            pass_index += 1
            pass_rounds: List[JobCounters] = []
            degree_out, counters = _degree_round()
            pass_rounds.append(counters)
            degrees = _scatter_degrees(degree_out)
            weight = float(degrees.sum()) / 2.0
            density = weight / remaining

            if pending is not None:
                trace.append(
                    PassRecord(edges_after=weight, density_after=density, **pending)
                )
                if density > best_density:  # type: ignore[operator]
                    best_density = density
                    best_mask = alive.copy()
                    best_pass = pending["pass_index"]
            if best_density is None:
                best_density = density

            threshold = factor * density
            candidate_idx = np.flatnonzero(
                alive & (degrees <= threshold + THRESHOLD_EPS)
            )
            batch_size = min(
                candidate_idx.size, max(1, math.floor(batch_fraction * remaining))
            )
            # Stable sort by degree keeps the record driver's label-order
            # tie-break, so both engines remove the identical batch.
            by_degree = np.argsort(degrees[candidate_idx], kind="stable")
            remove_idx = candidate_idx[by_degree[:batch_size]]

            pending = {
                "pass_index": pass_index,
                "nodes_before": remaining,
                "edges_before": weight,
                "density_before": density,
                "threshold": threshold,
                "removed": int(remove_idx.size),
                "nodes_after": remaining - int(remove_idx.size),
            }
            alive[remove_idx] = False
            remaining -= int(remove_idx.size)

            if fused:
                dead_sorted = np.sort(labels_arr[~alive])
            else:
                marked = labels_arr[remove_idx]
                half_filtered, counters = runtime.run(
                    REMOVAL_JOB, _with_markers(edges, marked)
                )
                pass_rounds.append(counters)
                edges, counters = runtime.run(
                    REMOVAL_JOB, _with_markers(half_filtered, marked)
                )
                pass_rounds.append(counters)
            rounds_per_pass.append(pass_rounds)

        if pending is not None:
            if remaining == 0:
                edges_after, density_after = 0.0, 0.0
            else:
                degree_out, counters = _degree_round()
                if rounds_per_pass:
                    rounds_per_pass[-1].append(counters)
                edges_after = float(_scatter_degrees(degree_out).sum()) / 2.0
                density_after = edges_after / remaining
                if remaining >= k and density_after > (best_density or 0.0):
                    best_density = density_after
                    best_mask = alive.copy()
                    best_pass = pending["pass_index"]
            trace.append(
                PassRecord(
                    edges_after=edges_after, density_after=density_after, **pending
                )
            )
    finally:
        if spilled is not None:
            spilled.cleanup()

    result = DensestSubgraphResult(
        nodes=frozenset(labels[i] for i in np.flatnonzero(best_mask)),
        density=best_density if best_density is not None else 0.0,
        passes=pass_index,
        epsilon=epsilon,
        best_pass=best_pass,
        trace=tuple(trace),
    )
    return MapReduceRunReport(result=result, rounds_per_pass=rounds_per_pass)


# ----------------------------------------------------------------------
# Directed driver (Algorithm 3 in MapReduce)
# ----------------------------------------------------------------------
def mr_densest_subgraph_directed(
    graph: DirectedGraph,
    ratio: float = 1.0,
    epsilon: float = 0.5,
    *,
    runtime: Optional[MapReduceRuntime] = None,
    engine: str = "auto",
    fused: bool = False,
) -> MapReduceRunReport:
    """Algorithm 3 as a chain of MapReduce rounds.

    Per pass: one directed-degree round plus one removal round on the
    peeled side (S-peels filter on the first endpoint, T-peels pivot
    and filter on the second).  Returns the same pair and trace as
    :func:`repro.core.densest_subgraph_directed`.  ``engine`` selects
    the runtime path as in :func:`mr_densest_subgraph`; ``fused``
    collapses each pass to a single degree round that broadcasts the
    per-side kill sets instead of rewriting the edge list.
    """
    epsilon = check_epsilon(epsilon)
    check_positive_float(ratio, "ratio")
    if runtime is None:
        runtime = MapReduceRuntime()
    if resolve_mr_engine(engine, graph) == "numpy":
        return _mr_densest_subgraph_directed_columnar(
            graph, ratio, epsilon, runtime, fused=fused
        )
    labels = list(graph.nodes())
    if not labels:
        raise MapReduceError("graph has no nodes")
    in_s: Dict[Node, bool] = {u: True for u in labels}
    in_t: Dict[Node, bool] = {u: True for u in labels}
    s_size = t_size = len(labels)
    edges: List[Tuple[Node, Tuple[Node, float]]] = [
        (u, (v, w)) for u, v, w in graph.weighted_edges()
    ]
    dead_s: set = set()
    dead_t: set = set()

    best_s = list(labels)
    best_t = list(labels)
    best_density: Optional[float] = None
    best_pass = 0
    one_plus_eps = 1.0 + epsilon
    pending: Optional[dict] = None
    trace: List[DirectedPassRecord] = []
    rounds_per_pass: List[List[JobCounters]] = []
    pass_index = 0

    while s_size > 0 and t_size > 0:
        pass_index += 1
        pass_rounds: List[JobCounters] = []

        if fused:
            degree_pairs, counters = runtime.run(
                FUSED_DIRECTED_DEGREE_JOB,
                edges,
                params=(frozenset(dead_s), frozenset(dead_t)),
            )
        else:
            degree_pairs, counters = runtime.run(DIRECTED_DEGREE_JOB, edges)
        pass_rounds.append(counters)
        out_to_t: Dict[Node, float] = {}
        in_from_s: Dict[Node, float] = {}
        weight = 0.0
        for (kind, node), value in degree_pairs:
            if kind == "out":
                out_to_t[node] = value
                weight += value
            else:
                in_from_s[node] = value
        density = weight / math.sqrt(s_size * t_size)

        if pending is not None:
            trace.append(
                DirectedPassRecord(
                    edges_after=weight, density_after=density, **pending
                )
            )
            if density > best_density:  # type: ignore[operator]
                best_density = density
                best_s = [u for u in labels if in_s[u]]
                best_t = [u for u in labels if in_t[u]]
                best_pass = pending["pass_index"]
        if best_density is None:
            best_density = density

        peel_s = s_size / t_size >= ratio
        if peel_s:
            threshold = one_plus_eps * weight / s_size
            to_remove = [
                u
                for u in labels
                if in_s[u] and out_to_t.get(u, 0.0) <= threshold + THRESHOLD_EPS
            ]
            side = "S"
        else:
            threshold = one_plus_eps * weight / t_size
            to_remove = [
                u
                for u in labels
                if in_t[u] and in_from_s.get(u, 0.0) <= threshold + THRESHOLD_EPS
            ]
            side = "T"

        pending = {
            "pass_index": pass_index,
            "side": side,
            "s_before": s_size,
            "t_before": t_size,
            "edges_before": weight,
            "density_before": density,
            "threshold": threshold,
            "removed": len(to_remove),
            "s_after": s_size - len(to_remove) if side == "S" else s_size,
            "t_after": t_size - len(to_remove) if side == "T" else t_size,
        }
        if side == "S":
            for u in to_remove:
                in_s[u] = False
            s_size -= len(to_remove)
            if fused:
                dead_s.update(to_remove)
            else:
                # Edges are keyed on the first endpoint already: one
                # round filters the marked sources, keeping the key
                # orientation.
                markers = [(u, _MARKER) for u in to_remove]
                edges, counters = runtime.run(
                    REMOVAL_JOB_KEEP_KEY, edges + markers
                )
                pass_rounds.append(counters)
        else:
            for u in to_remove:
                in_t[u] = False
            t_size -= len(to_remove)
            if fused:
                dead_t.update(to_remove)
            else:
                # Pivot onto the second endpoint in the mapper, filter
                # the marked targets, and the reducer re-keys survivors
                # back on the first endpoint — one round.
                markers = [(u, _MARKER) for u in to_remove]
                edges, counters = runtime.run(
                    REMOVAL_JOB_PIVOT_SECOND, edges + markers
                )
                pass_rounds.append(counters)
        rounds_per_pass.append(pass_rounds)

    if pending is not None:
        trace.append(
            DirectedPassRecord(edges_after=0.0, density_after=0.0, **pending)
        )

    result = DirectedDensestSubgraphResult(
        s_nodes=frozenset(best_s),
        t_nodes=frozenset(best_t),
        density=best_density if best_density is not None else 0.0,
        ratio=ratio,
        passes=pass_index,
        epsilon=epsilon,
        best_pass=best_pass,
        trace=tuple(trace),
    )
    return MapReduceRunReport(result=result, rounds_per_pass=rounds_per_pass)


def _mr_densest_subgraph_directed_columnar(
    graph, ratio: float, epsilon: float, runtime: MapReduceRuntime, fused: bool = False
) -> MapReduceRunReport:
    """Columnar twin of :func:`mr_densest_subgraph_directed`.

    The degree job's side-tagged keys come back bit-packed (``2u`` /
    ``2v + 1``); one shift and parity test splits them into the two
    counter arrays.
    """
    labels, labels_arr, order, sorted_labels, edges = _columnar_state(graph)
    n = len(labels)
    in_s = np.ones(n, dtype=bool)
    in_t = np.ones(n, dtype=bool)
    s_size = t_size = n

    best_s_mask = in_s.copy()
    best_t_mask = in_t.copy()
    best_density: Optional[float] = None
    best_pass = 0
    one_plus_eps = 1.0 + epsilon
    pending: Optional[dict] = None
    trace: List[DirectedPassRecord] = []
    rounds_per_pass: List[List[JobCounters]] = []
    pass_index = 0

    job_input = spilled = None
    dead_s_sorted = np.empty(0, dtype=np.int64)
    dead_t_sorted = np.empty(0, dtype=np.int64)
    if fused:
        job_input, spilled = _fused_columnar_input(edges, runtime)

    try:
        while s_size > 0 and t_size > 0:
            pass_index += 1
            pass_rounds: List[JobCounters] = []

            if fused:
                degree_out, counters = runtime.run(
                    FUSED_DIRECTED_DEGREE_JOB,
                    job_input,
                    params=(dead_s_sorted, dead_t_sorted),
                )
            else:
                degree_out, counters = runtime.run(DIRECTED_DEGREE_JOB, edges)
            pass_rounds.append(counters)
            keys = degree_out.keys
            values = degree_out.columns["w"]
            is_in = (keys & 1).astype(bool)
            node_labels = keys >> 1
            out_sel = ~is_in
            out_to_t = _scatter_by_label(
                order, sorted_labels, n, node_labels[out_sel], values[out_sel]
            )
            in_from_s = _scatter_by_label(
                order, sorted_labels, n, node_labels[is_in], values[is_in]
            )
            weight = float(values[out_sel].sum())
            density = weight / math.sqrt(s_size * t_size)

            if pending is not None:
                trace.append(
                    DirectedPassRecord(
                        edges_after=weight, density_after=density, **pending
                    )
                )
                if density > best_density:  # type: ignore[operator]
                    best_density = density
                    best_s_mask = in_s.copy()
                    best_t_mask = in_t.copy()
                    best_pass = pending["pass_index"]
            if best_density is None:
                best_density = density

            peel_s = s_size / t_size >= ratio
            if peel_s:
                threshold = one_plus_eps * weight / s_size
                remove_mask = in_s & (out_to_t <= threshold + THRESHOLD_EPS)
                side = "S"
            else:
                threshold = one_plus_eps * weight / t_size
                remove_mask = in_t & (in_from_s <= threshold + THRESHOLD_EPS)
                side = "T"
            removed = int(remove_mask.sum())

            pending = {
                "pass_index": pass_index,
                "side": side,
                "s_before": s_size,
                "t_before": t_size,
                "edges_before": weight,
                "density_before": density,
                "threshold": threshold,
                "removed": removed,
                "s_after": s_size - removed if side == "S" else s_size,
                "t_after": t_size - removed if side == "T" else t_size,
            }
            if side == "S":
                in_s &= ~remove_mask
                s_size -= removed
                if fused:
                    dead_s_sorted = np.sort(labels_arr[~in_s])
                else:
                    edges, counters = runtime.run(
                        REMOVAL_JOB_KEEP_KEY,
                        _with_markers(edges, labels_arr[remove_mask]),
                    )
                    pass_rounds.append(counters)
            else:
                in_t &= ~remove_mask
                t_size -= removed
                if fused:
                    dead_t_sorted = np.sort(labels_arr[~in_t])
                else:
                    edges, counters = runtime.run(
                        REMOVAL_JOB_PIVOT_SECOND,
                        _with_markers(edges, labels_arr[remove_mask]),
                    )
                    pass_rounds.append(counters)
            rounds_per_pass.append(pass_rounds)

        if pending is not None:
            trace.append(
                DirectedPassRecord(edges_after=0.0, density_after=0.0, **pending)
            )
    finally:
        if spilled is not None:
            spilled.cleanup()

    result = DirectedDensestSubgraphResult(
        s_nodes=frozenset(labels[i] for i in np.flatnonzero(best_s_mask)),
        t_nodes=frozenset(labels[i] for i in np.flatnonzero(best_t_mask)),
        density=best_density if best_density is not None else 0.0,
        ratio=ratio,
        passes=pass_index,
        epsilon=epsilon,
        best_pass=best_pass,
        trace=tuple(trace),
    )
    return MapReduceRunReport(result=result, rounds_per_pass=rounds_per_pass)
