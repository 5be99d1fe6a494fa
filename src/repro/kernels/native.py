"""The compiled peeling tier: numba or C under a common wrapper.

This module exposes the same four entry points as
:mod:`repro.kernels.bucketq` (``peel_undirected`` / ``peel_atleast_k``
/ ``peel_directed`` / ``peel_directed_sweep``) backed by whichever
compiled backend is available:

* **numba** — ``@njit(cache=True)`` kernels in
  :mod:`repro.kernels._numba_peel` (preferred when importable);
* **c** — ``peel_kernels.c`` compiled on first use by
  :mod:`repro.kernels._cext` with the system C toolchain and called
  through ctypes (which releases the GIL for the whole peel).

Both backends run the identical bucket-list algorithm, so which one
serves a request never changes the answer.  When neither is available
the wrappers fall back to :mod:`repro.kernels.bucketq` transparently;
``available_backend()`` reports what a call would actually use.

Environment knobs:

``REPRO_NATIVE``
    ``auto`` (default) — prefer numba, then C; ``numba`` / ``c`` —
    require that backend only; ``off`` — disable the compiled tier
    (wrappers become bucketq pass-throughs).  The same switch gates the
    C count and scatter passes of ``CSRGraph``/``CSRDigraph.from_shards``
    (see :func:`c_library`).
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .._tolerances import THRESHOLD_EPS
from ..core.trace import DirectedPassRecord, PassRecord
from . import bucketq
from .bucketq import NUM_BUCKETS
from .csr import CSRDigraph, CSRGraph
from .peel import DirectedPeelOutcome, PeelOutcome


class _NumbaBackend:
    """Adapter over the @njit kernels (array-native call convention)."""

    name = "numba"

    def __init__(self) -> None:
        from . import _numba_peel

        self._mod = _numba_peel

    def peel_undirected(self, *args, ptrs=None):
        return self._mod.peel_undirected(*args)

    def peel_atleast_k(self, *args, ptrs=None):
        return self._mod.peel_atleast_k(*args)

    def peel_directed(self, *args, ptrs=None):
        return self._mod.peel_directed(*args)


class _CBackend:
    """Adapter over the ctypes-loaded shared library."""

    name = "c"

    def __init__(self) -> None:
        from . import _cext

        self._lib = _cext.load()

    def peel_undirected(
        self, indptr, indices, weights, n, total_weight, factor, eps_slack,
        max_passes, nb, deg, alive, best_alive, bucket_of, nxt, prv, head,
        frontier, trace, ptrs=None,
    ):
        if ptrs is None:
            ptrs = tuple(
                a.ctypes.data
                for a in (indptr, indices, weights, deg, alive, best_alive,
                          bucket_of, nxt, prv, head, frontier, trace)
            )
        bd = ctypes.c_double()
        bp = ctypes.c_int64()
        ps = ctypes.c_int64()
        status = self._lib.repro_peel_undirected(
            ptrs[0], ptrs[1], ptrs[2],
            n, total_weight, factor, eps_slack, max_passes, nb,
            ptrs[3], ptrs[4], ptrs[5], ptrs[6], ptrs[7], ptrs[8],
            ptrs[9], ptrs[10], ptrs[11], trace.shape[0],
            ctypes.byref(bd), ctypes.byref(bp), ctypes.byref(ps),
        )
        return status, bd.value, bp.value, ps.value

    def peel_atleast_k(
        self, indptr, indices, weights, n, total_weight, factor,
        batch_fraction, eps_slack, k, stop_below_k, nb, deg, alive,
        best_alive, bucket_of, nxt, prv, head, frontier, trace, ptrs=None,
    ):
        if ptrs is None:
            ptrs = tuple(
                a.ctypes.data
                for a in (indptr, indices, weights, deg, alive, best_alive,
                          bucket_of, nxt, prv, head, frontier, trace)
            )
        bd = ctypes.c_double()
        bp = ctypes.c_int64()
        ps = ctypes.c_int64()
        status = self._lib.repro_peel_atleast_k(
            ptrs[0], ptrs[1], ptrs[2],
            n, total_weight, factor, batch_fraction, eps_slack,
            k, 1 if stop_below_k else 0, nb,
            ptrs[3], ptrs[4], ptrs[5], ptrs[6], ptrs[7], ptrs[8],
            ptrs[9], ptrs[10], ptrs[11], trace.shape[0],
            ctypes.byref(bd), ctypes.byref(bp), ctypes.byref(ps),
        )
        return status, bd.value, bp.value, ps.value

    def peel_directed(
        self, out_indptr, out_indices, out_weights, in_indptr, in_indices,
        in_weights, n, total_weight, ratio, one_plus_eps, eps_slack,
        use_max_degree_rule, nb, out_to_t, in_from_s, in_s, in_t, best_s,
        best_t, s_bucket_of, s_nxt, s_prv, s_head, t_bucket_of, t_nxt,
        t_prv, t_head, frontier, trace, ptrs=None,
    ):
        if ptrs is None:
            ptrs = tuple(
                a.ctypes.data
                for a in (out_indptr, out_indices, out_weights, in_indptr,
                          in_indices, in_weights, out_to_t, in_from_s, in_s,
                          in_t, best_s, best_t, s_bucket_of, s_nxt, s_prv,
                          s_head, t_bucket_of, t_nxt, t_prv, t_head,
                          frontier, trace)
            )
        bd = ctypes.c_double()
        bp = ctypes.c_int64()
        ps = ctypes.c_int64()
        status = self._lib.repro_peel_directed(
            ptrs[0], ptrs[1], ptrs[2], ptrs[3], ptrs[4], ptrs[5],
            n, total_weight, ratio, one_plus_eps, eps_slack,
            1 if use_max_degree_rule else 0, nb,
            ptrs[6], ptrs[7], ptrs[8], ptrs[9], ptrs[10], ptrs[11],
            ptrs[12], ptrs[13], ptrs[14], ptrs[15], ptrs[16], ptrs[17],
            ptrs[18], ptrs[19], ptrs[20], ptrs[21], trace.shape[0],
            ctypes.byref(bd), ctypes.byref(bp), ctypes.byref(ps),
        )
        return status, bd.value, bp.value, ps.value


_BACKEND: Optional[object] = None
_BACKEND_RESOLVED = False


def _pick_backend() -> Optional[object]:
    mode = os.environ.get("REPRO_NATIVE", "auto").strip().lower()
    if mode == "off":
        return None
    if mode in ("auto", "numba"):
        try:
            return _NumbaBackend()
        except Exception:
            if mode == "numba":
                return None
    if mode in ("auto", "c"):
        try:
            return _CBackend()
        except Exception:
            return None
    return None


def get_backend() -> Optional[object]:
    """The active compiled backend instance (memoized), or None."""
    global _BACKEND, _BACKEND_RESOLVED
    if not _BACKEND_RESOLVED:
        _BACKEND = _pick_backend()
        _BACKEND_RESOLVED = True
    return _BACKEND


def c_library() -> Optional[ctypes.CDLL]:
    """The loaded C library when the C backend is active, else None.

    The CSR build's count and scatter passes live in the same library
    as the C peel kernels, so they follow the same ``REPRO_NATIVE``
    switch: the build runs in C exactly when the peels do, and on
    numpy under ``off``, without a toolchain, or with numba serving
    the peels.
    """
    backend = get_backend()
    return backend._lib if isinstance(backend, _CBackend) else None


def available_backend() -> Optional[str]:
    """``"numba"``, ``"c"``, or None when the compiled tier is absent."""
    backend = get_backend()
    return getattr(backend, "name", None) if backend is not None else None


def reset_backend_cache() -> None:
    """Forget the memoized backend (tests flip REPRO_NATIVE and re-probe)."""
    global _BACKEND, _BACKEND_RESOLVED
    _BACKEND = None
    _BACKEND_RESOLVED = False


# Scratch arrays are reused across calls (the trace buffer alone is
# hundreds of KB, so a fresh allocation per call costs mmap + page
# faults that dwarf the kernel on small graphs).  The cache is
# per-thread: the serve layer peels from a worker pool, and two
# threads must never share live scratch.  The kernels rewrite every
# cell they read, so stale contents are harmless.
_SCRATCH = threading.local()


def _undirected_scratch(n: int, cap: int):
    cached = getattr(_SCRATCH, "undirected", None)
    if cached is not None and cached[0].shape[0] == n and cached[8].shape[0] >= cap:
        return cached
    deg_scratch = np.empty(n, dtype=np.float64)
    alive = np.empty(n, dtype=np.uint8)
    best_alive = np.empty(n, dtype=np.uint8)
    bucket_of = np.empty(n, dtype=np.int32)
    nxt = np.empty(n, dtype=np.int32)
    prv = np.empty(n, dtype=np.int32)
    head = np.empty(NUM_BUCKETS, dtype=np.int32)
    # 2n: frontier in the lower half, deferred-relink list in the upper.
    frontier = np.empty(max(2 * n, 1), dtype=np.int32)
    trace = np.empty((cap, 8), dtype=np.float64)
    arrays = (
        deg_scratch, alive, best_alive, bucket_of, nxt, prv, head, frontier, trace
    )
    # Raw pointers precomputed once: the .ctypes accessor builds a
    # helper object per use, which is measurable at these call rates.
    scratch = arrays + (tuple(a.ctypes.data for a in arrays),)
    _SCRATCH.undirected = scratch
    return scratch


def _directed_scratch(n: int, cap: int):
    cached = getattr(_SCRATCH, "directed", None)
    if cached is not None and cached[0].shape[0] == n and cached[15].shape[0] >= cap:
        return cached
    out_to_t = np.empty(n, dtype=np.float64)
    in_from_s = np.empty(n, dtype=np.float64)
    in_s = np.empty(n, dtype=np.uint8)
    in_t = np.empty(n, dtype=np.uint8)
    best_s = np.empty(n, dtype=np.uint8)
    best_t = np.empty(n, dtype=np.uint8)
    s_bucket_of = np.empty(n, dtype=np.int32)
    s_nxt = np.empty(n, dtype=np.int32)
    s_prv = np.empty(n, dtype=np.int32)
    s_head = np.empty(NUM_BUCKETS, dtype=np.int32)
    t_bucket_of = np.empty(n, dtype=np.int32)
    t_nxt = np.empty(n, dtype=np.int32)
    t_prv = np.empty(n, dtype=np.int32)
    t_head = np.empty(NUM_BUCKETS, dtype=np.int32)
    # 2n: frontier in the lower half, deferred-relink list in the upper.
    frontier = np.empty(max(2 * n, 1), dtype=np.int32)
    trace = np.empty((cap, 11), dtype=np.float64)
    arrays = (
        out_to_t, in_from_s, in_s, in_t, best_s, best_t,
        s_bucket_of, s_nxt, s_prv, s_head,
        t_bucket_of, t_nxt, t_prv, t_head,
        frontier, trace,
    )
    scratch = arrays + (tuple(a.ctypes.data for a in arrays),)
    _SCRATCH.directed = scratch
    return scratch


def _graph_args(csr: CSRGraph):
    """Contiguity-checked CSR arrays + raw pointers, cached on the graph."""
    cached = getattr(csr, "_peel_args", None)
    if cached is None:
        indptr = np.ascontiguousarray(csr.indptr, dtype=np.int32)
        indices = np.ascontiguousarray(csr.indices, dtype=np.int32)
        weights = np.ascontiguousarray(csr.weights, dtype=np.float64)
        cached = (
            indptr, indices, weights,
            (indptr.ctypes.data, indices.ctypes.data, weights.ctypes.data),
        )
        try:
            csr._peel_args = cached
        except AttributeError:
            pass
    return cached


def _digraph_args(csr: CSRDigraph):
    cached = getattr(csr, "_peel_args", None)
    if cached is None:
        arrays = (
            np.ascontiguousarray(csr.out_indptr, dtype=np.int32),
            np.ascontiguousarray(csr.out_indices, dtype=np.int32),
            np.ascontiguousarray(csr.out_weights, dtype=np.float64),
            np.ascontiguousarray(csr.in_indptr, dtype=np.int32),
            np.ascontiguousarray(csr.in_indices, dtype=np.int32),
            np.ascontiguousarray(csr.in_weights, dtype=np.float64),
        )
        cached = arrays + (tuple(a.ctypes.data for a in arrays),)
        try:
            csr._peel_args = cached
        except AttributeError:
            pass
    return cached


def _decode_undirected_trace(trace: np.ndarray, passes: int) -> Tuple[PassRecord, ...]:
    # One bulk tolist() instead of per-cell numpy scalar reads: deep
    # peels record dozens of passes and the scalar path dominates the
    # decode cost.
    rows = trace[:passes].tolist()
    return tuple(
        PassRecord(
            pass_index=i + 1,
            nodes_before=int(t[0]),
            edges_before=t[1],
            density_before=t[2],
            threshold=t[3],
            removed=int(t[4]),
            nodes_after=int(t[5]),
            edges_after=t[6],
            density_after=t[7],
        )
        for i, t in enumerate(rows)
    )


def peel_undirected(
    csr: CSRGraph,
    epsilon: float,
    *,
    max_passes: Optional[int] = None,
) -> PeelOutcome:
    """Algorithm 1 via the compiled backend (bucketq fallback)."""
    backend = get_backend()
    n = csr.num_nodes
    if backend is None or n == 0:
        return bucketq.peel_undirected(csr, epsilon, max_passes=max_passes)
    factor = 2.0 * (1.0 + epsilon)
    mp = -1 if max_passes is None else int(max_passes)
    indptr, indices, weights, csr_ptrs = _graph_args(csr)
    cap = min(n, 4096) + 1
    while True:
        (
            deg, alive, best_alive, bucket_of, nxt, prv, head, frontier,
            trace, scratch_ptrs,
        ) = _undirected_scratch(n, cap)
        np.copyto(deg, csr.degrees)
        alive.fill(1)
        best_alive.fill(1)
        status, best_density, best_pass, passes = backend.peel_undirected(
            indptr, indices, weights, n, csr.total_weight, factor,
            THRESHOLD_EPS, mp, NUM_BUCKETS, deg, alive, best_alive,
            bucket_of, nxt, prv, head, frontier, trace,
            ptrs=csr_ptrs + scratch_ptrs,
        )
        if status == 0:
            break
        cap = min(max(cap * 4, cap + 1), n + 1)
    return PeelOutcome(
        best_indices=np.flatnonzero(best_alive).astype(np.int64, copy=False),
        best_density=float(best_density),
        passes=int(passes),
        best_pass=int(best_pass),
        trace=_decode_undirected_trace(trace, int(passes)),
    )


def peel_atleast_k(
    csr: CSRGraph,
    k: int,
    epsilon: float,
    *,
    stop_below_k: bool = True,
) -> PeelOutcome:
    """Algorithm 2 via the compiled backend (bucketq fallback)."""
    backend = get_backend()
    n = csr.num_nodes
    if backend is None or n == 0:
        return bucketq.peel_atleast_k(csr, k, epsilon, stop_below_k=stop_below_k)
    factor = 2.0 * (1.0 + epsilon)
    batch_fraction = epsilon / (1.0 + epsilon)
    indptr, indices, weights, csr_ptrs = _graph_args(csr)
    cap = min(n, 4096) + 1
    while True:
        (
            deg, alive, best_alive, bucket_of, nxt, prv, head, frontier,
            trace, scratch_ptrs,
        ) = _undirected_scratch(n, cap)
        np.copyto(deg, csr.degrees)
        alive.fill(1)
        best_alive.fill(1)
        status, best_density, best_pass, passes = backend.peel_atleast_k(
            indptr, indices, weights, n, csr.total_weight, factor,
            batch_fraction, THRESHOLD_EPS, int(k), stop_below_k, NUM_BUCKETS,
            deg, alive, best_alive, bucket_of, nxt, prv, head, frontier, trace,
            ptrs=csr_ptrs + scratch_ptrs,
        )
        if status == 0:
            break
        cap = min(max(cap * 4, cap + 1), n + 1)
    return PeelOutcome(
        best_indices=np.flatnonzero(best_alive).astype(np.int64, copy=False),
        best_density=float(best_density),
        passes=int(passes),
        best_pass=int(best_pass),
        trace=_decode_undirected_trace(trace, int(passes)),
    )


def peel_directed(
    csr: CSRDigraph,
    ratio: float,
    epsilon: float,
    *,
    side_rule: str = "size_ratio",
) -> DirectedPeelOutcome:
    """Algorithm 3 via the compiled backend (bucketq fallback)."""
    backend = get_backend()
    n = csr.num_nodes
    if backend is None or n == 0:
        return bucketq.peel_directed(csr, ratio, epsilon, side_rule=side_rule)
    (
        out_indptr, out_indices, out_weights,
        in_indptr, in_indices, in_weights, csr_ptrs,
    ) = _digraph_args(csr)
    use_max_degree = side_rule != "size_ratio"
    cap = min(2 * n, 8192) + 1
    while True:
        (
            out_to_t, in_from_s, in_s, in_t, best_s, best_t,
            s_bucket_of, s_nxt, s_prv, s_head,
            t_bucket_of, t_nxt, t_prv, t_head,
            frontier, trace, scratch_ptrs,
        ) = _directed_scratch(n, cap)
        np.copyto(out_to_t, csr.out_degrees)
        np.copyto(in_from_s, csr.in_degrees)
        in_s.fill(1)
        in_t.fill(1)
        best_s.fill(1)
        best_t.fill(1)
        status, best_density, best_pass, passes = backend.peel_directed(
            out_indptr, out_indices, out_weights, in_indptr, in_indices,
            in_weights, n, csr.total_weight, float(ratio), 1.0 + epsilon,
            THRESHOLD_EPS, use_max_degree, NUM_BUCKETS, out_to_t, in_from_s,
            in_s, in_t, best_s, best_t, s_bucket_of, s_nxt, s_prv, s_head,
            t_bucket_of, t_nxt, t_prv, t_head, frontier, trace,
            ptrs=csr_ptrs + scratch_ptrs,
        )
        if status == 0:
            break
        cap = min(max(cap * 4, cap + 1), 2 * n + 1)
    rows = trace[: int(passes)].tolist()
    records: List[DirectedPassRecord] = [
        DirectedPassRecord(
            pass_index=i + 1,
            side="S" if t[0] == 0.0 else "T",
            s_before=int(t[1]),
            t_before=int(t[2]),
            edges_before=t[3],
            density_before=t[4],
            threshold=t[5],
            removed=int(t[6]),
            s_after=int(t[7]),
            t_after=int(t[8]),
            edges_after=t[9],
            density_after=t[10],
        )
        for i, t in enumerate(rows)
    ]
    return DirectedPeelOutcome(
        best_s=np.flatnonzero(best_s).astype(np.int64, copy=False),
        best_t=np.flatnonzero(best_t).astype(np.int64, copy=False),
        best_density=float(best_density),
        passes=int(passes),
        best_pass=int(best_pass),
        trace=tuple(records),
    )


def peel_directed_sweep(
    csr: CSRDigraph,
    ratios: Sequence[float],
    epsilon: float,
    *,
    side_rule: str = "size_ratio",
) -> List[DirectedPeelOutcome]:
    """Run :func:`peel_directed` for every c in ``ratios`` (shared CSR)."""
    return [
        peel_directed(csr, ratio, epsilon, side_rule=side_rule) for ratio in ratios
    ]
