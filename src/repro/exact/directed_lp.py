"""Charikar's LP for the directed densest subgraph at a fixed ratio.

For directed density ρ(S, T) = |E(S, T)| / sqrt(|S||T|), Charikar
showed that for a fixed ratio guess c = |S|/|T| the LP::

    max  Σ_{(i,j) ∈ E} w_ij · x_ij
    s.t. x_ij ≤ s_i,  x_ij ≤ t_j      for every edge (i, j)
         Σ_i s_i ≤ sqrt(c)
         Σ_j t_j ≤ 1 / sqrt(c)
         x, s, t ≥ 0

has value  max_{S,T: |S|/|T| = c} ρ(S, T), and maximizing over the
O(n²) candidate ratios {a/b} gives the exact ρ*(G).  The paper (§6.4)
instead sweeps c over powers of δ, losing at most a factor δ.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, List, Optional, Set, Tuple

import numpy as np

from .._validation import check_positive_float
from .._tolerances import LP_EPS
from ..errors import SolverError
from ..graph.directed import DirectedGraph

Node = Hashable


def _solve_directed_lp(
    graph: DirectedGraph, ratio: float
) -> Tuple[float, List[Node], np.ndarray, np.ndarray]:
    """Solve the fixed-ratio LP; returns (value, nodes, s-vector, t-vector)."""
    # Imported here so `import repro` does not load scipy (see exact.lp).
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    graph.require_nonempty()
    check_positive_float(ratio, "ratio")
    nodes = list(graph.nodes())
    node_pos = {node: i for i, node in enumerate(nodes)}
    edges = list(graph.weighted_edges())
    n, m = len(nodes), len(edges)
    sqrt_c = math.sqrt(ratio)

    # Variables: x_0..x_{m-1}, s_0..s_{n-1}, t_0..t_{n-1}.
    costs = np.zeros(m + 2 * n)
    costs[:m] = [-w for _, _, w in edges]

    rows: List[int] = []
    cols: List[int] = []
    data: List[float] = []
    for e, (u, v, _) in enumerate(edges):
        rows.extend((2 * e, 2 * e))
        cols.extend((e, m + node_pos[u]))
        data.extend((1.0, -1.0))
        rows.extend((2 * e + 1, 2 * e + 1))
        cols.extend((e, m + n + node_pos[v]))
        data.extend((1.0, -1.0))
    s_budget_row = 2 * m
    t_budget_row = 2 * m + 1
    for i in range(n):
        rows.append(s_budget_row)
        cols.append(m + i)
        data.append(1.0)
        rows.append(t_budget_row)
        cols.append(m + n + i)
        data.append(1.0)
    a_ub = csr_matrix((data, (rows, cols)), shape=(2 * m + 2, m + 2 * n))
    b_ub = np.zeros(2 * m + 2)
    b_ub[s_budget_row] = sqrt_c
    b_ub[t_budget_row] = 1.0 / sqrt_c

    result = linprog(costs, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    if not result.success:
        raise SolverError(f"directed LP failed at c={ratio}: {result.message}")
    s_vec = result.x[m : m + n]
    t_vec = result.x[m + n :]
    return -result.fun, nodes, s_vec, t_vec


def directed_lp_density_at_ratio(graph: DirectedGraph, ratio: float) -> float:
    """LP optimum = max ρ(S, T) over sets with |S|/|T| = ratio."""
    value, _, _, _ = _solve_directed_lp(graph, ratio)
    return value


def _round_directed(
    graph: DirectedGraph,
    nodes: List[Node],
    s_vec: np.ndarray,
    t_vec: np.ndarray,
) -> Tuple[Set[Node], Set[Node], float]:
    """Threshold rounding for the directed LP.

    Scans the joint level sets S(r) = {i : s_i >= r}, T(r) = {j : t_j >= r}
    over all distinct values appearing in either vector.
    """
    thresholds = sorted(
        {v for v in np.concatenate([s_vec, t_vec]) if v > LP_EPS}, reverse=True
    )
    best: Tuple[Set[Node], Set[Node], float] = (set(), set(), 0.0)
    for r in thresholds:
        s_set = {nodes[i] for i in range(len(nodes)) if s_vec[i] >= r - 1e-15}
        t_set = {nodes[i] for i in range(len(nodes)) if t_vec[i] >= r - 1e-15}
        if not s_set or not t_set:
            continue
        rho = graph.edge_weight_between(s_set, t_set) / math.sqrt(
            len(s_set) * len(t_set)
        )
        if rho > best[2]:
            best = (s_set, t_set, rho)
    return best


def candidate_ratios(graph: DirectedGraph, *, max_nodes: Optional[int] = None) -> List[float]:
    """All O(n²) candidate ratios a/b with 1 <= a, b <= n.

    ``max_nodes`` caps n to keep the candidate set manageable; the exact
    answer only needs ratios up to the true |S*|, |T*|.
    """
    n = graph.num_nodes if max_nodes is None else min(graph.num_nodes, max_nodes)
    ratios = {a / b for a in range(1, n + 1) for b in range(1, n + 1)}
    return sorted(ratios)


def directed_lp_densest_subgraph(
    graph: DirectedGraph,
    *,
    ratios: Optional[Iterable[float]] = None,
) -> Tuple[Set[Node], Set[Node], float]:
    """Exact (or grid-restricted) directed densest subgraph via the LP.

    Parameters
    ----------
    graph:
        Directed input graph with at least one edge.
    ratios:
        Candidate values of c = |S|/|T| to try.  ``None`` means the full
        exact candidate set {a/b : 1 <= a, b <= n} — only use that for
        small graphs (the LP is solved once per ratio).

    Returns
    -------
    (S, T, density):
        The best pair of sets found and their directed density.
    """
    graph.require_nonempty()
    if ratios is None:
        ratios = candidate_ratios(graph)
    best: Tuple[Set[Node], Set[Node], float] = (set(), set(), 0.0)
    best_lp = 0.0
    for ratio in ratios:
        value, nodes, s_vec, t_vec = _solve_directed_lp(graph, ratio)
        if value <= best_lp:
            continue
        best_lp = value
        s_set, t_set, rho = _round_directed(graph, nodes, s_vec, t_vec)
        if rho > best[2]:
            best = (s_set, t_set, rho)
    if not best[0]:
        raise SolverError("directed LP rounding produced no candidate sets")
    return best
