"""Charikar's LP relaxation for the undirected densest subgraph.

Section 6.2 of the paper computes ρ*(G) with the LP::

    max  Σ_{(i,j) ∈ E} w_ij · x_ij
    s.t. x_ij ≤ y_i          for every edge (i, j)
         x_ij ≤ y_j          for every edge (i, j)
         Σ_i y_i ≤ 1
         x, y ≥ 0

whose optimum value equals ρ*(G) (Charikar 2000).  The paper used
COIN-OR CLP; we use scipy's HiGHS, the same LP.

An optimal *set* is recovered by threshold rounding: for any r > 0 the
level set ``S(r) = {i : y_i ≥ r}`` satisfies ρ(S(r*)) = ρ* for some
r*, so scanning the distinct y-values finds an optimal set.
"""

from __future__ import annotations

from typing import Hashable, List, Set, Tuple

import numpy as np

from .._tolerances import LP_EPS
from ..errors import SolverError
from ..graph.undirected import UndirectedGraph

Node = Hashable


def _solve_charikar_lp(graph: UndirectedGraph) -> Tuple[float, List[Node], np.ndarray]:
    """Solve the LP; returns (optimum, node order, y vector)."""
    # scipy is imported here, not at module level: repro.core pulls
    # this module in, and every `import repro` would pay for it.
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    graph.require_nonempty()
    nodes = list(graph.nodes())
    node_pos = {node: i for i, node in enumerate(nodes)}
    edges = list(graph.weighted_edges())
    n, m = len(nodes), len(edges)

    # Variable layout: x_0..x_{m-1}, then y_0..y_{n-1}.
    costs = np.zeros(m + n)
    costs[:m] = [-w for _, _, w in edges]  # linprog minimizes

    rows: List[int] = []
    cols: List[int] = []
    data: List[float] = []
    for e, (u, v, _) in enumerate(edges):
        # x_e - y_u <= 0
        rows.extend((2 * e, 2 * e))
        cols.extend((e, m + node_pos[u]))
        data.extend((1.0, -1.0))
        # x_e - y_v <= 0
        rows.extend((2 * e + 1, 2 * e + 1))
        cols.extend((e, m + node_pos[v]))
        data.extend((1.0, -1.0))
    # sum(y) <= 1
    budget_row = 2 * m
    for i in range(n):
        rows.append(budget_row)
        cols.append(m + i)
        data.append(1.0)
    a_ub = csr_matrix((data, (rows, cols)), shape=(2 * m + 1, m + n))
    b_ub = np.zeros(2 * m + 1)
    b_ub[budget_row] = 1.0

    result = linprog(costs, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    if not result.success:
        raise SolverError(f"LP solver failed: {result.message}")
    return -result.fun, nodes, result.x[m:]


def lp_density(graph: UndirectedGraph) -> float:
    """The exact maximum density ρ*(G) as the LP optimum value."""
    value, _, _ = _solve_charikar_lp(graph)
    return value


def lp_densest_subgraph(graph: UndirectedGraph) -> Tuple[Set[Node], float]:
    """Exact densest subgraph via LP + threshold rounding.

    Returns ``(nodes, density)``; the reported density is the density of
    the rounded set (equal to the LP optimum up to solver tolerance).
    """
    value, nodes, y = _solve_charikar_lp(graph)
    # Threshold rounding: scan prefixes of the descending-y order.  Every
    # level set S(r) is such a prefix, and Charikar's proof guarantees
    # some level set attains the LP optimum; extra (partial-level)
    # prefixes can only improve the max.  Edge weight is maintained
    # incrementally so the scan is O(n + m).
    order = np.argsort(-y)
    best_set: Set[Node] = set()
    best_density = 0.0
    best_len = 0
    current: Set[Node] = set()
    weight_inside = 0.0
    for idx in order:
        if y[idx] <= LP_EPS and current:
            break
        node = nodes[idx]
        for nbr in graph.neighbors(node):
            if nbr in current:
                weight_inside += graph.edge_weight(node, nbr)
        current.add(node)
        density = weight_inside / len(current)
        if density > best_density:
            best_density = density
            best_len = len(current)
    if best_len == 0:
        raise SolverError("LP rounding produced no candidate set")
    best_set = {nodes[idx] for idx in order[:best_len]}
    # Guard against pathological solver output: the rounded density can
    # lag the LP value only by numerical error.
    if best_density < value - 1e-6 * max(1.0, value):
        raise SolverError(
            f"LP rounding density {best_density} far below LP value {value}"
        )
    return best_set, best_density
