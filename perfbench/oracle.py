"""Answer oracle: the numpy tier on the generator's own edge arrays.

Every answer the benchmark receives is compared, outside the timed
phase, with the numpy-tier peel run on ``CSRGraph.from_edge_arrays``
(``CSRDigraph`` for directed inputs) of the arrays the generator
produced.  Nodes, density and the per-pass certificate must be
bit-identical; the comparison is on canonical JSON bytes, so a float
that differs in its last bit is a mismatch.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.api.solution import canonical_json, encode_value
from repro.core.atleast_k import densest_subgraph_atleast_k
from repro.core.directed import densest_subgraph_directed
from repro.core.undirected import densest_subgraph
from repro.kernels import CSRDigraph, CSRGraph


def answer_bytes(nodes, density, certificate) -> str:
    """Canonical bytes of the part of an answer the oracle checks."""
    return canonical_json(
        {
            "nodes": encode_value(frozenset(nodes)),
            "density": encode_value(float(density)),
            "certificate": encode_value(certificate),
        }
    )


def solution_bytes(solution) -> str:
    """:func:`answer_bytes` of a :class:`repro.Solution`."""
    return answer_bytes(solution.nodes, solution.density, solution.certificate)


class Oracle:
    """Reference answers per ``(graph, problem)``, computed once each."""

    def __init__(self) -> None:
        self._graphs: Dict[str, object] = {}
        self._answers: Dict[Tuple, str] = {}

    def add_graph(self, name: str, src, dst, num_nodes: int, directed: bool) -> None:
        cls = CSRDigraph if directed else CSRGraph
        self._graphs[name] = cls.from_edge_arrays(src, dst, num_nodes=num_nodes)

    def expected(self, graph: str, kind: str, params: Tuple) -> str:
        """Reference bytes for ``kind`` with sorted ``params`` pairs."""
        key = (graph, kind, params)
        if key not in self._answers:
            self._answers[key] = self._solve(self._graphs[graph], kind, dict(params))
        return self._answers[key]

    @staticmethod
    def _solve(csr, kind: str, params: dict) -> str:
        if kind == "densest_subgraph":
            result = densest_subgraph(csr, params["epsilon"], engine="numpy")
            return answer_bytes(result.nodes, result.density, result.trace)
        if kind == "densest_at_least_k":
            result = densest_subgraph_atleast_k(
                csr, params["k"], params["epsilon"], engine="numpy"
            )
            return answer_bytes(result.nodes, result.density, result.trace)
        if kind == "directed_densest":
            result = densest_subgraph_directed(
                csr, params["ratio"], params["epsilon"], engine="numpy"
            )
            return answer_bytes(
                result.s_nodes | result.t_nodes, result.density, result.trace
            )
        raise ValueError(f"the oracle has no reference for {kind!r}")
