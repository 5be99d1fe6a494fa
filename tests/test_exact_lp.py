"""Unit tests for repro.exact.lp (Charikar's LP, §6.2)."""

import pytest

from repro.errors import EmptyGraphError
from repro.exact.lp import lp_densest_subgraph, lp_density
from repro.graph.generators import clique, disjoint_union, gnm_random, star
from repro.graph.undirected import UndirectedGraph


class TestLPValue:
    def test_triangle(self, triangle):
        assert lp_density(triangle) == pytest.approx(1.0)

    def test_clique(self):
        assert lp_density(clique(7)) == pytest.approx(3.0)

    def test_clique_plus_star(self, clique_plus_star):
        assert lp_density(clique_plus_star) == pytest.approx(2.0)

    def test_weighted(self, weighted_pair):
        assert lp_density(weighted_pair) == pytest.approx(5.0)

    def test_empty_raises(self):
        g = UndirectedGraph()
        g.add_node(0)
        with pytest.raises(EmptyGraphError):
            lp_density(g)


class TestRounding:
    def test_recovers_clique(self, clique_plus_star):
        nodes, rho = lp_densest_subgraph(clique_plus_star)
        assert nodes == set(range(5))
        assert rho == pytest.approx(2.0)

    def test_rounded_density_equals_lp_value(self):
        for seed in range(4):
            g = gnm_random(30, 95, seed=seed)
            value = lp_density(g)
            nodes, rho = lp_densest_subgraph(g)
            assert rho == pytest.approx(value, abs=1e-6)
            assert g.density(nodes) == pytest.approx(rho)

    def test_two_cliques(self, two_cliques):
        nodes, rho = lp_densest_subgraph(two_cliques)
        assert nodes == set(range(6))
        assert rho == pytest.approx(2.5)

    def test_weighted_rounding(self):
        g = UndirectedGraph([("a", "b", 10.0), ("b", "c", 1.0), ("c", "d", 1.0)])
        nodes, rho = lp_densest_subgraph(g)
        assert nodes == {"a", "b"}
        assert rho == pytest.approx(5.0)


def test_import_repro_leaves_scipy_unloaded():
    # The LP modules import scipy inside the solve, so the package, its
    # CLI and every spawned MapReduce worker start without it.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, repro; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert out.stdout.strip() == "False"
