"""Self-tests of the benchmark, on the reduced-size (``--quick``) inputs.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench.oracle import Oracle, answer_bytes, solution_bytes  # noqa: E402
from perfbench.run import GATED, UNITS, WORKLOADS  # noqa: E402
from perfbench.trace import Span, covered_ns, self_seconds  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((ROOT / "perfbench" / "layers.json").read_text())
#: Span-name prefix of each layer whose module name differs from it.
SPAN_PREFIX = {"kernels.csr": "csr"}


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace), "--quick",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_oracle_rejects_an_answer_with_one_node_dropped():
    import repro
    from repro.datasets.synthetic import nested_core_edge_arrays

    src, dst = nested_core_edge_arrays(300, seed=5)
    oracle = Oracle()
    oracle.add_graph("g", src, dst, 300, directed=False)
    expected = oracle.expected("g", "densest_subgraph", (("epsilon", 0.1),))
    graph = repro.kernels.CSRGraph.from_edge_arrays(src, dst, num_nodes=300)
    solution = repro.solve(repro.DensestSubgraph(graph, epsilon=0.1))
    assert solution_bytes(solution) == expected
    dropped = sorted(solution.nodes)[1:]
    assert answer_bytes(dropped, solution.density, solution.certificate) != expected


def test_self_time_subtracts_the_union_of_children():
    parent = Span(1, None, 0, "p", start=0, end=100)
    children = [Span(2, 1, 0, "a", 10, 40), Span(3, 1, 0, "b", 30, 50)]
    assert covered_ns([(10, 40), (30, 50), (90, 120)], 0, 100) == 50
    assert self_seconds(parent, children) == pytest.approx(60e-9)


def test_layer_map_matches_benchmark_json():
    listed = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    mapped = [(m["name"], m["unit"], m["better"]) for m in LAYERS["per_layer"]]
    assert listed == mapped
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(WORKLOADS) == list(LAYERS["workloads"])
    for metric in LAYERS["per_layer"]:
        assert set(metric["on"]) <= set(names)
        assert set(metric["moves"]) <= set(UNITS)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(GATED)
    assert all(m["unit"] == UNITS[m["name"]] for m in BENCHMARK["end_to_end"])
    assert set(LAYERS["end_to_end"]) == set(UNITS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_reduced_run_prints_every_metric_with_its_unit(workload, trace):
    out = _run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr[-3000:]
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    printed = {
        line.split()[1]: line.split()[3] for line in lines if line.startswith("metric ")
    }
    serve_only = {"warm_p50_s", "warm_p90_s", "sustained_rps"}
    assert printed == {
        k: v
        for k, v in UNITS.items()
        if workload == "serve_mix" or k not in serve_only
    }
    if trace:
        path = next(line.split()[1] for line in lines if line.startswith("trace "))
        events = json.loads((ROOT / path).read_text())["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
        categories = {e["cat"] for e in events}
        for layer in LAYERS["workloads"][workload]["layers"]:
            assert SPAN_PREFIX.get(layer, layer) in categories


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "shard_solve", 0)
    assert out.returncode != 0
    assert "correct" not in out.stdout
