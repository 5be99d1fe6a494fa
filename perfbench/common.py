"""Shared pieces of the benchmark: inputs, operation records, statistics."""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro import ShardedEdgeStore
from repro.datasets.synthetic import nested_core_edge_arrays
from repro.kernels import tier_report

#: Set-up is repeated this many times per untraced run; ``setup_s`` is
#: the median.  The traced run does not report it and sets up once.
SETUP_REPS = 5
#: A set-up this cheap is repeated further, up to ``SETUP_MAX_REPS``
#: times, until the reps add up to this many seconds, so its median
#: is not the draw of five sub-100 ms samples.
SETUP_MIN_SECONDS = 1.5
SETUP_MAX_REPS = 25


@dataclass
class Op:
    """One operation of a timed phase, as the caller saw it."""

    id: int
    label: str  # what was asked, e.g. "und densest eps=0.1"
    config: str  # execution configuration, e.g. "pool_file"
    start: float
    latency: float
    edges: int = 0
    cycle: int = 0  # batch workloads: which pass over the call list
    warm: bool = False  # serve_mix: a catalog hit on a primed key
    traced: bool = False
    ok: bool = True  # False: exception, non-200, 429 or wrong answer
    error: Optional[str] = None
    answer: object = None  # the answer as received, then its canonical bytes
    expected: Optional[tuple] = None  # oracle key
    labeled: bool = False  # a stale/degraded 200 (not goodput)
    due: Optional[float] = None  # open-loop schedule time


@dataclass
class StoreInput:
    """One generated graph and the shard store written from it."""

    name: str
    path: Path
    src: object
    dst: object
    num_nodes: int
    directed: bool
    num_edges: int = 0
    nbytes: int = 0


@dataclass
class RunResult:
    """What a workload hands back to the reporting code."""

    setup_seconds: List[float]
    ops: List[Op]
    wall: float
    peak_rss_mb: float
    stores: Dict[str, StoreInput]
    extra: Dict[str, object] = field(default_factory=dict)


def generate_store(
    name: str,
    path: Path,
    *,
    n: int,
    directed: bool,
    seed: int,
    degree: float = 18.0,
    shrink: float = 0.5,
    num_shards: int = 8,
) -> StoreInput:
    """Nested-core edge arrays from ``seed``, written as a shard store."""
    src, dst = nested_core_edge_arrays(n, degree=degree, shrink=shrink, seed=seed)
    store = ShardedEdgeStore.write(
        path, (src, dst), directed=directed, num_shards=num_shards, num_nodes=n
    )
    return StoreInput(
        name, path, src, dst, n, directed, store.num_edges, store.nbytes()
    )


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100); 0.0 when empty."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def pool_workers() -> int:
    """Worker count for MapReduce pools and server job threads.

    Capped at ``nproc``; a process pool needs two workers to exist at
    all, so a one-CPU box gets two.
    """
    return max(2, min(nproc(), 4))


def reset_peak_rss(pid: str = "self") -> None:
    """Restart the kernel's RSS high-water mark (Linux ``clear_refs``)."""
    try:
        with open(f"/proc/{pid}/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_mb(pid: str = "self") -> float:
    """``VmHWM`` of a process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def repeated_setup(setup, work: Path, reps: int, discard=lambda result: None):
    """Run ``setup(rep_dir)`` ``reps`` times and keep the last result.

    With ``reps`` above 1, cheap set-ups run on until their reps add up
    to ``SETUP_MIN_SECONDS`` (at most ``SETUP_MAX_REPS`` reps).  Earlier
    results are handed to ``discard`` and their directories removed.
    Returns the kept result and the seconds of every rep.
    """
    seconds = []
    rep = 0
    while True:
        rep_dir = work / f"setup{rep}"
        start = time.perf_counter()
        result = setup(rep_dir)
        seconds.append(time.perf_counter() - start)
        rep += 1
        more = rep < reps or (
            reps > 1 and rep < SETUP_MAX_REPS and sum(seconds) < SETUP_MIN_SECONDS
        )
        if not more:
            return result, seconds
        discard(result)
        shutil.rmtree(rep_dir)


def environment(root: Path, seed: int, stores: Dict[str, StoreInput]) -> dict:
    """The stamp every report carries."""
    largest = max((s.num_nodes for s in stores.values()), default=None)
    return {
        "nproc": nproc(),
        "pool_workers": pool_workers(),
        "kernel_tiers": tier_report(largest),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root / "src"),
        "seed": seed,
        "stores": {
            s.name: {
                "nodes": s.num_nodes,
                "edges": s.num_edges,
                "bytes": s.nbytes,
                "directed": s.directed,
            }
            for s in stores.values()
        },
    }


def _git_commit(root: Path) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest(src: Path) -> str:
    """Content hash of the program's sources (the checkout may lack git)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            digest.update(str(path.relative_to(src)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()
