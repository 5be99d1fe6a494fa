"""Metrics of one run: end-to-end from the operations, per-layer from spans."""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

from .common import Op, RunResult, percentile
from .serve_mix import sustained_rps
from .trace import Span, Tracer, covered_ns, self_seconds

HERE = Path(__file__).resolve().parent


def load_layers() -> dict:
    """The layer -> metric -> workload map (``layers.json``)."""
    return json.loads((HERE / "layers.json").read_text())


def end_to_end(workload: str, result: RunResult) -> Dict[str, float]:
    """The end-to-end metrics of a run that apply to its workload."""
    ops = result.ops
    ok = [op for op in ops if op.ok]
    wall = result.wall
    metrics = {"setup_s": statistics.median(result.setup_seconds)}
    if workload == "serve_mix":
        cold = [op.latency for op in ok if not op.warm]
        goodput = sum(1 for op in ok if not op.labeled) / wall
    else:
        # The calls of a batch list differ in cost by design, so the
        # latency of one operation is bimodal or worse and its median
        # falls between configurations.  The unit of latency here is
        # the mean operation latency of one pass over the list.
        cycles: Dict[int, List[float]] = defaultdict(list)
        for op in ops:
            cycles[op.cycle].append(op.latency)
        cold = [statistics.fmean(lat) for lat in cycles.values()]
        goodput = len(ok) / wall
    metrics["cold_p50_s"] = percentile(cold, 50)
    metrics["edges_per_s"] = sum(op.edges for op in ok) / wall
    if workload == "serve_mix":
        # Medians over the reference segments of each one's percentile.
        steps = result.extra["steps"]
        reference = [s for s in steps if s["name"].startswith("ref")]
        metrics["warm_p50_s"] = statistics.median(s["p50_s"] for s in reference)
        metrics["warm_p90_s"] = statistics.median(s["p90_s"] for s in reference)
        metrics["sustained_rps"] = sustained_rps(steps)
    metrics["goodput_rps"] = goodput
    metrics["peak_rss_mb"] = result.peak_rss_mb
    metrics["failed_frac"] = (len(ops) - len(ok)) / len(ops)
    return metrics


def by_label(ops: List[Op]) -> Dict[str, dict]:
    """Latency quartiles and counts per operation label."""
    labels = {}
    for op in ops:
        labels.setdefault(f"{op.label} [{op.config}]", []).append(op.latency)
    return {
        label: {
            "count": len(lat),
            "p25_s": percentile(lat, 25),
            "p50_s": percentile(lat, 50),
            "p75_s": percentile(lat, 75),
            "max_s": max(lat),
        }
        for label, lat in labels.items()
    }


def _config_metrics(ops: List[Op], spans_by_op, suffix: str) -> Dict[str, float]:
    """Per-operation means of the solver layers over ``ops``."""
    totals: Dict[str, float] = defaultdict(float)
    for op in ops:
        spans = spans_by_op.get(op.id, [])
        children = defaultdict(list)
        for s in spans:
            children[s.parent].append(s)
        runtimes: Dict[int, Dict[str, int]] = {}
        for s in spans:
            a = s.attrs
            if s.name == "store.open":
                totals["store.open_s"] += s.seconds
            elif s.name == "store.read":
                totals["store.read_s"] += s.seconds
                totals["store.bytes_read"] += a["bytes"]
            elif s.name == "csr.build":
                totals["csr.build_s"] += s.seconds
                totals["csr.builds"] += 1
            elif s.name == "core.peel":
                totals["core.peel_s"] += s.seconds
                totals["core.passes"] += a["passes"]
            elif s.name == "api.solve":
                totals["api.self_s"] += self_seconds(s, children[s.id])
                for key in ("stream_passes", "edges_streamed", "bytes_scanned"):
                    totals[f"streaming.{key}"] += a.get(key, 0)
            elif s.name == "streaming.solve":
                totals["streaming.solve_s"] += s.seconds
                totals["streaming.self_s"] += self_seconds(s, children[s.id])
            elif s.name == "streaming.compact":
                totals["streaming.compact_s"] += s.seconds
            elif s.name == "mapreduce.driver":
                totals["mapreduce.driver_s"] += self_seconds(s, children[s.id])
            elif s.name == "mapreduce.round":
                totals["mapreduce.round_s"] += s.seconds
                totals["mapreduce.rounds"] += 1
                totals["mapreduce.shuffle_bytes"] += a["shuffle_bytes"]
                totals["mapreduce.shuffle_records"] += a["shuffle_records"]
                seen = runtimes.setdefault(a["runtime"], {})
                for key in ("tasks_retried", "workers_lost"):
                    seen[key] = max(seen.get(key, 0), a[key])
            elif s.name == "mapreduce.pool":
                totals["mapreduce.pool_s"] += s.seconds
        for seen in runtimes.values():
            for key, value in seen.items():
                totals[f"mapreduce.{key}"] += value
    count = max(1, len(ops))
    return {f"{name}{suffix}": value / count for name, value in totals.items()}


def _serve_metrics(
    ops: List[Op], spans_by_op, tracer: Tracer, stats: dict
) -> Dict[str, float]:
    warm = [op for op in ops if op.warm]
    request, http, gets, puts = [], [], [], []
    for op in ops:
        spans = spans_by_op.get(op.id, [])
        root = next(s for s in spans if s.parent is None)
        for s in spans:
            if s.name == "serve.catalog_get":
                gets.append(s.seconds)
            elif s.name == "serve.catalog_put":
                puts.append(s.seconds)
            elif op.warm and s.name == "serve.request":
                request.append(s.seconds)
            elif op.warm and s.name == "serve.handler":
                http.append(root.seconds - s.seconds)
    return {
        "serve.request_s": percentile(request, 50),
        "serve.catalog_get_s": percentile(gets, 50),
        "serve.http_s": percentile(http, 50),
        "serve.catalog_put_s": percentile(puts, 50),
        "serve.queue_wait_s": percentile([q for q, _ in tracer.jobs], 50),
        "serve.job_s": percentile([j for _, j in tracer.jobs], 50),
        "serve.hit_ratio": float(stats.get("hit_ratio") or 0.0),
        "serve.shed": float(stats.get("shed", 0)),
        "serve.generator_lag_s": percentile([op.start - op.due for op in warm], 90),
    }


def _uncovered_share(ops: List[Op], spans_by_op) -> Dict[str, float]:
    """Mean share of each operation's wall that no layer span covers.

    The root span is the operation itself and ``api.solve`` only
    dispatches, so neither counts as covering; its self time is the
    unattributed time ``api.self_s`` reports.
    """
    shares: Dict[str, List[float]] = defaultdict(list)
    for op in ops:
        spans = spans_by_op.get(op.id, [])
        root = next(s for s in spans if s.parent is None)
        layers = [
            (s.start, s.end)
            for s in spans
            if s.parent is not None and s.name != "api.solve"
        ]
        wall = root.end - root.start
        if wall > 0:
            covered = covered_ns(layers, root.start, root.end)
            shares[op.label].append(1.0 - covered / wall)
    return {label: statistics.fmean(v) for label, v in shares.items()}


def _overhead(ops: List[Op]) -> Dict[str, float]:
    """Traced against untraced median latency, per operation label."""
    by_label: Dict[str, Dict[bool, List[float]]] = defaultdict(
        lambda: defaultdict(list)
    )
    for op in ops:
        if op.ok:
            lag = op.start - op.due if op.due is not None else 0.0
            by_label[op.label][op.traced].append(op.latency - lag)
    return {
        label: statistics.median(v[True]) / statistics.median(v[False]) - 1.0
        for label, v in by_label.items()
        if v[True] and v[False]
    }


def per_layer(workload: str, result: RunResult, tracer: Tracer) -> Dict[str, object]:
    """Every per-layer metric, plus the detail the report file keeps."""
    spec = load_layers()
    spans_by_op: Dict[int, List[Span]] = defaultdict(list)
    for span in tracer.spans:
        spans_by_op[span.op].append(span)
    traced = [op for op in result.ops if op.traced and op.ok]
    # Warm requests on serve_mix do not reach the solver layers.
    solving = [op for op in traced if not op.warm]
    metrics = {m["name"]: 0.0 for m in spec["per_layer"]}
    metrics.update(_config_metrics(solving, spans_by_op, ""))
    for config in sorted({op.config for op in solving}):
        subset = [op for op in solving if op.config == config]
        for name, value in _config_metrics(subset, spans_by_op, f".{config}").items():
            if name in metrics:
                metrics[name] = value
    if workload == "serve_mix":
        stats = result.extra["stats"]
        metrics.update(_serve_metrics(traced, spans_by_op, tracer, stats))
    uncovered = _uncovered_share(traced, spans_by_op)
    overhead = _overhead(result.ops)
    for name, by_label in (
        ("trace.uncovered_frac", uncovered),
        ("trace.overhead_frac", overhead),
    ):
        metrics[name] = statistics.fmean(by_label.values()) if by_label else 0.0
    unknown = set(metrics) - {m["name"] for m in spec["per_layer"]}
    if unknown:
        raise RuntimeError(f"metrics missing from layers.json: {sorted(unknown)}")
    tiers = sorted({s.attrs["tier"] for s in tracer.spans if s.name == "core.peel"})
    return {
        "metrics": metrics,
        "uncovered_by_label": uncovered,
        "overhead_by_label": overhead,
        "core_tiers": tiers,
        "traced_ops": len(traced),
        "spans": len(tracer.spans),
    }
