#!/usr/bin/env python3
"""Benchmark of the paths users take through ``repro``.

Run from the repository root::

    python3 perfbench/run.py --workload shard_solve --seed 1 --seconds 15 --trace 0

Workloads: ``shard_solve`` (``solve()`` with ``auto`` on shard stores),
``stream_oocore`` (the semi-streaming backend out of core),
``mr_rounds`` (the MapReduce backend, serial, fused and on a process
pool with both shuffle transports) and ``serve_mix`` (``repro-densest
serve`` over HTTP, warm and cold).  ``BENCHMARK.json`` says why each
exists; ``perfbench/layers.json`` says which layer metric should move
which end-to-end metric on which workload.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
layer entry points, prints the per-layer metrics and writes the spans as
Chrome trace-event JSON (open it in Perfetto).  Every answer is checked
against the numpy-tier oracle outside the timed phase.  The last line of
standard output is one JSON object; the exit code is non-zero when any
operation failed or answered wrong.  ``--quick`` shrinks every input
for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("shard_solve", "stream_oocore", "mr_rounds", "serve_mix")
UNITS = {
    "setup_s": "s",
    "cold_p50_s": "s",
    "edges_per_s": "edges/s",
    "warm_p50_s": "s",
    "warm_p90_s": "s",
    "sustained_rps": "req/s",
    "goodput_rps": "req/s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
}
#: The metrics the result line carries, on every workload.  The serve_mix
#: warm latencies and sustained rate are printed but not carried: over
#: ten runs on a shared 2-vCPU box they spread by 0.3-0.6 of their
#: median, beyond any usable regression bound.  ``failed_frac`` travels
#: as ``failed``/``attempted`` and fails the run when it is not 0.
GATED = ("setup_s", "cold_p50_s", "edges_per_s", "goodput_rps", "peak_rss_mb")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true", help="reduced input sizes (self-tests)"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # A terminated run still unwinds, so the server it started is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    # Everything the program writes stays inside the checkout: spill
    # and compaction temp dirs, and the compiled C kernel.
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = None
    os.environ["REPRO_NATIVE_CACHE"] = str(ROOT / ".bench_build" / "native")
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    try:
        return _run(args, work, out_dir)
    finally:
        _stop_resource_tracker()
        shutil.rmtree(work, ignore_errors=True)


def _stop_resource_tracker(timeout: float = 10.0) -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    A process pool starts the tracker on first use and nothing stops it:
    left alone it outlives the run until it reads the end of its pipe.
    Closing our end of that pipe ends it once the pool's workers are
    gone; it is killed if it has not ended within ``timeout`` seconds.
    """
    module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(module, "_resource_tracker", None)
    pid = getattr(tracker, "_pid", None)
    if pid is None:
        return
    if tracker._fd is not None:
        os.close(tracker._fd)
        tracker._fd = None
    tracker._pid = None
    deadline = time.monotonic() + timeout
    try:
        while os.waitpid(pid, os.WNOHANG)[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.01)
    except ChildProcessError:
        pass


def _run(args, work: Path, out_dir: Path) -> int:
    from perfbench import batch, report, serve_mix
    from perfbench.common import environment
    from perfbench.trace import Tracer

    scale = 0.1 if args.quick else 1.0
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    started = time.perf_counter()
    try:
        if args.workload == "serve_mix":
            result = serve_mix.run(ROOT, work, args.seed, args.seconds, scale, tracer)
        else:
            spec = batch.workloads(scale)[args.workload]
            result = batch.run(spec, work, args.seed, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    failed = [op for op in result.ops if not op.ok]
    e2e = report.end_to_end(args.workload, result)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    doc = {
        "workload": args.workload,
        "seconds": args.seconds,
        "quick": args.quick,
        "run_wall_s": time.perf_counter() - started,
        "env": environment(ROOT, args.seed, result.stores),
        "end_to_end": {k: {"value": v, "unit": UNITS[k]} for k, v in e2e.items()},
        "setup_seconds": result.setup_seconds,
        "operations": report.by_label(result.ops),
        "failures": [f"{op.label}: {op.error}" for op in failed[:20]],
        "extra": {k: v for k, v in result.extra.items() if k != "stats"},
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(doc["env"], sort_keys=True))
    for name, value in e2e.items():
        print(f"metric {name} {value:.6g} {UNITS[name]}")
    metrics = {name: {"value": e2e[name], "unit": UNITS[name]} for name in GATED}
    if tracer is not None:
        layers = report.per_layer(args.workload, result, tracer)
        trace_path = out_dir / f"{stem}.trace.json"
        tracer.write_chrome_trace(trace_path)
        units = {m["name"]: m["unit"] for m in report.load_layers()["per_layer"]}
        metrics = {
            name: {"value": value, "unit": units[name]}
            for name, value in layers["metrics"].items()
        }
        for name, entry in metrics.items():
            print(f"layer {name} {entry['value']:.6g} {entry['unit']}")
        print(f"trace {trace_path.relative_to(ROOT)} ({layers['spans']} spans)")
        doc["per_layer"] = layers
    for failure in doc["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    report_path = out_dir / f"{stem}.report.json"
    report_path.write_text(json.dumps(doc, indent=1, sort_keys=True, default=str))
    print(f"report {report_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(result.ops),
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
