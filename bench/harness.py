"""Measurement loop of the echosent benchmark.

One workload runs per process. Set-up is repeated ``SETUP_REPEATS`` times and
its median counts. Then one closed-loop caller runs operations back to back
until the run's seconds are used up. Only the operation itself is timed;
output checks run between operations. In a traced run, untraced and traced
rounds of the same operations alternate, so the tracing overhead is measured
on the same work in the same process.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import spans
from workloads import WORKLOADS, percentile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def metric_specs() -> dict[str, dict[str, str]]:
    """End-to-end and per-layer metric units, as BENCHMARK.json declares them."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m["unit"] for m in doc["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in doc["per_layer"]},
    }


def load_reference(name: str, seed: int, scale: str):
    path = BENCH / "reference.json"
    if not path.is_file():
        return None
    doc = json.loads(path.read_text(encoding="utf-8"))
    return doc.get(scale, {}).get(name, {}).get(str(seed))


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        **{var: os.environ.get(var) for var in THREAD_PINS},
    }


def _run_op(wl, i: int) -> float | None:
    """Time one operation; record its observed output. None if it raised."""
    t = time.perf_counter()
    try:
        wl.op(i)
    except Exception:  # a failed operation is counted, and the run goes on
        traceback.print_exc(file=sys.stderr)
        wl.results.append((i, None))
        return None
    elapsed = time.perf_counter() - t
    wl.results.append((i, wl.observe(i)))
    return elapsed


def _timed_phase(wl, seconds: float) -> list[tuple[int, float]]:
    """(operation, seconds) of every operation that did not raise."""
    timings = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(wl.round_ops) or time.perf_counter() < deadline:
        elapsed = _run_op(wl, i)
        if elapsed is not None:
            timings.append((i, elapsed))
        i += 1
    return timings


def _traced_phase(wl, seconds: float, tracer: spans.Tracer) -> tuple[list[float], list[float]]:
    """Alternate untraced and traced rounds; returns the wall times of each."""
    walls: tuple[list[float], list[float]] = ([], [])
    deadline = time.perf_counter() + seconds
    r = 0
    while r < 2 or time.perf_counter() < deadline:
        traced = r % 2 == 1
        if traced:
            tracer.round = len(walls[1])
            tracer.install()
        try:
            times = [_run_op(wl, i) for i in wl.round_ops]
        finally:
            if traced:
                tracer.uninstall()
        if None not in times:
            walls[traced].append(sum(times))
        r += 1
    return walls


def measure(name: str, seed: int, seconds: float, trace: bool, *, scale: str = "full",
            import_s: float = 0.0, workdir: Path | None = None) -> dict:
    """Run one workload; returns the result object plus report lines."""
    wl = WORKLOADS[name](seed, scale)
    workdir = workdir or ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    try:
        prep = []
        for k in range(SETUP_REPEATS):
            t = time.perf_counter()
            wl.prepare(workdir / f"setup{k}")
            prep.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(prep)
        if trace:
            tracer = spans.Tracer()
            walls = _traced_phase(wl, seconds, tracer)
        else:
            timings = _timed_phase(wl, seconds)
        wl.finish()
        reference = load_reference(name, seed, scale)
        failed = wl.failures(reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed.update({k: "raised" for k, (_, got) in enumerate(wl.results) if got is None})
    attempted = len(wl.results)

    lines = [
        f"# workload {name} seed {seed} scale {scale} trace {int(trace)} seconds {seconds:g}",
        f"# machine {json.dumps(machine_facts(), sort_keys=True)}",
        f"# inputs {json.dumps({'seed': seed, **wl.shapes()}, sort_keys=True)}",
        "# reference " + ("recorded for this seed" if reference is not None
                          else "not recorded for this seed: in-run checks only"),
    ]
    lines += [f"# failed op {k}: {why}" for k, why in sorted(failed.items())[:10]]
    specs = metric_specs()
    if trace:
        if not walls[0] or not walls[1]:
            raise RuntimeError("no complete untraced and traced round")
        rounds = [spans.round_metrics(tracer, r) for r in range(len(walls[1]))]
        values = {}
        for key in rounds[0]:
            if specs["per_layer"].get(key) == "count":
                values[key] = rounds[0][key]
            else:
                values[key] = statistics.median(m[key] for m in rounds)
        values["trace.overhead_s"] = statistics.median(walls[1]) - statistics.median(walls[0])
        trace_path = workdir.parent / "traces" / f"{name}-seed{seed}.jsonl.gz"
        tracer.write(trace_path, tracer.spans[0].start if tracer.spans else 0.0)
        lines.append(f"# trace {len(tracer.spans)} spans in {len(walls[1])} traced rounds "
                     f"written to {trace_path}")
        wanted = specs["per_layer"]
    else:
        by_kind: dict[str, list[float]] = {}
        for i, t in timings:
            by_kind.setdefault(wl.kind(i), []).append(1000 * t)
        if set(by_kind) != {wl.kind(i) for i in wl.round_ops}:
            raise RuntimeError("some kind of operation never completed")
        items = sum(wl.items(i) for i, _ in timings)
        values = {
            "setup_s": setup_s,
            "items_per_s": items / sum(t for _, t in timings),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        for kind, ms in sorted(by_kind.items()):
            ms.sort()
            lines.append(f"{kind}: p50 {percentile(ms, 50):.2f} ms, p90 {percentile(ms, 90):.2f} ms, "
                         f"best {ms[0]:.2f} ms (n={len(ms)})")
        lines.append(f"{wl.item_name}_per_s: {values['items_per_s']:.2f} 1/s")
        lines += wl.report(timings)
        wanted = specs["end_to_end"]
    lines.append(f"error_rate: {len(failed) / attempted:.4f} ({len(failed)} failed / {attempted} attempted)")
    lines += [f"{key}: {values[key]:.6g} {unit}" for key, unit in wanted.items()]
    return {
        "lines": lines,
        "result": {
            "correct": not failed,
            "attempted": attempted,
            "failed": len(failed),
            "metrics": {key: {"value": values[key], "unit": unit} for key, unit in wanted.items()},
        },
    }
