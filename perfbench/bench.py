"""One benchmark run: set-up, timed phase, metrics, checks and manifest.

With tracing off a run builds the system several times to time set-up,
keeps the last build, records the RSS baseline, drives the timed phase and
reports the end-to-end metrics. With tracing on it drives the same inputs
twice on fresh builds, first plain and then with spans, and reports the
per-layer metrics: span self times from the traced pass, everything else
from the plain one. The two passes must agree on every exact count.

Host-time metrics (throughput, latencies, recovery, set-up, tracing
overhead) are scaled to reference speed (see ``speed``); the run manifest
keeps them unscaled under ``host``.
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import sys
from dataclasses import asdict
from time import perf_counter

import numpy as np

from .spans import SpanRecorder
from .workloads import WORKLOADS, Run, new_run

#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 11
#: Reference kernel passes timed on each side of a set-up.
SETUP_REFERENCE_PASSES = 5

#: (name, unit, better) of every metric a run with tracing off reports.
END_TO_END = [
    ("throughput_rps", "req/s", "higher"),
    ("latency_p50_us", "us", "lower"),
    ("latency_p99_us", "us", "lower"),
    ("virtual_us_per_req", "us", "lower"),
    ("retained_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
]

#: Spans recorded in a traced run, on every workload (unused ones report 0).
SPANS = [
    "memcached.handle",
    "memcached.handle_batch",
    "memcached.parse",
    "sdrad.execute",
    "sdrad.execute_fault",
    "kvstore.get",
    "kvstore.get_many",
    "kvstore.set",
    "fleet.get",
    "fleet.set",
    "fleet.multiget",
    "fleet.health_tick",
]

#: (name, unit, better) of every metric a run with tracing on reports.
PER_LAYER = [
    metric
    for span in SPANS
    for metric in (
        (f"{span}.calls", "count", "lower"),
        (f"{span}.self_us_p50", "us", "lower"),
        (f"{span}.self_share", "ratio", "lower"),
    )
] + [
    ("trace.residual_share", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("error_rate", "ratio", "lower"),
    ("recovery_p50_us", "us", "lower"),
    ("recovery_p99_us", "us", "lower"),
    ("sdrad.entries_per_req", "count/req", "lower"),
    ("sdrad.reentry_hit_ratio", "ratio", "higher"),
    ("sdrad.rewinds", "count", "lower"),
    ("sdrad.gate_writes_per_req", "count/req", "lower"),
    ("sim.trace_events_per_req", "count/req", "lower"),
    ("memory.checked_accesses_per_req", "count/req", "lower"),
    ("memory.plan_hits_per_req", "count/req", "higher"),
    ("memory.plan_builds", "count", "lower"),
    ("memory.plan_shootdowns", "count", "lower"),
    ("memory.tlb_hit_ratio", "ratio", "higher"),
    ("memory.tlb_flushes", "count", "lower"),
    ("kvstore.hit_ratio", "ratio", "higher"),
    ("kvstore.evictions_per_set", "ratio", "lower"),
    ("kvstore.escaped_alloc_failures", "count", "lower"),
    ("fleet.scatter_batches_per_multiget", "ratio", "lower"),
    ("fleet.failovers", "count", "lower"),
    ("fleet.rejoins", "count", "lower"),
    ("fleet.restarts", "count", "lower"),
    ("fleet.errors", "count", "lower"),
    ("obs.spans_per_op", "count/op", "lower"),
    ("obs.dropped_ratio", "ratio", "lower"),
]


def percentile_us(samples_ns: np.ndarray, q: float) -> float:
    """The ``q``-th percentile (linear interpolation) in µs; 0 without samples."""
    if not samples_ns.size:
        return 0.0
    return float(np.percentile(samples_ns, q)) / 1e3


def rss_bytes() -> int:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _delta(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def _fresh(workload, inputs):
    gc.collect()
    world = workload.setup(inputs)
    gc.collect()
    return world


def _measure(workload, world, inputs, run: Run):
    """Drive the timed phase; return the run, its counts and any problems."""
    baseline = workload.counts(world)
    workload.drive(world, inputs, run)
    counts = _delta(workload.counts(world), baseline)
    return run, counts, workload.consistency(world)


def end_to_end(workload, inputs) -> tuple[dict, dict, Run, dict, list, str]:
    setups, scaled_setups = [], []
    reference = inputs["reference"]
    for _ in range(SETUP_REPEATS):
        world = None
        gc.collect()
        before = reference.factor(SETUP_REFERENCE_PASSES)
        started = perf_counter()
        world = workload.setup(inputs)
        took = perf_counter() - started
        factor = (before + reference.factor(SETUP_REFERENCE_PASSES)) / 2
        setups.append(took)
        scaled_setups.append(took * factor)
    run = new_run(inputs)
    gc.collect()
    rss_before = rss_bytes()
    _, counts, problems = _measure(workload, world, inputs, run)
    gc.collect()
    retained = rss_bytes() - rss_before
    latency = np.frombuffer(run.latency_ns, dtype=np.int64)
    scaled = latency * run.call_factors()
    values = {
        "throughput_rps": run.requests / (run.scaled_wall_ns / 1e9),
        "latency_p50_us": percentile_us(scaled, 50),
        "latency_p99_us": percentile_us(scaled, 99),
        "virtual_us_per_req": run.virtual_s * 1e6 / run.requests,
        "retained_mb": retained / 1e6,
        "setup_s": float(np.median(scaled_setups)),
    }
    host = {
        "throughput_rps": run.requests / (run.wall_ns / 1e9),
        "latency_p50_us": percentile_us(latency, 50),
        "latency_p99_us": percentile_us(latency, 99),
        "setup_s": float(np.median(setups)),
        "speed_factor": run.scaled_wall_ns / run.wall_ns,
    }
    return values, host, run, counts, problems, workload.backend(world)


def per_layer(
    workload, inputs, spans_path: str, seed: int
) -> tuple[dict, dict, Run, dict, list, str]:
    world = _fresh(workload, inputs)
    run, counts, problems = _measure(workload, world, inputs, new_run(inputs))
    backend = workload.backend(world)
    world = None

    world = _fresh(workload, inputs)
    rec = SpanRecorder()
    for name in SPANS:
        rec.name_index(name)
    workload.instrument(world, rec)
    traced, traced_counts, traced_problems = _measure(
        workload, world, inputs, new_run(inputs)
    )
    world = None
    problems = problems + traced_problems
    if traced_counts != counts:
        diff = {k: (counts.get(k), v) for k, v in traced_counts.items() if counts.get(k) != v}
        problems.append(f"tracing changed exact counts (plain, traced): {diff}")
    rec.write(spans_path, workload=workload.name, seed=seed)

    values = rec.summary(traced.wall_ns)
    accounted = values["trace.residual_share"] + sum(
        v for k, v in values.items() if k.endswith(".self_share")
    )
    if abs(accounted - 1.0) > 1e-9:
        problems.append(f"span self shares plus residual sum to {accounted}, not 1")
    values["trace.overhead_ratio"] = traced.scaled_wall_ns / run.scaled_wall_ns
    values.update(_layer_counts(run, counts))
    recovery = np.frombuffer(run.recovery_ns, dtype=np.int64)[: run.recoveries]
    at = np.frombuffer(run.recovery_call, dtype=np.int64)[: run.recoveries]
    scaled = recovery * run.call_factors()[at]
    values["recovery_p50_us"] = percentile_us(scaled, 50)
    values["recovery_p99_us"] = percentile_us(scaled, 99)
    host = {
        "trace.overhead_ratio": traced.wall_ns / run.wall_ns,
        "recovery_p50_us": percentile_us(recovery, 50),
        "recovery_p99_us": percentile_us(recovery, 99),
        "speed_factor": run.scaled_wall_ns / run.wall_ns,
    }
    return values, host, run, counts, problems, backend


def _layer_counts(run: Run, c: dict) -> dict:
    requests = run.requests
    spans = c.get("obs_spans", 0) + c.get("obs_dropped", 0)
    return {
        "error_rate": run.failed / requests,
        "sdrad.entries_per_req": c["entries"] / requests,
        "sdrad.reentry_hit_ratio": _ratio(
            c["reentry_hits"], c["reentry_hits"] + c["reentry_misses"]
        ),
        "sdrad.rewinds": c["rewinds"],
        "sdrad.gate_writes_per_req": c["gate_writes"] / requests,
        "sim.trace_events_per_req": c["trace_events"] / requests,
        "memory.checked_accesses_per_req": c["checked_accesses"] / requests,
        "memory.plan_hits_per_req": c["plan_hits"] / requests,
        "memory.plan_builds": c["plan_builds"],
        "memory.plan_shootdowns": c["plan_shootdowns"],
        "memory.tlb_hit_ratio": _ratio(c["tlb_hits"], c["tlb_hits"] + c["tlb_misses"]),
        "memory.tlb_flushes": c["tlb_flushes"],
        "kvstore.hit_ratio": _ratio(c["hits"], c["gets"]),
        "kvstore.evictions_per_set": _ratio(c["evictions"], c["sets"]),
        "kvstore.escaped_alloc_failures": run.raised.get("AllocationFailure", 0),
        "fleet.scatter_batches_per_multiget": _ratio(
            c.get("scatter_batches", 0), c.get("multigets", 0)
        ),
        "fleet.failovers": c.get("failovers", 0),
        "fleet.rejoins": c.get("rejoins", 0),
        "fleet.restarts": c.get("restarts", 0),
        "fleet.errors": c.get("fleet_errors", 0),
        "obs.spans_per_op": _ratio(spans, c.get("ops", 0)),
        "obs.dropped_ratio": _ratio(c.get("obs_dropped", 0), spans),
    }


def git_rev(root: str):
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as head:
            ref = head.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as packed:
            for line in packed:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: str) -> str:
    """SHA-256 over the package sources, for checkouts that are not git repos."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def run(root: str, workload_name: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run one workload; return the result, its manifest and any problems."""
    workload = WORKLOADS[workload_name]
    inputs = workload.generate(seed, seconds)
    # The inputs live through the whole run; frozen, the collector skips
    # them, so its passes in the timed phase scan only the program's objects.
    gc.collect()
    gc.freeze()
    if trace:
        out_dir = os.path.join(root, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"{workload_name}-spans.npz")
        values, host, run_, counts, problems, backend = per_layer(
            workload, inputs, spans_path, seed
        )
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        spans_path = None
        values, host, run_, counts, problems, backend = end_to_end(workload, inputs)
        units = {name: unit for name, unit, _ in END_TO_END}
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    manifest = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": asdict(workload.params),
        "calls": len(run_.latency_ns),
        "requests": run_.requests,
        "recovery_samples": run_.recoveries,
        "wrong": run_.wrong,
        "unavailable": run_.unavailable,
        "raised": run_.raised,
        "counts": counts,
        "host": host,
        "git_rev": git_rev(root),
        "source_sha256": source_digest(os.path.join(root, "src", "repro")),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "backend": backend,
        "spans_file": os.path.relpath(spans_path, root) if spans_path else None,
        "problems": problems,
    }
    result = {
        "correct": run_.wrong == 0 and not problems,
        "attempted": run_.requests,
        "failed": run_.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    return {"result": result, "manifest": manifest}
