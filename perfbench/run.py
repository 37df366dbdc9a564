"""Seeded serving benchmark for the SDRaD reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload kv_attack --seed 0 --seconds 10 --trace 0

``--workload all`` runs every workload in turn, each in a child process,
and ends with one JSON line whose metrics are named ``<workload>.<metric>``.

It builds nothing: the package is imported from ``src/`` of the same
checkout, and the command fails without a result when ``src/repro`` is
absent. Standard output ends with one JSON line holding ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``); the line before it is
the run manifest. A traced run also writes its spans under
``.perfbench_out/``. The exit code is 1 when the runtime's books do not
balance or tracing changed an exact count, 2 when the package is missing.

Host-time metrics are scaled to a fixed host speed measured beside the
program (see ``speed.py``); the manifest keeps the raw host figures.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("kv_pipelined", "kv_attack", "fleet_failover")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        code = max(code, child.returncode)
        if not lines or not lines[-1].startswith('{"correct"'):
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no package at {os.path.join(src, 'repro')}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [src, ROOT]
    from perfbench import bench

    out = bench.run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    result, manifest = out["result"], out["manifest"]
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}")
    print(
        f"{'attempted':40s} {result['attempted']:>16d} "
        f"({manifest['calls']} latency samples, "
        f"{manifest['recovery_samples']} recovery samples)"
    )
    print(
        f"{'failed':40s} {result['failed']:>16d} (wrong {manifest['wrong']}, "
        f"unavailable {manifest['unavailable']}, raised {manifest['raised']})"
    )
    for problem in manifest["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"manifest": manifest}, sort_keys=True))
    print(json.dumps(result))
    return 1 if manifest["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
