#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the zeroprod command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it benchmarks the ``src/zeroprod``
next to it, on whatever kernel backend that tree imports.  Set-up time is
the median over several fresh interpreters of launch to ``import
zeroprod.cli`` done.  The workload itself runs in one child process
(worker.py), a closed loop with a single client; see WORKLOADS.md.

With ``--trace 0`` the run reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics from the spans.  Readable lines
come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
PROBE = "import zeroprod.cli; print('ready', flush=True)"
# Beyond --seconds, how long the worker may take before it is killed.
WORKER_GRACE_S = 120


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _setup_time() -> float:
    """Seconds from launching an interpreter to ``zeroprod.cli`` imported."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", PROBE], stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT
    ) as probe:
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - start
        probe.stdout.read()
    if probe.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {probe.returncode}")
    return elapsed


def _metadata() -> dict:
    package = SRC / "zeroprod"

    def lines(paths):
        return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in paths)

    commit = None
    if (ROOT / ".git").exists():
        found = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = found.stdout.strip() or None
    generated = package / "_kernels.c"
    return {
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "lines_py": lines(sorted(package.glob("*.py"))),
        "lines_pyx": lines(sorted(package.glob("*.pyx"))),
        "lines_generated_c": lines([generated]) if generated.exists() else 0,
    }


def _expected_names(trace: bool) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "zeroprod" / "cli.py").is_file():
        print(f"perfbench: no zeroprod source under {SRC}", file=sys.stderr)
        return 2
    traced = bool(args.trace)

    setup = [_setup_time() for _ in range(SETUP_PROBES)]
    tmp = tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT)
    try:
        done = subprocess.run(
            [
                sys.executable,
                str(HERE / "worker.py"),
                f"--workload={args.workload}",
                f"--seed={args.seed}",
                f"--seconds={args.seconds}",
                f"--trace={args.trace}",
                f"--tmp={tmp}",
            ],
            capture_output=True,
            text=True,
            env=_env(),
            cwd=ROOT,
            timeout=args.seconds + WORKER_GRACE_S,
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        print(f"perfbench: worker exited with code {done.returncode}", file=sys.stderr)
        return 1
    result = json.loads(done.stdout.splitlines()[-1])

    meta = _metadata()
    meta.update(
        python=result["python"],
        backend=result["backend"],
        compiled_importable=result["compiled_importable"],
    )
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# meta {json.dumps(meta, sort_keys=True)}")
    for problem in result["problems"]:
        print(f"# FAIL {problem}")
    for kind, (count, median_ms) in result["by_kind"].items():
        print(f"# {kind:<18} {count:>6} requests, median {median_ms:.3f} ms")
    attempted, failed = result["attempted"], result["failed"]
    print(f"# fail_ratio {failed / attempted:.6g} ({failed} of {attempted} items failed)")

    if traced:
        print(f"# passes untraced/traced: {result['passes']['untraced']}/{result['passes']['traced']}")
        if args.workload == "verify-oracles":
            print("# verify-oracles traced with --jobs 1: spans in forked pool workers would be lost")
        print(f"# {'span':<40} {'calls':>8} {'self_s':>10} {'total_s':>10} {'elements':>12}")
        for name, s in sorted(result["spans"].items()):
            print(
                f"# {name:<40} {s['calls']:>8} {s['self_s']:>10.4f} "
                f"{s['total_s']:>10.4f} {s['elements']:>12}"
            )
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in result["layer"].items()}
    else:
        print(f"# setup_s is the median of {SETUP_PROBES} launches: " + ", ".join(f"{t:.4f}" for t in setup))
        print(
            f"# {result['passes']} passes, {result['requests']} requests; latency_tail_ms is "
            f"p{result['tail_percentile']:.1f} (highest percentile with at least ten samples "
            "beyond it; the maximum below 50 samples)"
        )
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": result["wall_s"], "unit": "s"},
            "items_per_s": {"value": result["items_per_s"], "unit": "1/s"},
            "latency_p50_ms": {"value": result["latency_p50_ms"], "unit": "ms"},
            "latency_tail_ms": {"value": result["latency_tail_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{name:<48} {m['value']:>16.6g} {m['unit']}")
    if sorted(metrics) != sorted(_expected_names(traced)):
        print("perfbench: reported metrics do not match BENCHMARK.json", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
