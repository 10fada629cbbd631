"""One benchmark run: a single client calling ``zeroprod.cli.main``.

Started by run.py with ``PYTHONPATH`` pointing at the checkout's
``src``.  It runs passes of the workload one request at a time until the
next pass would overrun ``--seconds``, checks every output with the
oracle, and prints one JSON object with the measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import itertools
import json
import random
import resource
import statistics
import sys
import time

import spans
import workloads

MAX_PROBLEMS = 20


def _call(cli, argv):
    """Run one request; returns (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an escaped traceback is a failed request
            rc = f"uncaught {type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - start


def _layer_metrics(stats: dict, items: int, overhead: float) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from span stats."""

    def get(name):
        return stats.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "elements": 0})

    def self_sum(prefix):
        return sum(s["self_s"] for name, s in stats.items() if name.startswith(prefix))

    m = {}
    for kernel in spans.TARGETS["kernels"]:
        s = get(f"kernels.{kernel}")
        m[f"kernels.{kernel}.calls"] = (s["calls"], "count")
        m[f"kernels.{kernel}.self_s"] = (s["self_s"], "s")
        m[f"kernels.{kernel}.elements"] = (s["elements"], "count")
        rate = s["elements"] / s["total_s"] if s["total_s"] else 0.0
        m[f"kernels.{kernel}.elements_per_s"] = (rate, "1/s")
    hist = get("kernels.ann_size_histogram_zn")
    m["kernels.ann_size_histogram_zn.per_item"] = (hist["calls"] / items, "calls/item")
    fact = get("factor.factorize")
    m["factor.factorize.calls"] = (fact["calls"], "count")
    m["factor.factorize.self_s"] = (fact["self_s"], "s")
    m["factor.factorize.per_item"] = (fact["calls"] / items, "calls/item")
    split = get("factor.find_nontrivial_factor")
    m["factor.find_nontrivial_factor.calls"] = (split["calls"], "count")
    m["factor.find_nontrivial_factor.self_s"] = (split["self_s"], "s")
    m["formulas.self_s"] = (self_sum("formulas."), "s")
    m["arith.render.self_s"] = (self_sum("arith."), "s")
    m["cli.main.self_s"] = (get("cli.main")["self_s"], "s")
    m["rings.self_s"] = (self_sum("rings."), "s")
    m["scan.scan_row.self_s"] = (get("scan.scan_row")["self_s"], "s")
    m["verify.run_verify.self_s"] = (get("verify.run_verify")["self_s"], "s")
    m["graph.build_graph.self_s"] = (get("graph.build_graph")["self_s"], "s")
    m["graph.export.self_s"] = (self_sum("graph.export_"), "s")
    m["montecarlo.estimate_zero_pairs.self_s"] = (
        get("montecarlo.estimate_zero_pairs")["self_s"],
        "s",
    )
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


def run(cli, workload: str, seed: int, seconds: float, traced: bool, tmp: str) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    ctx = workloads.Context(tmp=tmp, traced=traced)
    passes = workloads.WORKLOADS[workload](rng, ctx)
    recorder = spans.Recorder() if traced else None
    # Pass times by whether the pass was traced; a traced run alternates.
    times = {False: [], True: []}
    latencies = []
    by_kind: dict[str, list[float]] = {}
    busy = 0.0
    attempted = failed = traced_items = 0
    problems = []
    begin = time.perf_counter()
    for index in itertools.count():
        trace_pass = traced and index % 2 == 1
        if trace_pass:
            recorder.install()
        pass_time = 0.0
        for request in next(passes):
            rc, out, err, seconds_taken = _call(cli, request.argv)
            pass_time += seconds_taken
            latencies.append(seconds_taken)
            by_kind.setdefault(request.kind, []).append(seconds_taken)
            bad, found = request.check(rc, out, err)
            attempted += request.items
            failed += bad
            traced_items += request.items if trace_pass else 0
            for problem in found[: MAX_PROBLEMS - len(problems)]:
                problems.append(f"{' '.join(request.argv)}: {problem}")
        if trace_pass:
            recorder.uninstall()
        times[trace_pass].append(pass_time)
        busy += pass_time
        next_kind = traced and index % 2 == 0
        if traced and not times[True]:
            continue  # a traced run measures at least one traced pass
        expected = statistics.median(times[next_kind] or times[not next_kind])
        if time.perf_counter() - begin + expected > seconds:
            break

    result = {
        "workload": workload,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "backend": sys.modules["zeroprod.kernels"].backend(),
        "by_kind": {k: (len(v), 1000 * statistics.median(v)) for k, v in by_kind.items()},
    }
    if traced:
        overhead = statistics.median(times[True]) / statistics.median(times[False])
        stats = recorder.stats()
        result["spans"] = stats
        result["layer"] = _layer_metrics(stats, traced_items, overhead)
        result["passes"] = {"untraced": len(times[False]), "traced": len(times[True])}
        return result
    ordered = sorted(latencies)
    count = len(ordered)
    # Highest percentile with at least ten samples beyond it; below 50
    # samples that would sit under p80, so take the maximum instead.
    tail_index = count - 11 if count >= 50 else count - 1
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pool = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result.update(
        passes=len(times[False]),
        requests=count,
        tail_percentile=100.0 * (tail_index + 1) / count,
        wall_s=busy / len(times[False]),
        items_per_s=attempted / busy,
        latency_p50_ms=1000 * statistics.median(ordered),
        latency_tail_ms=1000 * ordered[tail_index],
        peak_rss_mb=(own + pool) / 1024,
    )
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--tmp", required=True)
    args = parser.parse_args()

    cli = importlib.import_module("zeroprod.cli")
    result = run(cli, args.workload, args.seed, args.seconds, bool(args.trace), args.tmp)
    try:
        importlib.import_module("zeroprod._kernels")
        result["compiled_importable"] = True
    except ImportError:
        result["compiled_importable"] = False
    result["python"] = sys.version.split()[0]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
