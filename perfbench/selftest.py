#!/usr/bin/env python3
"""Self-test of the benchmark's output oracle.

    python3 perfbench/selftest.py

Runs small real CLI requests, checks that the oracle accepts their
output, then corrupts either an expected value or the output and checks
that the oracle reports a failure.  Exits 1 if any clean output is
rejected or any corruption goes unnoticed.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

import oracle

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from zeroprod import cli  # noqa: E402


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def main() -> int:
    tmp = tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT)
    dot, prefix = os.path.join(tmp, "g.dot"), os.path.join(tmp, "g")
    ring_dot, ring_prefix = os.path.join(tmp, "r.dot"), os.path.join(tmp, "r")
    try:
        scan = run(["scan", "2", "60", "--format", "csv"])
        verify = run(["verify", "--max", "60"])
        prob = run(["prob", "9991"])
        ring = run(["prob", "--ring", "Zn(6)xZn(35)"])
        paranoid = run(["prob", "360", "--paranoid"])
        mc = run(["montecarlo", "12", "--samples", "2000", "--seed", "5"])
        graph = run(["graph", "12", "--dot", dot, "--csv", prefix])
        graph_ring = run(["graph", "--ring", "Zn(4)xZn(6)", "--dot", ring_dot, "--csv", ring_prefix])
        f9991 = {97: 1, 103: 1}
        ring_moduli = [{2: 1, 3: 1}, {5: 1, 7: 1}]
        hits = oracle.parse_table(mc[1])["hits"]
        # The last row (n = 60) with its P cell replaced.
        head, last = scan[1].rstrip("\n").rsplit("\n", 1)
        cells = last.split(",")
        cells[2] = "1/1"
        scan_corrupt = f"{head}\n{','.join(cells)}\n"

        def truncate(path):
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(lines[:-1])

        # (label, check result, items the check must report as failed)
        cases = [
            ("scan clean", lambda: oracle.check_scan_csv(*scan, lo=2, hi=60), 0),
            ("scan expected range shifted", lambda: oracle.check_scan_csv(*scan, lo=3, hi=61), 59),
            (
                "scan one p corrupted",
                lambda: oracle.check_scan_csv(scan[0], scan_corrupt, scan[2], lo=2, hi=60),
                1,
            ),
            ("verify clean", lambda: oracle.check_verify(*verify, max_n=60), 0),
            ("verify expected max wrong", lambda: oracle.check_verify(*verify, max_n=61), 60),
            ("verify exit code wrong", lambda: oracle.check_verify(4, *verify[1:], max_n=60), 59),
            (
                "prob clean",
                lambda: oracle.check_prob(*prob, ring="Zn(9991)", moduli=[f9991], path="closed-form"),
                0,
            ),
            (
                "prob expected factorization wrong",
                lambda: oracle.check_prob(
                    *prob, ring="Zn(9991)", moduli=[{97: 1, 101: 1}], path="closed-form"
                ),
                1,
            ),
            (
                "ring clean",
                lambda: oracle.check_prob(*ring, ring="Zn(6)xZn(35)", moduli=ring_moduli, path="product"),
                0,
            ),
            (
                "ring expected factor wrong",
                lambda: oracle.check_prob(
                    *ring, ring="Zn(6)xZn(35)", moduli=[{2: 1, 3: 1}, {5: 1, 7: 2}], path="product"
                ),
                1,
            ),
            (
                "paranoid clean",
                lambda: oracle.check_prob(
                    *paranoid,
                    ring="Zn(360)",
                    moduli=[oracle.trial_factor(360)],
                    path="closed-form (brute-verified)",
                    items=360**2,
                ),
                0,
            ),
            (
                "paranoid expected path wrong",
                lambda: oracle.check_prob(
                    *paranoid, ring="Zn(360)", moduli=[oracle.trial_factor(360)], path="closed-form"
                ),
                1,
            ),
        ]
        seen: dict = {}
        cases += [
            (
                "montecarlo clean",
                lambda: oracle.check_montecarlo(*mc, n=12, samples=2000, seed=5, seen_hits=seen, items=2000),
                0,
            ),
            (
                "montecarlo same seed again",
                lambda: oracle.check_montecarlo(*mc, n=12, samples=2000, seed=5, seen_hits=seen, items=2000),
                0,
            ),
            (
                "montecarlo hits differ for one seed",
                lambda: oracle.check_montecarlo(
                    *mc, n=12, samples=2000, seed=5, seen_hits={(12, 2000, 5): int(hits) + 1}, items=2000
                ),
                2000,
            ),
            (
                "montecarlo expected n wrong",
                lambda: oracle.check_montecarlo(*mc, n=13, samples=2000, seed=5, seen_hits={}, items=2000),
                2000,
            ),
            (
                "graph clean",
                lambda: oracle.check_graph(*graph, ring="Zn(12)", moduli=[12], dot=dot, csv_prefix=prefix, items=7),
                0,
            ),
            (
                "graph ring clean",
                lambda: oracle.check_graph(
                    *graph_ring,
                    ring="Zn(4)xZn(6)",
                    moduli=[4, 6],
                    dot=ring_dot,
                    csv_prefix=ring_prefix,
                    items=7,
                ),
                0,
            ),
            (
                "graph expected modulus wrong",
                lambda: oracle.check_graph(*graph, ring="Zn(12)", moduli=[18], dot=dot, csv_prefix=prefix, items=7),
                7,
            ),
            (
                "graph DOT file truncated",
                lambda: (truncate(dot), oracle.check_graph(
                    *graph, ring="Zn(12)", moduli=[12], dot=dot, csv_prefix=prefix, items=7
                ))[1],
                7,
            ),
        ]
        wrong = 0
        for label, check, want in cases:
            failed, problems = check()
            ok = failed == want and bool(problems) == (want > 0)
            wrong += not ok
            detail = problems[0] if problems else "no problems"
            print(f"{'ok ' if ok else 'BAD'} {label}: {failed} failed items ({detail})")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(cases) - wrong} of {len(cases)} cases as expected")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
