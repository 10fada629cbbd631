"""Command-line interface.

Subcommands: prob, bounds, scan, verify, montecarlo, graph.  All output
is deterministic given the arguments (including --seed); --jobs changes
wall time only, never bytes.  Exit codes: 0 success, 1 usage or invalid
input, 2 excluded ring, 3 resource limit exceeded, 4 verification
failure.  The enumeration caps apply to bounds, verify, graph and
prob --paranoid; scan and montecarlo enumerate no ring and take no cap.
The environment variable ZEROPROD_CAP overrides the default caps; an
explicit --cap wins over the environment.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import ExitStack
from fractions import Fraction

from zeroprod import kernels
from zeroprod.arith import rat_decimal, rat_str, sqrt_decimal
from zeroprod.errors import (
    ExcludedRingError,
    InvalidInputError,
    OracleMismatchError,
    ResourceLimitError,
    ZeroprodError,
)
from zeroprod.formulas import bounds_report, p_product, p_zn
from zeroprod.graph import (
    build_graph,
    export_dot,
    export_edges_csv,
    export_vertices_csv,
    graph_stats,
)
from zeroprod.montecarlo import DEFAULT_SEED, estimate_zero_pairs
from zeroprod.rings import Caps, RingSpec, Zn, parse_ring, prob_brute, ring_order
from zeroprod.scan import scan_rows
from zeroprod.verify import PAIRWISE_ORACLE_BOUND, run_verify

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_EXCLUDED = 2
EXIT_RESOURCE = 3
EXIT_VERIFY = 4


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors by default; 2 means excluded ring
    here, so remap usage problems to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _resolve_caps(cap: int | None) -> Caps:
    """Caps from --cap, else ZEROPROD_CAP, else the defaults; both need >= 2."""
    source = "--cap"
    if cap is None:
        env = os.environ.get("ZEROPROD_CAP")
        if env is None:
            return Caps()
        source = "ZEROPROD_CAP"
        try:
            cap = int(env)
        except ValueError:
            raise InvalidInputError(f"ZEROPROD_CAP must be an integer, got {env!r}") from None
    if cap < 2:
        raise InvalidInputError(f"{source} must be >= 2, got {cap}")
    return Caps(single=cap, pairwise=cap)


def _int_at_least(low: int):
    """argparse type for an integer >= low, so a bad value is a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _target_spec(args, parser: argparse.ArgumentParser) -> RingSpec:
    if args.ring is not None and args.n is not None:
        parser.error("give either a modulus or --ring, not both")
    if args.ring is not None:
        return parse_ring(args.ring)
    if args.n is None:
        parser.error("a modulus or --ring is required")
    return Zn(args.n)


def _csv_cell(value):
    """A CSV or table cell: booleans as true/false, None as empty."""
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    return value


def _emit_record(record: dict, fmt: str, out) -> None:
    """One logical record as aligned text, JSON, or a single CSV row."""
    if fmt == "json":
        print(json.dumps(record, indent=2, sort_keys=True), file=out)
        return
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(record.keys())
        writer.writerow(_csv_cell(v) for v in record.values())
        return
    width = max(len(k) for k in record)
    for key, value in record.items():
        print(f"{key:<{width}}  {'-' if value is None else _csv_cell(value)}", file=out)


def _closed_prob(spec: RingSpec) -> tuple[Fraction, str]:
    if isinstance(spec, Zn):
        return p_zn(spec.n), "closed-form"
    parts = [_closed_prob(f)[0] for f in spec.factors]
    return p_product(parts), "product"


def _cmd_prob(args, parser) -> int:
    caps = _resolve_caps(args.cap)
    spec = _target_spec(args, parser)
    value, path = _closed_prob(spec)
    if args.paranoid:
        brute = prob_brute(spec, paranoid=True, caps=caps)
        if brute != value:
            raise OracleMismatchError(
                f"brute force gives {rat_str(brute)} but the closed form "
                f"gives {rat_str(value)} for {spec}"
            )
        path += " (brute-verified)"
    record = {
        "ring": str(spec),
        "order": ring_order(spec),
        "p": rat_str(value),
        "decimal": rat_decimal(value, args.digits),
        "path": path,
    }
    _emit_record(record, args.format, sys.stdout)
    return EXIT_OK


def _cmd_bounds(args, parser) -> int:
    caps = _resolve_caps(args.cap)
    report = bounds_report(Zn(args.n), caps)
    _emit_record(report.to_dict(digits=args.digits), args.format, sys.stdout)
    return EXIT_OK if report.all_hold else EXIT_VERIFY


def _scan_record(row, digits: int) -> dict:
    return {
        "n": row.n,
        "factorization": row.factorization_text,
        "p": rat_str(row.exact),
        "p_decimal": rat_decimal(row.exact, digits),
        "lower": rat_str(row.lower),
        "upper": rat_str(row.upper),
        "zcount": row.zcount,
        "maxann": row.maxann,
        "bounds_hold": row.bounds_hold,
    }


# One template for the table header and every table row.
_SCAN_LINE = (
    "{n:>6}  {factorization:<22}  {p:<14}  {p_decimal:<10}  {lower:<14}  "
    "{upper:<14}  {zcount:>6}  {maxann:>6}  {bounds_hold}"
)
_SCAN_HEADER = _SCAN_LINE.format(
    n="n", factorization="factorization", p="P", p_decimal="decimal", lower="lower",
    upper="upper", zcount="zcount", maxann="maxann", bounds_hold="holds",
)


def _write_scan_csv(record: dict, first: bool) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    if first:
        writer.writerow(record.keys())
    writer.writerow(_csv_cell(v) for v in record.values())


def _write_scan_table(record: dict, first: bool) -> None:
    if first:
        print(_SCAN_HEADER)
    maxann = "-" if record["maxann"] is None else record["maxann"]
    holds = "yes" if record["bounds_hold"] else "NO"
    print(_SCAN_LINE.format(**{**record, "maxann": maxann, "bounds_hold": holds}))


def _cmd_scan(args, parser) -> int:
    if args.lo < 2 or args.lo > args.hi:
        parser.error(f"need 2 <= LO <= HI, got {args.lo} {args.hi}")
    records = []
    write = {
        "json": lambda record, first: records.append(record),
        "csv": _write_scan_csv,
        "table": _write_scan_table,
    }[args.format]
    all_hold, min_row, max_row = True, None, None
    for count, row in enumerate(scan_rows(args.lo, args.hi, jobs=args.jobs), 1):
        write(_scan_record(row, args.digits), first=count == 1)
        all_hold &= row.bounds_hold
        # min and max keep the earlier row on ties, so the lowest such n.
        min_row = min(min_row or row, row, key=lambda r: r.exact)
        max_row = max(max_row or row, row, key=lambda r: r.exact)
    min_p, max_p = rat_str(min_row.exact), rat_str(max_row.exact)
    if args.format == "json":
        summary = dict(
            rows=count, min_p=min_p, min_n=min_row.n, max_p=max_p, max_n=max_row.n,
            all_bounds_hold=all_hold,
        )
        print(json.dumps({"rows": records, "summary": summary}, indent=2, sort_keys=True))
    elif args.format == "table":
        print(
            f"scanned {count} rings: min P = {min_p} at n = {min_row.n}, "
            f"max P = {max_p} at n = {max_row.n}"
        )
    if not all_hold:
        print("WARNING: at least one bounds check failed", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_verify(args, parser) -> int:
    if args.max < 2:
        parser.error("--max must be >= 2")
    caps = _resolve_caps(args.cap)
    bound = caps.pairwise if args.paranoid else PAIRWISE_ORACLE_BOUND
    report = run_verify(args.max, caps, jobs=args.jobs, pairwise_bound=bound)
    for failure in report.failures:
        print(f"FAIL {failure.check} n={failure.n}: {failure.detail}")
    status = "PASS" if report.passed else "FAIL"
    print(
        f"verify [2, {report.max_n}]: {report.rings_checked} rings, "
        f"{report.checks_run} checks: {status}"
    )
    return EXIT_OK if report.passed else EXIT_VERIFY


def _cmd_montecarlo(args, parser) -> int:
    result = estimate_zero_pairs(args.n, args.samples, args.seed)
    record = {
        "ring": f"Zn({result.n})",
        "samples": result.samples,
        "seed": result.seed,
        "hits": result.hits,
        "estimate": rat_str(result.estimate),
        "estimate_decimal": rat_decimal(result.estimate, args.digits),
        "exact": rat_str(result.exact),
        "exact_decimal": rat_decimal(result.exact, args.digits),
        "abs_deviation": rat_str(result.abs_deviation),
        "deviation_decimal": rat_decimal(result.abs_deviation, args.digits),
        "std_error": sqrt_decimal(result.std_error_sq, args.digits),
        "within_3se": result.within_3se,
    }
    _emit_record(record, args.format, sys.stdout)
    return EXIT_OK


def _cmd_graph(args, parser) -> int:
    caps = _resolve_caps(args.cap)
    spec = _target_spec(args, parser)
    g = build_graph(spec, caps)
    stats = graph_stats(g)
    dot = export_dot(g)
    # Every text is built and every path opened before anything is written,
    # so an unwritable path ends the command with no partial output.
    files = []
    if args.dot is not None:
        files.append((args.dot, dot))
    if args.csv is not None:
        files.append((f"{args.csv}.edges.csv", export_edges_csv(g)))
        files.append((f"{args.csv}.vertices.csv", export_vertices_csv(g)))
    with ExitStack() as stack:
        handles = [
            (stack.enter_context(open(path, "w", encoding="utf-8")), text)
            for path, text in files
        ]
        if args.dot is None:
            sys.stdout.write(dot)
        for fh, text in handles:
            fh.write(text)
    stats_out = sys.stderr if args.dot is None else sys.stdout
    degrees = list(stats.degree_sequence)
    print(
        f"graph {spec}: vertices {stats.vertex_count}, edges {stats.edge_count}, "
        f"self-annihilators {stats.self_annihilator_count}, degrees {degrees}",
        file=stats_out,
    )
    return EXIT_OK


def _add_common(sub, *, fmt=True, digits=True, cap=True, jobs=False):
    if fmt:
        sub.add_argument(
            "--format",
            choices=["table", "json", "csv"],
            default="table",
            help="output format (default: table)",
        )
    if digits:
        sub.add_argument(
            "--digits",
            type=_int_at_least(0),
            default=6,
            help="fractional digits for decimal renderings (default: 6)",
        )
    if cap:
        sub.add_argument(
            "--cap",
            type=int,
            default=None,
            help="override both enumeration caps, >= 2 (default: 65536 "
            "single, 4096 pairwise; env ZEROPROD_CAP)",
        )
    if jobs:
        sub.add_argument(
            "--jobs",
            type=_int_at_least(1),
            default=1,
            help="worker processes; affects wall time only, never output",
        )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="zeroprod",
        description="Exact probability that two ring elements multiply to zero",
    )
    parser.add_argument(
        "--backend",
        action="store_true",
        help="print which kernel backend is active and exit",
    )
    subs = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = subs.add_parser("prob", help="exact P for Z_n or a product ring")
    p.add_argument("n", type=int, nargs="?", default=None, help="modulus n >= 2")
    p.add_argument("--ring", default=None, help='ring expression, e.g. "Zn(4)xZn(9)"')
    p.add_argument(
        "--paranoid",
        action="store_true",
        help="additionally verify by brute-force enumeration (cap applies)",
    )
    _add_common(p)

    b = subs.add_parser("bounds", help="measured bounds report for Z_n")
    b.add_argument("n", type=int, help="modulus n >= 2")
    _add_common(b)

    s = subs.add_parser("scan", help="per-n table over a range")
    s.add_argument("lo", type=int)
    s.add_argument("hi", type=int)
    _add_common(s, cap=False, jobs=True)

    v = subs.add_parser("verify", help="run the oracle/bounds suites")
    v.add_argument("--max", type=int, required=True, help="check all n in [2, MAX]")
    v.add_argument(
        "--paranoid",
        action="store_true",
        help=f"pair-enumerate up to the cap instead of {PAIRWISE_ORACLE_BOUND}",
    )
    _add_common(v, fmt=False, digits=False, jobs=True)

    m = subs.add_parser("montecarlo", help="seeded sampling experiment")
    m.add_argument("n", type=int, help="modulus n >= 2")
    m.add_argument("--samples", type=int, default=1_000_000)
    m.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"splitmix64 seed (default: {DEFAULT_SEED})",
    )
    _add_common(m, cap=False)

    g = subs.add_parser("graph", help="zero-divisor graph export")
    g.add_argument("n", type=int, nargs="?", default=None, help="modulus n >= 2")
    g.add_argument("--ring", default=None, help='ring expression, e.g. "Zn(4)xZn(9)"')
    g.add_argument("--dot", default=None, help="write DOT here instead of stdout")
    g.add_argument("--csv", default=None, help="write <PREFIX>.edges.csv and <PREFIX>.vertices.csv")
    _add_common(g, fmt=False, digits=False)

    return parser


_HANDLERS = {
    "prob": _cmd_prob,
    "bounds": _cmd_bounds,
    "scan": _cmd_scan,
    "verify": _cmd_verify,
    "montecarlo": _cmd_montecarlo,
    "graph": _cmd_graph,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.backend:
        print(f"kernel backend: {kernels.backend()}")
        return EXIT_OK
    if args.command is None:
        parser.error("a subcommand is required")
    handler = _HANDLERS[args.command]
    try:
        return handler(args, parser)
    except ExcludedRingError as exc:
        print(f"zeroprod: excluded ring: {exc}", file=sys.stderr)
        return EXIT_EXCLUDED
    except ResourceLimitError as exc:
        print(f"zeroprod: resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except OracleMismatchError as exc:
        print(f"zeroprod: verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (ZeroprodError, ValueError) as exc:
        print(f"zeroprod: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"zeroprod: i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
