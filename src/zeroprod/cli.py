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
import functools
import json
import os
import sys
import tempfile
from contextlib import contextmanager, suppress
from fractions import Fraction

from zeroprod import kernels
from zeroprod.arith import rat_decimal, rat_str, ratio_decimal, ratio_str, sqrt_decimal
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


# Python refuses to render an integer of more digits as text, so more
# fractional digits could only fail after the work was done.
MAX_DIGITS = 4300


def _int_between(low: int, high: int | None = None):
    """argparse type for an integer in [low, high], so a bad value is a
    usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _file_path(text: str) -> str:
    """argparse type for an output path or prefix: one that names no file
    ("" or a directory such as "out/") is a usage error."""
    if not os.path.basename(text):
        raise argparse.ArgumentTypeError(f"must end in a file name, got {text!r}")
    return text


def _target_spec(args, parser: argparse.ArgumentParser) -> RingSpec:
    if args.ring is not None and args.n is not None:
        parser.error("give either a modulus or --ring, not both")
    if args.ring is not None:
        return parse_ring(args.ring)
    if args.n is None:
        parser.error("a modulus or --ring is required")
    return Zn(args.n)


def _csv_cell(value) -> str:
    """A CSV or table cell: booleans as true/false, None as empty."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else str(value)


def _emit_record(record: dict, fmt: str, out) -> None:
    """One logical record as aligned text, JSON, or a single CSV row.  No
    CSV cell needs quoting: none holds a comma, a quote or a newline."""
    if fmt == "json":
        print(json.dumps(record, indent=2, sort_keys=True), file=out)
        return
    if fmt == "csv":
        out.write(",".join(record) + "\n" + ",".join(map(_csv_cell, record.values())) + "\n")
        return
    width = max(len(k) for k in record)
    for key, value in record.items():
        print(f"{key:<{width}}  {'-' if value is None else _csv_cell(value)}", file=out)


def _closed_prob(spec: RingSpec) -> tuple[Fraction, str]:
    parts = [p_zn(m) for m in spec.moduli]
    if len(parts) == 1:
        return parts[0], "closed-form"
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
        "p": ratio_str(*row.exact),
        "p_decimal": ratio_decimal(*row.exact, digits),
        "lower": ratio_str(*row.lower),
        "upper": ratio_str(*row.upper),
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
_SCAN_CSV_HEADER = "n,factorization,p,p_decimal,lower,upper,zcount,maxann,bounds_hold\n"


def _scan_csv_line(row, digits: int) -> str:
    """One CSV row, the cells of :func:`_scan_record` in its order.  No
    cell needs quoting: each is an integer, "p^e * ...", "a/b" (as
    ``ratio_str`` writes it), a fixed-point decimal, true, false or empty."""
    (p, q), (a, b), (c, d) = row.exact, row.lower, row.upper
    maxann = "" if row.maxann is None else row.maxann
    holds = "true" if row.bounds_hold else "false"
    return (
        f"{row.n},{row.factorization_text},{p}/{q},{ratio_decimal(p, q, digits)},"
        f"{a}/{b},{c}/{d},{row.zcount},{maxann},{holds}\n"
    )


def _scan_json_item(row, digits: int) -> str:
    """One item of the ``rows`` array of ``scan --format json``, indented
    to its depth in the whole document."""
    text = json.dumps(_scan_record(row, digits), indent=2, sort_keys=True)
    return "    " + text.replace("\n", "\n    ")


def _scan_table_line(row, digits: int) -> str:
    return _SCAN_LINE.format(
        n=row.n,
        factorization=row.factorization_text,
        p=ratio_str(*row.exact),
        p_decimal=ratio_decimal(*row.exact, digits),
        lower=ratio_str(*row.lower),
        upper=ratio_str(*row.upper),
        zcount=row.zcount,
        maxann="-" if row.maxann is None else row.maxann,
        bounds_hold="yes" if row.bounds_hold else "NO",
    ) + "\n"


def _less(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """a < b for reduced (num, den) pairs with den >= 1."""
    return a[0] * b[1] < b[0] * a[1]


def _cmd_scan(args, parser) -> int:
    if args.lo < 2 or args.lo > args.hi:
        parser.error(f"need 2 <= LO <= HI, got {args.lo} {args.hi}")
    rows = scan_rows(args.lo, args.hi)
    head, render = {
        "json": ('{\n  "rows": [\n', _scan_json_item),
        "csv": (_SCAN_CSV_HEADER, _scan_csv_line),
        "table": (_SCAN_HEADER + "\n", _scan_table_line),
    }[args.format]
    write = sys.stdout.write
    write(head)
    all_hold, min_row, max_row = True, None, None
    for count, row in enumerate(rows, 1):
        if count > 1 and args.format == "json":
            write(",\n")
        write(render(row, args.digits))
        all_hold &= row.bounds_hold
        # min and max keep the earlier row on ties, so the lowest such n.
        if min_row is None:
            min_row = max_row = row
        elif _less(row.exact, min_row.exact):
            min_row = row
        elif _less(max_row.exact, row.exact):
            max_row = row
    min_p, max_p = ratio_str(*min_row.exact), ratio_str(*max_row.exact)
    if args.format == "json":
        summary = dict(
            rows=count, min_p=min_p, min_n=min_row.n, max_p=max_p, max_n=max_row.n,
            all_bounds_hold=all_hold,
        )
        summary_text = json.dumps(summary, indent=2, sort_keys=True).replace("\n", "\n  ")
        print(f'\n  ],\n  "summary": {summary_text}\n}}')
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


@contextmanager
def _naming(path: str):
    """Report an OSError against ``path``, not the temporary file behind it."""
    try:
        yield
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def _write_files(files: list[tuple[str, str]]) -> None:
    """Write each (path, text), touching no path unless every text was written.

    Each text goes to a temporary file beside its target, and the
    temporaries replace their targets only after all of them are written.
    On any error the temporaries left over are removed, and the error
    names the target path.
    """
    umask = os.umask(0)
    os.umask(umask)
    pending = []
    try:
        for path, text in files:
            folder, name = os.path.split(path)
            with _naming(path):
                fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=folder or ".")
                pending.append((tmp, path))
                with open(fd, "w", encoding="utf-8") as fh:
                    os.fchmod(fd, 0o666 & ~umask)  # the mode open(path, "w") would give
                    fh.write(text)
        while pending:
            with _naming(pending[0][1]):
                os.replace(*pending[0])
            pending.pop(0)
    finally:
        for tmp, _ in pending:
            with suppress(OSError):
                os.unlink(tmp)


def _cmd_graph(args, parser) -> int:
    caps = _resolve_caps(args.cap)
    spec = _target_spec(args, parser)
    g = build_graph(spec, caps)
    stats = graph_stats(g)
    dot = export_dot(g)
    # Every file is written before stdout, so an unwritable path ends the
    # command with no partial output and every existing file intact.
    files = []
    if args.dot is not None:
        files.append((args.dot, dot))
    if args.csv is not None:
        files.append((f"{args.csv}.edges.csv", export_edges_csv(g)))
        files.append((f"{args.csv}.vertices.csv", export_vertices_csv(g)))
    _write_files(files)
    if args.dot is None:
        sys.stdout.write(dot)
    stats_out = sys.stderr if args.dot is None else sys.stdout
    degrees = list(stats.degree_sequence)
    print(
        f"graph {spec}: vertices {stats.vertex_count}, edges {stats.edge_count}, "
        f"self-annihilators {stats.self_annihilator_count}, degrees {degrees}",
        file=stats_out,
    )
    return EXIT_OK


def _add_common(sub, *, fmt=True, digits=True, cap=True, jobs_help=None):
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
            type=_int_between(0, MAX_DIGITS),
            default=6,
            help=f"fractional digits for decimal renderings, 0 to {MAX_DIGITS} (default: 6)",
        )
    if cap:
        sub.add_argument(
            "--cap",
            type=int,
            default=None,
            help="override both enumeration caps, >= 2 (default: 65536 "
            "single, 4096 pairwise; env ZEROPROD_CAP)",
        )
    if jobs_help is not None:
        sub.add_argument("--jobs", type=_int_between(1), default=1, help=jobs_help)


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
    _add_common(s, cap=False, jobs_help="accepted and ignored: a scan runs in one process")

    v = subs.add_parser("verify", help="run the oracle/bounds suites")
    v.add_argument("--max", type=int, required=True, help="check all n in [2, MAX]")
    v.add_argument(
        "--paranoid",
        action="store_true",
        help=f"pair-enumerate up to the cap instead of {PAIRWISE_ORACLE_BOUND}",
    )
    _add_common(
        v,
        fmt=False,
        digits=False,
        jobs_help="worker processes; affects wall time only, never output",
    )

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
    g.add_argument(
        "--dot", type=_file_path, default=None, help="write DOT here instead of stdout"
    )
    g.add_argument(
        "--csv",
        type=_file_path,
        default=None,
        help="write <PREFIX>.edges.csv and <PREFIX>.vertices.csv",
    )
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


# Built on the first call and reused: parsing leaves no state in the
# parser, and building one makes a cyclic object graph that only the
# garbage collector frees.  Never built at import.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _parser()
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
