"""Every scan row, in every output format, equals the same row derived
here with ``Fraction`` from the definitions."""

import csv
import io
import json
import math
import subprocess
import sys
from fractions import Fraction

import pytest

from zeroprod.cli import (
    _SCAN_CSV_HEADER,
    _SCAN_HEADER,
    _SCAN_LINE,
    _csv_cell,
    _scan_csv_line,
    _scan_record,
    _scan_table_line,
    main,
)
from zeroprod.factor import factorization_str, factorize
from zeroprod.scan import scan_row


def _decimal(q, digits):
    """q rounded half up to ``digits`` fractional digits."""
    whole, frac = divmod(math.floor(q * 10**digits + Fraction(1, 2)), 10**digits)
    return f"{whole}.{frac:0{digits}d}" if digits else str(whole)


def _k_and_m(n, f):
    """k = |Z(Z_n)| - 1 and m = max |Ann(x)| = max gcd(x, n) over the
    nonzero zero-divisors: counted directly for small n, else from phi."""
    if n <= 3000:
        sizes = [math.gcd(x, n) for x in range(1, n) if math.gcd(x, n) > 1]
        return len(sizes), max(sizes, default=None)
    phi = math.prod(p ** (e - 1) * (p - 1) for p, e in f)
    k = n - phi - 1
    return k, (n // f[0][0] if k else None)


def _expected_rows(lo, hi):
    """(record with p_decimal unset, P) for each n in [lo, hi]."""
    rows = []
    for n in range(lo, hi + 1):
        f = factorize(n)
        p = math.prod(
            (Fraction((e + 1) * q - e, q ** (e + 1)) for q, e in f), start=Fraction(1)
        )
        k, m = _k_and_m(n, f)
        lower = Fraction(2 * n + k - 1, n * n)
        upper = Fraction(2 * n + ((m or 1) - 1) * k - 1, n * n)
        cap = Fraction(1, 2) + Fraction(1, n * n)
        record = {
            "n": n,
            "factorization": factorization_str(f),
            "p": f"{p.numerator}/{p.denominator}",
            "p_decimal": None,
            "lower": f"{lower.numerator}/{lower.denominator}",
            "upper": f"{upper.numerator}/{upper.denominator}",
            "zcount": k,
            "maxann": m,
            "bounds_hold": lower <= p <= upper <= cap <= Fraction(3, 4),
        }
        rows.append((record, p))
    return rows


def _csv_text(value):
    if value is None:
        return ""
    return str(value).lower() if isinstance(value, bool) else str(value)


def _table_line(record):
    maxann = "-" if record["maxann"] is None else record["maxann"]
    return _SCAN_LINE.format(**{**record, "maxann": maxann, "bounds_hold": "yes"})


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    return captured.out


RANGES = [(2, 3000), (2**32 - 50, 2**32 + 50), (2**64 - 50, 2**64 - 1)]


@pytest.mark.parametrize("lo,hi", RANGES)
def test_scan_rows_equal_fraction_derivation(capsys, lo, hi):
    rows = _expected_rows(lo, hi)
    assert all(record["bounds_hold"] for record, _ in rows)
    # min and max return the first of equal values: the lowest n.
    low = min(rows, key=lambda row: row[1])[0]
    high = max(rows, key=lambda row: row[1])[0]
    for digits in (0, 6, 12):
        records = [{**record, "p_decimal": _decimal(p, digits)} for record, p in rows]
        args = ["scan", str(lo), str(hi), "--digits", str(digits)]

        out = _run(capsys, *args, "--format", "csv")
        assert out.splitlines()[0] == ",".join(records[0])
        cells = [{key: _csv_text(v) for key, v in record.items()} for record in records]
        assert list(csv.DictReader(io.StringIO(out))) == cells

        data = json.loads(_run(capsys, *args, "--format", "json"))
        assert data["rows"] == records
        assert data["summary"] == {
            "rows": len(records),
            "min_p": low["p"],
            "min_n": low["n"],
            "max_p": high["p"],
            "max_n": high["n"],
            "all_bounds_hold": True,
        }

        lines = _run(capsys, *args).splitlines()
        assert lines[0] == _SCAN_HEADER
        assert lines[1:-1] == [_table_line(record) for record in records]
        assert lines[-1] == (
            f"scanned {len(records)} rings: min P = {low['p']} at n = {low['n']}, "
            f"max P = {high['p']} at n = {high['n']}"
        )


@pytest.mark.parametrize("n", [2, 2**61 - 1, 2**64 - 2, 2**64 - 1])
@pytest.mark.parametrize("digits", [0, 6, 4300])
def test_row_templates_equal_the_record_renderings(n, digits):
    """The CSV template writes what csv.writer writes of the record's
    cells, and the table template what _SCAN_LINE makes of the record."""
    row = scan_row(n)
    record = _scan_record(row, digits)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(record)
    writer.writerow(_csv_cell(v) for v in record.values())
    assert _SCAN_CSV_HEADER + _scan_csv_line(row, digits) == out.getvalue()
    maxann = "-" if record["maxann"] is None else record["maxann"]
    holds = "yes" if record["bounds_hold"] else "NO"
    table = _SCAN_LINE.format(**{**record, "maxann": maxann, "bounds_hold": holds})
    assert _scan_table_line(row, digits) == table + "\n"


@pytest.mark.parametrize("lo,hi", [(7, 7), (2, 300), (2**64 - 50, 2**64 - 1)])
def test_streamed_json_equals_one_dump_of_the_document(capsys, lo, hi):
    """The rows are written one at a time, yet the bytes are those of one
    ``json.dumps`` of the whole document."""
    out = _run(capsys, "scan", str(lo), str(hi), "--format", "json")
    rows = [_scan_record(scan_row(n), 6) for n in range(lo, hi + 1)]
    document = {"rows": rows, "summary": json.loads(out)["summary"]}
    assert out == json.dumps(document, indent=2, sort_keys=True) + "\n"


# Scans 30,001 rings as JSON with stdout sent to /dev/null, then prints
# its exit code and its peak resident size in KiB.  The peak is VmHWM,
# which starts afresh at exec; ru_maxrss would also hold the peak of the
# test process that forked it.
_JSON_SCAN_RSS = """
import contextlib, os
from zeroprod import cli
with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
    code = cli.main(["scan", "1000000", "1030000", "--format", "json"])
with open("/proc/self/status") as status:
    peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(code, peak)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_json_scan_memory_does_not_grow_with_the_range():
    # Holding every row's record until the end takes 94 MB for this range.
    done = subprocess.run(
        [sys.executable, "-c", _JSON_SCAN_RSS], capture_output=True, text=True, timeout=300
    )
    code, peak_kib = map(int, done.stdout.split())
    assert code == 0, done.stderr
    assert peak_kib < 40 * 1024
