"""Independent output oracle for the benchmark.

Nothing here imports zeroprod.  Every expected value is derived from the
factorization the benchmark generated (or trial-divided itself) with
textbook formulas:

* P(Z_n) = Pillai(n) / n^2, where Pillai(n) = sum_{d | n} d * phi(n/d)
  counts the ordered pairs with xy = 0 (Pillai's divisor sum);
* k = n - phi(n) - 1 and m = n / p_min (none for primes);
* P of a direct product is the product of the factors' P;
* the bound chain (2l + k - 1)/l^2 <= P <= (2l + (m-1)k - 1)/l^2;
* for zero-divisor graphs the handshake sum 2E + S = sum (gcd(x, n) - 1)
  over the zero-divisors x.

Each ``check_*`` function takes the exit code and captured output of one
CLI request and returns ``(failed_items, problems)``: how many of the
request's items are wrong and a short description of each problem.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import re
from fractions import Fraction

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 2**64."""
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n % w == 0:
            return n == w
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng, bits: int) -> int:
    """A uniformly drawn prime with exactly ``bits`` bits."""
    while True:
        x = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(x):
            return x


def trial_factor(n: int) -> dict[int, int]:
    """Prime factorization of a small n by trial division."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def factors_of(primes: list[int]) -> dict[int, int]:
    """Factorization dict of the product of a list of primes."""
    out: dict[int, int] = {}
    for p in primes:
        out[p] = out.get(p, 0) + 1
    return out


def value(fact: dict[int, int]) -> int:
    return math.prod(p**k for p, k in fact.items())


def phi(fact: dict[int, int]) -> int:
    return math.prod(p ** (k - 1) * (p - 1) for p, k in fact.items())


def pillai(fact: dict[int, int]) -> int:
    """sum_{d | n} d * phi(n/d), multiplicative over prime powers."""
    out = 1
    for p, k in fact.items():
        local = p**k  # d = p^k, phi(1) = 1
        for j in range(k):
            local += p**j * (p ** (k - j) - p ** (k - j - 1))
        out *= local
    return out


def p_zn(fact: dict[int, int]) -> Fraction:
    n = value(fact)
    return Fraction(pillai(fact), n * n)


def rat_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def decimal(q: Fraction, digits: int = 6) -> str:
    """Fixed point, rounded half up, as the CLI documents."""
    scale = 10**digits
    whole, frac = divmod((2 * q.numerator * scale + q.denominator) // (2 * q.denominator), scale)
    return f"{whole}.{frac:0{digits}d}"


def factorization_text(fact: dict[int, int]) -> str:
    return " * ".join(f"{p}^{k}" for p, k in sorted(fact.items()))


def parse_table(stdout: str) -> dict[str, str]:
    """The CLI's aligned ``key  value`` table as a dict."""
    out = {}
    for line in stdout.splitlines():
        key, _, rest = line.partition(" ")
        out[key] = rest.strip()
    return out


def _compare(record: dict[str, str], expected: dict[str, str]) -> list[str]:
    return [
        f"{key}: got {record.get(key)!r}, want {want!r}"
        for key, want in expected.items()
        if record.get(key) != want
    ]


def _exit_problem(rc, want: int = 0) -> list[str]:
    return [] if rc == want else [f"exit code {rc!r}, want {want}"]


def _all_or_nothing(items: int, problems: list[str]) -> tuple[int, list[str]]:
    return (items if problems else 0), problems


# -- prob ---------------------------------------------------------------


def check_prob(rc, stdout, stderr, *, ring, moduli, path, items=1):
    """``prob`` table output for Zn(n) or a product of Zn factors.

    ``moduli`` is a list of factorization dicts, one per Zn factor.
    """
    p = math.prod((p_zn(f) for f in moduli), start=Fraction(1))
    expected = {
        "ring": ring,
        "order": str(math.prod(value(f) for f in moduli)),
        "p": rat_str(p),
        "decimal": decimal(p),
        "path": path,
    }
    problems = _exit_problem(rc) + _compare(parse_table(stdout), expected)
    return _all_or_nothing(items, problems)


# -- scan ---------------------------------------------------------------


def scan_row(n: int) -> dict[str, str]:
    """Expected CSV cells of one ``scan`` row."""
    fact = trial_factor(n)
    p = p_zn(fact)
    k = n - phi(fact) - 1
    m = None if k == 0 else n // min(fact)
    lower = Fraction(2 * n + k - 1, n * n)
    upper = Fraction(2 * n + ((m or 1) - 1) * k - 1, n * n)
    return {
        "n": str(n),
        "factorization": factorization_text(fact),
        "p": rat_str(p),
        "p_decimal": decimal(p),
        "lower": rat_str(lower),
        "upper": rat_str(upper),
        "zcount": str(k),
        "maxann": "" if m is None else str(m),
        "bounds_hold": "true",
    }


def check_scan_csv(rc, stdout, stderr, *, lo, hi):
    """``scan LO HI --format csv``: one checked row per n."""
    rows = list(csv.DictReader(io.StringIO(stdout)))
    wanted = range(lo, hi + 1)
    if rc != 0 or len(rows) != len(wanted):
        return len(wanted), _exit_problem(rc) + [f"{len(rows)} rows, want {len(wanted)}"]
    failed, problems = 0, []
    for n, row in zip(wanted, rows):
        bad = _compare(row, scan_row(n))
        if bad:
            failed += 1
            problems += [f"n={n} {b}" for b in bad]
    return failed, problems


# -- verify -------------------------------------------------------------


def verify_checks(max_n: int) -> int:
    """3 checks per ring, plus 1 per prime power in [2, max_n]."""
    prime_powers = sum(1 for n in range(2, max_n + 1) if len(trial_factor(n)) == 1)
    return 3 * (max_n - 1) + prime_powers


def check_verify(rc, stdout, stderr, *, max_n):
    want = f"verify [2, {max_n}]: {max_n - 1} rings, {verify_checks(max_n)} checks: PASS"
    lines = stdout.splitlines()
    problems = _exit_problem(rc)
    if lines != [want]:
        problems.append(f"output {lines!r}, want {[want]!r}")
    return _all_or_nothing(max_n - 1, problems)


# -- montecarlo ---------------------------------------------------------


def check_montecarlo(rc, stdout, stderr, *, n, samples, seed, seen_hits, items):
    """Exact value, estimate, 3-SE flag, and hits repeatable per seed.

    ``seen_hits`` maps (n, samples, seed) to the hits of the first run
    with those arguments; later runs must report the same count.
    """
    record = parse_table(stdout)
    problems = _exit_problem(rc)
    try:
        hits = int(record.get("hits", ""))
    except ValueError:
        return items, problems + [f"unreadable hits {record.get('hits')!r}"]
    exact = p_zn(trial_factor(n))
    estimate = Fraction(hits, samples)
    deviation = abs(estimate - exact)
    within = deviation * deviation <= 9 * exact * (1 - exact) / samples
    expected = {
        "ring": f"Zn({n})",
        "samples": str(samples),
        "seed": str(seed),
        "estimate": rat_str(estimate),
        "exact": rat_str(exact),
        "exact_decimal": decimal(exact),
        "abs_deviation": rat_str(deviation),
        "within_3se": "true" if within else "false",
    }
    problems += _compare(record, expected)
    first = seen_hits.setdefault((n, samples, seed), hits)
    if first != hits:
        problems.append(f"hits {hits} differ from an earlier run with the same seed ({first})")
    return _all_or_nothing(items, problems)


# -- graph --------------------------------------------------------------


def graph_expectation(moduli: list[int]) -> tuple[int, int, int]:
    """(vertices, handshake sum, self-annihilators) of Z(Zn(m1) x ...)."""
    vertices = handshake = selfann = 0
    for x in itertools.product(*(range(m) for m in moduli)):
        ann = math.prod(math.gcd(c, m) for c, m in zip(x, moduli))
        if not any(x) or ann < 2:
            continue
        vertices += 1
        handshake += ann - 1
        selfann += all(c * c % m == 0 for c, m in zip(x, moduli))
    return vertices, handshake, selfann


_GRAPH_LINE = re.compile(
    r"graph (?P<ring>\S+): vertices (?P<v>\d+), edges (?P<e>\d+), "
    r"self-annihilators (?P<s>\d+), degrees \[(?P<deg>[\d, ]*)\]\Z"
)


def _line_count(path) -> int | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return sum(1 for _ in fh)
    except OSError:
        return None


def check_graph(rc, stdout, stderr, *, ring, moduli, dot, csv_prefix, items):
    """Stats line, handshake identity, and DOT/CSV line counts."""
    problems = _exit_problem(rc)
    match = _GRAPH_LINE.match(stdout.strip())
    if match is None:
        return items, problems + [f"unreadable stats line {stdout.strip()!r}"]
    v, e, s = (int(match[k]) for k in "ves")
    degrees = [int(d) for d in match["deg"].split(",") if d.strip()]
    want_v, handshake, want_s = graph_expectation(moduli)
    if match["ring"] != ring:
        problems.append(f"ring {match['ring']}, want {ring}")
    if (v, s) != (want_v, want_s):
        problems.append(f"vertices/self-annihilators {v}/{s}, want {want_v}/{want_s}")
    if 2 * e + s != handshake:
        problems.append(f"2E + S = {2 * e + s}, want {handshake}")
    if len(degrees) != v or sum(degrees) != 2 * e:
        problems.append("degree sequence does not match the vertex and edge counts")
    for path, want in (
        (dot, v + e + 2),
        (f"{csv_prefix}.edges.csv", e + 1),
        (f"{csv_prefix}.vertices.csv", v + 1),
    ):
        got = _line_count(path)
        if got != want:
            problems.append(f"{path}: {got} lines, want {want}")
    return _all_or_nothing(items, problems)
