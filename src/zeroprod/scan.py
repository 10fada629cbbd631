"""Range scans: P, k, m and the bound chain per modulus, from its factorization.

Every value in a row is an integer formula of the prime powers p^e of
n: P(Z_n) is the product of ((e+1)p - e) / p^(e+1), phi(n) the product
of p^(e-1) (p - 1), k = n - phi(n) - 1 and m = n / p_min.  A row is
computed from them with integers only, in O(omega(n)) after factoring:
no annihilator histogram is built and no ``Fraction`` is made, and every
rational is a reduced integer pair (num, den).  The bound chain is
decided by the unchecked core of :func:`zeroprod.formulas.bound_chain`,
because k, m and P come from a proven factorization; the public
``bound_chain`` still validates its inputs.  The command line formats
each CSV and table row straight from the row, as one string.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from math import gcd

from zeroprod.errors import InvalidInputError
from zeroprod.factor import _PRIME_LIMIT, Factorization, factorization_str, factorize
from zeroprod.formulas import _chain, p_zn_ratio


@dataclass(frozen=True)
class ScanRow:
    """One modulus of a scan; ``exact``, ``lower`` and ``upper`` are
    reduced (num, den) pairs, and ``maxann`` is None when k = 0."""

    n: int
    factorization: Factorization
    exact: tuple[int, int]
    lower: tuple[int, int]
    upper: tuple[int, int]
    zcount: int
    maxann: int | None
    bounds_hold: bool

    @property
    def factorization_text(self) -> str:
        return factorization_str(self.factorization)


def _over_square(num: int, l2: int) -> tuple[int, int]:
    g = gcd(num, l2)
    return num // g, l2 // g


def scan_row(n: int) -> ScanRow:
    """One row: exact P(Z_n), k, m and the bound chain from the factorization of n."""
    f = factorize(n)
    exact = p_zn_ratio(f)
    phi = 1
    for p, e in f:
        phi *= p ** (e - 1) * (p - 1)
    zcount = n - phi - 1
    maxann = n // f[0][0] if zcount else None
    lower, upper, hold = _chain(n, zcount, maxann, *exact)
    l2 = n * n
    return ScanRow(
        n=n,
        factorization=f,
        exact=exact,
        lower=_over_square(lower, l2),
        upper=_over_square(upper, l2),
        zcount=zcount,
        maxann=maxann,
        bounds_hold=hold,
    )


def scan_rows(lo: int, hi: int) -> Iterator[ScanRow]:
    """An iterator over the rows for n = lo..hi ascending, in this process.

    Computing a row costs less than pickling it to a worker process and
    back, so a process pool would only slow a scan down.  hi must be
    below 2**64, where every modulus is guaranteed to factor; the range
    is checked by this call, so a bad one raises before any row exists.
    """
    if lo < 2 or lo > hi:
        raise InvalidInputError(f"need 2 <= lo <= hi, got lo={lo} hi={hi}")
    if hi >= _PRIME_LIMIT:
        raise InvalidInputError(f"scan needs hi < 2**64, got hi={hi}")
    return map(scan_row, range(lo, hi + 1))
