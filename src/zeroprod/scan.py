"""Range scans: P, k, m and the bound chain per modulus, from its factorization."""

from __future__ import annotations

import itertools
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from zeroprod.errors import InvalidInputError
from zeroprod.factor import Factorization, factorization_str, factorize
from zeroprod.formulas import ann_profile_from_factorization, bound_chain, p_zn_from_factorization

_FACTOR_LIMIT = 1 << 64


@dataclass(frozen=True)
class ScanRow:
    n: int
    factorization: Factorization
    exact: Fraction
    lower: Fraction
    upper: Fraction
    zcount: int
    maxann: int | None
    bounds_hold: bool

    @property
    def factorization_text(self) -> str:
        return factorization_str(self.factorization)


def scan_row(n: int) -> ScanRow:
    """One row: exact P(Z_n), k and m from the factorization of n."""
    f = factorize(n)
    exact = p_zn_from_factorization(f)
    profile = ann_profile_from_factorization(f)
    lower, upper, hold = bound_chain(n, profile.zcount, profile.maxann, exact)
    return ScanRow(
        n=n,
        factorization=f,
        exact=exact,
        lower=lower,
        upper=upper,
        zcount=profile.zcount,
        maxann=profile.maxann,
        bounds_hold=hold,
    )


def _map_chunk(fn, chunk: list) -> list:
    return [fn(item) for item in chunk]


def ordered_map(fn, items, jobs: int, chunksize: int):
    """Yield fn(item) for every item, in input order.

    ``items`` is a range.  Its chunks of ``chunksize`` go to a pool of
    min(jobs, chunks, CPUs) processes with at most two chunks per process
    in flight, so memory stays bounded; with one process there is no pool.
    ``fn`` must be picklable.
    """
    workers = min(jobs, -(-len(items) // chunksize), os.cpu_count() or 1)
    if workers <= 1:
        yield from map(fn, items)
        return
    it = iter(items)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        while chunk := list(itertools.islice(it, chunksize)):
            if len(pending) >= 2 * workers:
                yield from pending.popleft().result()
            pending.append(pool.submit(_map_chunk, fn, chunk))
        while pending:
            yield from pending.popleft().result()


def scan_rows(lo: int, hi: int, jobs: int = 1):
    """Yield rows for n = lo..hi ascending; jobs > 1 parallelizes over n.

    Rows are emitted in ascending order regardless of worker count, so
    output bytes never depend on the jobs setting.  hi must be below
    2**64, where every modulus is guaranteed to factor; the check runs
    before the first row.
    """
    if lo < 2 or lo > hi:
        raise InvalidInputError(f"need 2 <= lo <= hi, got lo={lo} hi={hi}")
    if hi >= _FACTOR_LIMIT:
        raise InvalidInputError(f"scan needs hi < 2**64, got hi={hi}")
    yield from ordered_map(scan_row, range(lo, hi + 1), jobs, chunksize=64)
