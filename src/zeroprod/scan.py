"""Range scans: closed-form probability plus measured bounds per modulus."""

from __future__ import annotations

import itertools
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from zeroprod.errors import InvalidInputError
from zeroprod.factor import Factorization, factorization_str, factorize
from zeroprod.formulas import bound_chain, p_zn_from_factorization
from zeroprod.rings import Caps, DEFAULT_CAPS, Zn, ann_profile


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


def scan_row(n: int, caps: Caps = DEFAULT_CAPS) -> ScanRow:
    """One row: exact P(Z_n) from the closed form, k and m measured."""
    f = factorize(n)
    exact = p_zn_from_factorization(f)
    profile = ann_profile(Zn(n), caps)
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

    With jobs > 1 the items go to a pool of that many processes in chunks
    of ``chunksize``, and at most 2 * jobs chunks are in flight at once,
    so memory stays bounded however long ``items`` is.  ``fn`` must be
    picklable.
    """
    if jobs <= 1:
        yield from map(fn, items)
        return
    it = iter(items)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        pending = deque()
        while chunk := list(itertools.islice(it, chunksize)):
            if len(pending) >= 2 * jobs:
                yield from pending.popleft().result()
            pending.append(pool.submit(_map_chunk, fn, chunk))
        while pending:
            yield from pending.popleft().result()


def scan_rows(lo: int, hi: int, caps: Caps = DEFAULT_CAPS, jobs: int = 1):
    """Yield rows for n = lo..hi ascending; jobs > 1 parallelizes over n.

    Rows are emitted in ascending order regardless of worker count, so
    output bytes never depend on the jobs setting.
    """
    if lo < 2 or lo > hi:
        raise InvalidInputError(f"need 2 <= lo <= hi, got lo={lo} hi={hi}")
    yield from ordered_map(
        partial(scan_row, caps=caps), range(lo, hi + 1), jobs, chunksize=64
    )
