"""Self-verification suites: oracles and bound invariants over a range.

Four named checks run for every n in [2, max_n]:

  triple-oracle       closed form == Pillai divisor sum == measured
                      brute count (pair enumeration additionally
                      cross-checks the measured count for small n)
  ann-buckets         |Ann(0)| = l, units size 1, k <= l - 2, m <= l/2
                      when k > 0, and measured k, m equal the derived
  bounds-chain        lower <= exact <= upper <= 1/2 + 1/l^2 <= 3/4,
                      evaluated once ann-buckets has passed
  prime-power-profile measured annihilator profile matches the
                      valuation-partition prediction when n = p^k

A ring is judged on two size -> count histograms of its annihilators:
the measured one, from one pass of the sieve kernel
(:func:`zeroprod.rings.ann_histogram`), and the derived one,
{d: phi(n/d)}, from the factorization
(:func:`zeroprod.formulas.ann_histogram_from_factorization`).  One pass
over the measured histogram gives |Ann|, k and m.  One
comparison, ``same`` (equal histograms of equal orders), stands in for
the Pillai count, the derived k and m and the prime-power profile; only
a ring that fails it sums and scans the derived histogram too.  The legs
are compared as counts |Ann| = P*l^2 of zero-product pairs, and an
``AnnProfile``, a ``Fraction`` or detail text is built only inside a
check that fails, so a passing ring builds none.  A failed check, an
impossible measured structure included, is reported, never raised: the
caller decides the exit code.
"""

from __future__ import annotations

import itertools
import os
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import prod

from zeroprod.arith import rat_str, ratio_str
from zeroprod.errors import InvalidInputError
from zeroprod.factor import factorize
from zeroprod.formulas import ann_histogram_from_factorization, bound_chain, p_zn_ratio
from zeroprod.rings import (
    AnnProfile, Caps, DEFAULT_CAPS, Zn, _require_single, ann_histogram, pair_count,
)

# Pair enumeration is quadratic, so the triple-oracle check runs it only
# up to this bound by default; the other legs cover the whole range.
PAIRWISE_ORACLE_BOUND = 300


def _map_chunk(fn, chunk: list) -> list:
    return [fn(item) for item in chunk]


def ordered_map(fn, items, jobs: int, chunksize: int):
    """Yield fn(item) for every item, in input order.

    ``items`` is a range of step 1, of any length: its chunks are counted
    without ``len``, which overflows beyond 2**63 items.  The chunks of
    ``chunksize`` go to a pool of min(jobs, chunks, CPUs) processes with at
    most two chunks per process in flight, so memory stays bounded; with
    one process there is no pool.
    ``fn`` must be picklable.  The pool module is imported here, not at
    the top: it is a sixth of the CLI's import time, and only a
    multi-process verify uses it.
    """
    workers = min(jobs, -((items.start - items.stop) // chunksize), os.cpu_count() or 1)
    if workers <= 1:
        yield from map(fn, items)
        return
    from concurrent.futures import ProcessPoolExecutor

    it = iter(items)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        while chunk := list(itertools.islice(it, chunksize)):
            if len(pending) >= 2 * workers:
                yield from pending.popleft().result()
            pending.append(pool.submit(_map_chunk, fn, chunk))
        while pending:
            yield from pending.popleft().result()


@dataclass(frozen=True)
class CheckFailure:
    check: str
    n: int
    detail: str


@dataclass
class VerifyReport:
    max_n: int
    rings_checked: int = 0
    checks_run: int = 0
    failures: list[CheckFailure] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def _rat(count: int, l2: int) -> str:
    """count / l^2 as reduced "num/den" text, for a failure detail."""
    return rat_str(Fraction(count, l2))


def _tally(hist: dict[int, int], order: int) -> tuple[int, int, int | None, int]:
    """(|Ann|, k, m, sizes outside [2, order)) of a size -> count histogram
    of a ring of the given order, in one pass: |Ann| sums size * count
    over every size, and k and m are the count and the largest of the
    sizes from 2 to order - 1 (the nonzero zero-divisors), m None
    without any."""
    total = zcount = inner = 0
    maxann = None
    for size, cnt in hist.items():
        total += size * cnt
        if 2 <= size < order:
            inner += 1
            zcount += cnt
            if maxann is None or size > maxann:
                maxann = size
    return total, zcount, maxann, len(hist) - inner


def _check_n(n: int, caps: Caps, pairwise_bound: int) -> tuple[int, list[CheckFailure]]:
    failures = []
    spec = Zn(n)
    l2 = n * n

    f = factorize(n)
    num, den = p_zn_ratio(f)
    derived = ann_histogram_from_factorization(f)
    hist = ann_histogram(spec, caps)
    order = prod(p**k for p, k in f)
    count, zcount, maxann, outside = _tally(hist, n)
    # Equal histograms of equal orders have equal |Ann|, k, m and profile.
    same = order == n and derived == hist
    pillai, dzcount, dmaxann, _ = (count, zcount, maxann, 0) if same else _tally(derived, order)
    pairs = pair_count(spec, caps) if n <= min(pairwise_bound, caps.pairwise) else None
    # Once the measured count meets the closed form, every other leg must
    # equal it.
    if count * den != num * l2 or pillai != count or pairs not in (None, count):
        legs = [f"closed={ratio_str(num, den)}"]
        named = (("pillai", pillai), ("measured", count), ("pairs", pairs))
        legs += [f"{name}={_rat(c, l2)}" for name, c in named if c is not None]
        failures.append(CheckFailure("triple-oracle", n, " ".join(legs)))

    # The zero bucket (sizes >= n) must be {n: 1} and the units bucket
    # (sizes below 2) {1: n - 1 - k}: two sizes outside [2, n) in all.
    if outside != 2 or hist.get(n) != 1 or hist.get(1) != n - 1 - zcount:
        profile = AnnProfile.from_histogram(hist, n)
        if profile.zero != {n: 1}:
            detail = f"zero bucket is {profile.zero}"
        else:
            detail = f"rest bucket is {profile.rest}"
    elif zcount > n - 2:
        detail = f"k = {zcount} > l - 2 = {n - 2}"
    elif maxann is not None and 2 * maxann > n:
        detail = f"m = {maxann} > l/2"
    elif (zcount, maxann) != (dzcount, dmaxann):
        detail = f"measured k, m = {zcount}, {maxann} but derived {dzcount}, {dmaxann}"
    else:
        detail = None
    if detail is not None:
        failures.append(CheckFailure("ann-buckets", n, detail))
    else:
        lower, upper, holds = bound_chain(n, zcount, maxann, (count, l2))
        if not holds:
            detail = f"lower={_rat(lower, l2)} exact={_rat(count, l2)} upper={_rat(upper, l2)}"
            failures.append(CheckFailure("bounds-chain", n, detail))

    # Two histograms bucket alike when no size is in the zero bucket of
    # one order and not of the other.
    if len(f) == 1 and not same and (
        derived != hist or any((size >= n) != (size >= order) for size in hist)
    ):
        predicted = AnnProfile.from_histogram(derived, order)
        detail = f"predicted {predicted} measured {AnnProfile.from_histogram(hist, n)}"
        failures.append(CheckFailure("prime-power-profile", n, detail))
    return 3 + (len(f) == 1), failures


def run_verify(
    max_n: int,
    caps: Caps = DEFAULT_CAPS,
    jobs: int = 1,
    pairwise_bound: int = PAIRWISE_ORACLE_BOUND,
) -> VerifyReport:
    """Run every check for 2 <= n <= max_n and collect failures."""
    if max_n < 2:
        raise InvalidInputError("max_n must be >= 2")
    _require_single(Zn(max_n), caps)
    report = VerifyReport(max_n=max_n)
    check = partial(_check_n, caps=caps, pairwise_bound=pairwise_bound)
    # Smaller chunks spend most of what a second worker gains on round
    # trips to the pool.
    for checks, failures in ordered_map(check, range(2, max_n + 1), jobs, chunksize=256):
        report.rings_checked += 1
        report.checks_run += checks
        report.failures.extend(failures)
    return report
