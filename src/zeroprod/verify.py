"""Self-verification suites: oracles and bound invariants over a range.

Four named checks run for every n in [2, max_n]:

  triple-oracle       closed form == Pillai divisor sum == measured
                      brute count (pair enumeration additionally
                      cross-checks the measured count for small n)
  ann-buckets         |Ann(0)| = l, zero-divisors have size >= 2 and
                      units size 1, k <= l - 2, m <= l/2 when k > 0, and
                      measured k, m equal those derived from n's factors
  bounds-chain        lower <= exact <= upper <= 1/2 + 1/l^2 <= 3/4
  prime-power-profile measured annihilator profile matches the
                      valuation-partition prediction when n = p^k

A failure is reported, never raised: the caller decides the exit code.
"""

from __future__ import annotations

import itertools
import os
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from zeroprod.arith import rat_make, rat_str
from zeroprod.errors import InvalidInputError, ResourceLimitError
from zeroprod.factor import factorize
from zeroprod.formulas import ann_profile_from_factorization, bound_chain, p_zn_from_factorization
from zeroprod.rings import Caps, DEFAULT_CAPS, Zn, ann_profile, pair_count

# Pair enumeration is quadratic, so the triple-oracle check runs it only
# up to this bound by default; the other legs cover the whole range.
PAIRWISE_ORACLE_BOUND = 300


def _map_chunk(fn, chunk: list) -> list:
    return [fn(item) for item in chunk]


def ordered_map(fn, items, jobs: int, chunksize: int):
    """Yield fn(item) for every item, in input order.

    ``items`` is a range.  Its chunks of ``chunksize`` go to a pool of
    min(jobs, chunks, CPUs) processes with at most two chunks per process
    in flight, so memory stays bounded; with one process there is no pool.
    ``fn`` must be picklable.  The pool module is imported here, not at
    the top: it is a sixth of the CLI's import time, and only a
    multi-process verify uses it.
    """
    workers = min(jobs, -(-len(items) // chunksize), os.cpu_count() or 1)
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


def _check_n(n: int, caps: Caps, pairwise_bound: int) -> tuple[int, list[CheckFailure]]:
    failures = []
    spec = Zn(n)
    checks = 0

    f = factorize(n)
    closed = p_zn_from_factorization(f)
    derived = ann_profile_from_factorization(f)
    pillai = Fraction(derived.ann_count(), n * n)
    profile = ann_profile(spec, caps)
    count = profile.ann_count()
    measured = rat_make(count, n * n)
    legs = {"closed": closed, "pillai": pillai, "measured": measured}
    if n <= min(pairwise_bound, caps.pairwise):
        legs["pairs"] = Fraction(pair_count(spec, caps), n * n)
    checks += 1
    if len(set(legs.values())) > 1:
        detail = " ".join(f"{name}={rat_str(q)}" for name, q in legs.items())
        failures.append(CheckFailure("triple-oracle", n, detail))

    zcount, maxann = profile.zcount, profile.maxann
    checks += 1
    if profile.zero != {n: 1}:
        detail = f"zero bucket is {profile.zero}"
    elif any(size < 2 for size in profile.zdiv):
        detail = f"zdiv sizes {sorted(profile.zdiv)}"
    elif profile.rest != {1: n - 1 - zcount}:
        detail = f"rest bucket is {profile.rest}"
    elif zcount > n - 2:
        detail = f"k = {zcount} > l - 2 = {n - 2}"
    elif maxann is not None and 2 * maxann > n:
        detail = f"m = {maxann} > l/2"
    elif (zcount, maxann) != (derived.zcount, derived.maxann):
        detail = f"measured k, m = {zcount}, {maxann} but derived {derived.zcount}, {derived.maxann}"
    else:
        detail = None
    if detail is not None:
        failures.append(CheckFailure("ann-buckets", n, detail))

    lower, upper, holds = bound_chain(n, zcount, maxann, (count, n * n))
    checks += 1
    if not holds:
        lower_q, upper_q = Fraction(lower, n * n), Fraction(upper, n * n)
        detail = f"lower={rat_str(lower_q)} exact={rat_str(measured)} upper={rat_str(upper_q)}"
        failures.append(CheckFailure("bounds-chain", n, detail))

    if len(f) == 1:
        checks += 1
        if derived != profile:
            detail = f"predicted {derived} measured {profile}"
            failures.append(CheckFailure("prime-power-profile", n, detail))
    return checks, failures


def run_verify(
    max_n: int,
    caps: Caps = DEFAULT_CAPS,
    jobs: int = 1,
    pairwise_bound: int = PAIRWISE_ORACLE_BOUND,
) -> VerifyReport:
    """Run every check for 2 <= n <= max_n and collect failures."""
    if max_n < 2:
        raise InvalidInputError("max_n must be >= 2")
    if max_n > caps.single:
        raise ResourceLimitError(
            f"ring order {max_n} exceeds the enumeration cap {caps.single}"
        )
    report = VerifyReport(max_n=max_n)
    check = partial(_check_n, caps=caps, pairwise_bound=pairwise_bound)
    for checks, failures in ordered_map(check, range(2, max_n + 1), jobs, chunksize=32):
        report.rings_checked += 1
        report.checks_run += checks
        report.failures.extend(failures)
    return report
