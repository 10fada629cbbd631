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

The legs are compared as counts |Ann| = P*l^2 of zero-product pairs, so
a passing ring builds no ``Fraction``.  A failed check, an impossible
measured structure included, is reported, never raised: the caller
decides the exit code.
"""

from __future__ import annotations

import itertools
import os
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from zeroprod.arith import rat_str, ratio_str
from zeroprod.errors import InvalidInputError
from zeroprod.factor import factorize
from zeroprod.formulas import ann_profile_from_factorization, bound_chain, p_zn_ratio
from zeroprod.rings import Caps, DEFAULT_CAPS, Zn, _require_single, ann_profile, pair_count

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


def _check_n(n: int, caps: Caps, pairwise_bound: int) -> tuple[int, list[CheckFailure]]:
    failures = []
    spec = Zn(n)
    l2 = n * n

    f = factorize(n)
    num, den = p_zn_ratio(f)
    derived = ann_profile_from_factorization(f)
    profile = ann_profile(spec, caps)
    count = profile.ann_count()
    counts = {"pillai": derived.ann_count(), "measured": count}
    if n <= min(pairwise_bound, caps.pairwise):
        counts["pairs"] = pair_count(spec, caps)
    if any(c * den != num * l2 for c in counts.values()):
        legs = [f"closed={ratio_str(num, den)}"]
        legs += [f"{name}={_rat(c, l2)}" for name, c in counts.items()]
        failures.append(CheckFailure("triple-oracle", n, " ".join(legs)))

    zcount, maxann = profile.zcount, profile.maxann
    if profile.zero != {n: 1}:
        detail = f"zero bucket is {profile.zero}"
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
    else:
        lower, upper, holds = bound_chain(n, zcount, maxann, (count, l2))
        if not holds:
            detail = f"lower={_rat(lower, l2)} exact={_rat(count, l2)} upper={_rat(upper, l2)}"
            failures.append(CheckFailure("bounds-chain", n, detail))

    if len(f) == 1 and derived != profile:
        detail = f"predicted {derived} measured {profile}"
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
