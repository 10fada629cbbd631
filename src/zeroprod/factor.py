"""Deterministic primality testing and integer factorization.

The primality test is Miller-Rabin with the fixed witness set
{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}, which is known to be exact
for every n < 2**64; larger inputs are rejected rather than answered
probabilistically.  Factorization strips small primes by trial division
and splits the remainder with Brent's cycle-finding variant of Pollard
rho, driven by a fixed parameter schedule so repeated runs are identical.
From 10**8 on, one gcd with the product of the trial primes first tells
whether any of them divides n, and trial division runs only if one does.
The Miller-Rabin test and the rho attempt are kernels:
``kernels.is_prime`` and ``kernels.brent_rho`` dispatch each to its
compiled or pure form, which return the same values.
"""

from __future__ import annotations

import math

from zeroprod import kernels
from zeroprod.arith import as_natural
from zeroprod.errors import ContractViolationError, InvalidInputError

_PRIME_LIMIT = 1 << 64

_TRIAL_BOUND = 10_000
_trial_cache: tuple[list[int], int] | None = None

# A prime factorization as an ordered list of (prime, exponent) pairs;
# the empty list represents 1.
Factorization = list[tuple[int, int]]


def _trial_primes() -> tuple[list[int], int]:
    """The primes below the trial-division bound and their product,
    sieved once and cached."""
    global _trial_cache
    if _trial_cache is None:
        sieve = bytearray([1]) * _TRIAL_BOUND
        sieve[0:2] = b"\x00\x00"
        for p in range(2, math.isqrt(_TRIAL_BOUND - 1) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
        primes = [i for i, flag in enumerate(sieve) if flag]
        _trial_cache = primes, math.prod(primes)
    return _trial_cache


def is_prime(n: int) -> bool:
    """Exact primality for naturals below 2**64."""
    as_natural(n, "n")
    if n >= _PRIME_LIMIT:
        raise InvalidInputError(
            f"is_prime supports n < 2**64 only, got a {n.bit_length()}-bit value"
        )
    return kernels.is_prime(n)


def find_nontrivial_factor(n: int) -> int:
    """Some divisor d of a composite n with 1 < d < n.

    Squares are split by isqrt; otherwise Brent rho (``kernels.brent_rho``,
    compiled or pure, with the same result) runs with c = 1, 2, 3, ...
    from x0 = 2, so the returned divisor is a deterministic function of n
    (though not necessarily the smallest).
    """
    as_natural(n, "n")
    if n < 4 or is_prime(n):
        raise ContractViolationError(
            f"find_nontrivial_factor requires a composite n >= 4, got {n}"
        )
    return _split(n)


def _split(n: int) -> int:
    """:func:`find_nontrivial_factor` of an n already known composite."""
    root = math.isqrt(n)
    if root * root == n:
        return root
    c = 1
    while True:
        d = kernels.brent_rho(n, c)
        if d is not None and 1 < d < n:
            return d
        c += 1


def factorize(n: int) -> Factorization:
    """Complete prime factorization of n >= 1, primes ascending.

    Trial division stops at the first prime p with p^2 > n: what is left
    then has no prime factor below p, so it is 1 or a prime, and no
    primality test runs.  From _TRIAL_BOUND**2 on the loop would run
    through every trial prime, so it is skipped when one gcd with their
    product shows that none divides n.  Only a cofactor that outlasts
    the trial primes is tested and split; it must fit the 64-bit
    primality test, and anything larger is rejected rather than factored
    heuristically.
    """
    if as_natural(n, "n") == 0:
        raise InvalidInputError("0 has no prime factorization")
    factors: Factorization = []
    primes, primorial = _trial_primes()
    if n >= _TRIAL_BOUND**2 and math.gcd(primorial % n, n) == 1:
        primes = []
    for p in primes:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
    else:
        if n == 1:
            return factors
        if n >= _PRIME_LIMIT:
            raise InvalidInputError(
                "remaining cofactor exceeds the supported 64-bit range"
            )
        # Every prime left is above the trial primes, so the split primes
        # sort after the ones found so far.
        split: dict[int, int] = {}
        stack = [n]
        while stack:
            m = stack.pop()
            if is_prime(m):
                split[m] = split.get(m, 0) + 1
                continue
            d = _split(m)
            stack.append(d)
            stack.append(m // d)
        return factors + sorted(split.items())
    if n > 1:
        factors.append((n, 1))
    return factors


def factorization_str(f: Factorization) -> str:
    """Text form "p1^k1 * p2^k2 * ..."; "1" for the empty factorization."""
    if not f:
        return "1"
    return " * ".join(f"{p}^{k}" for p, k in f)
