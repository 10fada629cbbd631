"""Deterministic primality testing and integer factorization.

The primality test is Miller-Rabin with the fixed witness set
{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}, which is known to be exact
for every n < 2**64; larger inputs are rejected rather than answered
probabilistically.  Factorization strips small primes by trial division
and splits the remainder with Brent's cycle-finding variant of Pollard
rho, driven by a fixed parameter schedule so repeated runs are identical.
The rho attempt itself is a kernel: ``kernels.brent_rho`` dispatches it
to the compiled or the pure form, which return the same divisor.
"""

from __future__ import annotations

import math

from zeroprod import kernels
from zeroprod.arith import as_natural
from zeroprod.errors import ContractViolationError, InvalidInputError

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_LIMIT = 1 << 64

_TRIAL_BOUND = 10_000
_small_primes: list[int] | None = None

# A prime factorization as an ordered list of (prime, exponent) pairs;
# the empty list represents 1.
Factorization = list[tuple[int, int]]


def _trial_primes() -> list[int]:
    """Primes below the trial-division bound, sieved once and cached."""
    global _small_primes
    if _small_primes is None:
        sieve = bytearray([1]) * _TRIAL_BOUND
        sieve[0:2] = b"\x00\x00"
        for p in range(2, math.isqrt(_TRIAL_BOUND - 1) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
        _small_primes = [i for i, flag in enumerate(sieve) if flag]
    return _small_primes


def is_prime(n: int) -> bool:
    """Exact primality for naturals below 2**64."""
    as_natural(n, "n")
    if n >= _PRIME_LIMIT:
        raise InvalidInputError(
            f"is_prime supports n < 2**64 only, got a {n.bit_length()}-bit value"
        )
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n == w:
            return True
        if n % w == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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
    primality test runs.  Only a cofactor that outlasts the trial primes
    is tested and split; it must fit the 64-bit primality test, and
    anything larger is rejected rather than factored heuristically.
    """
    if as_natural(n, "n") == 0:
        raise InvalidInputError("0 has no prime factorization")
    factors: Factorization = []
    for p in _trial_primes():
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
            d = find_nontrivial_factor(m)
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
