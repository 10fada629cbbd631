import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zeroprod import kernels
from zeroprod.errors import ContractViolationError, InvalidInputError
from zeroprod.factor import (
    factorization_str,
    factorize,
    find_nontrivial_factor,
    is_prime,
)


def _spf_table(limit):
    """Smallest-prime-factor sieve: the trial-division oracle, vectorized."""
    spf = list(range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


def _oracle_factorize(n, spf):
    out = {}
    while n > 1:
        p = spf[n]
        out[p] = out.get(p, 0) + 1
        n //= p
    return sorted(out.items())


def test_is_prime_small_cases():
    assert not is_prime(0)
    assert not is_prime(1)
    assert is_prime(2)
    assert is_prime(3)
    assert not is_prime(4)


def test_is_prime_carmichael():
    # 561 = 3 * 11 * 17 fools Fermat tests; Miller-Rabin must not be fooled
    assert 561 == 3 * 11 * 17
    assert not is_prime(561)
    for n in (1105, 1729, 2465, 2821, 6601):
        assert any(n % p == 0 for p in range(2, math.isqrt(n) + 1))
        assert not is_prime(n)


def test_is_prime_agrees_with_sieve_to_one_million():
    limit = 10**6
    spf = _spf_table(limit)
    for n in range(2, limit + 1):
        assert is_prime(n) == (spf[n] == n), f"disagreement at {n}"


def test_is_prime_rejects_oversized():
    with pytest.raises(InvalidInputError):
        is_prime(1 << 64)
    # the largest supported values still answer
    assert not is_prime((1 << 64) - 1)


def test_is_prime_large_known_values():
    assert is_prime(2**61 - 1)
    assert is_prime(999999999989)
    assert not is_prime(2**61 + 1)


def test_factorize_examples():
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(1) == []
    assert factorize(999999999989) == [(999999999989, 1)]


def test_factorize_rejects_zero():
    with pytest.raises(InvalidInputError):
        factorize(0)


def test_factorize_matches_trial_division_oracle():
    limit = 2 * 10**5
    spf = _spf_table(limit)
    for n in range(1, limit + 1):
        assert factorize(n) == _oracle_factorize(n, spf)


def _trial_division(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


# 9973 is the last trial prime and 10007 the first prime after it, so
# these cofactors sit on either side of where trial division hands over
# to the primality test and rho.  From 10**8 = 10**4 squared on,
# factorize skips trial division when n is coprime to every trial prime;
# 10**8 +- 1 and the first primes above 10**8 sit on either side of that.
@pytest.mark.parametrize(
    "n",
    [9973**2, 10007**2, 9973 * 10007, 9973**3, 10007**3, 9973**2 * 10007]
    + [10**8 - 1, 10**8, 10**8 + 1, 10007 * 10009]
    + [100000007, 100000037, 100000039, 100000049],
)
def test_factorize_around_the_trial_bound(n):
    assert factorize(n) == _trial_division(n)


def _reference_factorize(n):
    """Trial division by every d below 10**4, whatever n is, then the
    cofactor split by rho and tested by the pure Miller-Rabin."""
    out, d = [], 2
    while d < 10**4:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    split, stack = {}, [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if kernels._is_prime_py(m):
            split[m] = split.get(m, 0) + 1
        else:
            d = find_nontrivial_factor(m)
            stack += [d, m // d]
    return out + sorted(split.items())


@settings(max_examples=100, deadline=None)
@given(st.integers(10**8, 2**64 - 1))
@example(2 * (2**40 - 87))  # 2**40 - 87 is prime
@example(9973 * (2**40 - 87))
@example(9973**2 * (2**40 - 87))
@example(2**20 * 7**3 * 1000003)
def test_factorize_above_the_trial_gate_matches_the_reference(n):
    assert factorize(n) == _reference_factorize(n)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2**64 - 1))
def test_factorize_64_bit_primes_multiply_back(n):
    f = factorize(n)
    assert math.prod(p**k for p, k in f) == n
    assert all(is_prime(p) and k >= 1 for p, k in f)
    assert [p for p, _ in f] == sorted({p for p, _ in f})


def test_factorize_invariants_on_structure():
    for n in (2, 97, 1024, 104729, 2 * 3 * 5 * 7 * 11 * 13, 10403):
        f = factorize(n)
        primes = [p for p, _ in f]
        assert primes == sorted(primes) and len(set(primes)) == len(primes)
        assert all(is_prime(p) for p in primes)
        assert all(k >= 1 for _, k in f)
        assert math.prod(p**k for p, k in f) == n


@settings(max_examples=200)
@given(st.integers(1, 10**12))
def test_factorize_reconstructs(n):
    assert math.prod(p**k for p, k in factorize(n)) == n


def test_factorize_smooth_above_64_bits():
    n = 2**70 * 3**5
    assert factorize(n) == [(2, 70), (3, 5)]
    with pytest.raises(InvalidInputError):
        factorize((2**61 - 1) * (2**89 - 1))


def test_find_nontrivial_factor():
    assert find_nontrivial_factor(15) in (3, 5)
    assert find_nontrivial_factor(4) == 2
    assert find_nontrivial_factor(10403) in (101, 103)


def test_find_nontrivial_factor_divides():
    for n in (10403, 100001299949, 101 * 101, 65537 * 65539):
        d = find_nontrivial_factor(n)
        assert 1 < d < n and n % d == 0


@pytest.mark.parametrize("backend", ["compiled_backend", "pure_backend"])
def test_find_nontrivial_factor_splits_every_small_composite(request, backend):
    request.getfixturevalue(backend)
    for n in range(4, 20001):
        if not is_prime(n):
            d = find_nontrivial_factor(n)
            assert 1 < d < n and n % d == 0, n


@pytest.mark.parametrize(
    "primes, tests",
    [((4294967291, 4294967279), 3), ((1048573, 1048571, 1048559), 5)],
)
def test_factorize_tests_each_cofactor_once(monkeypatch, primes, tests):
    # The split loop tests each cofactor, prime or composite, exactly
    # once: splitting a composite does not test it again.
    tested = []
    is_prime = kernels.is_prime
    monkeypatch.setattr(kernels, "is_prime", lambda n: tested.append(n) or is_prime(n))
    assert factorize(math.prod(primes)) == [(p, 1) for p in sorted(primes)]
    assert len(tested) == tests == len(set(tested))


def test_find_nontrivial_factor_deterministic():
    n = 1000003 * 1000033
    assert find_nontrivial_factor(n) == find_nontrivial_factor(n)


def test_find_nontrivial_factor_contract():
    for bad in (0, 1, 2, 3, 7, 2**61 - 1):
        with pytest.raises(ContractViolationError):
            find_nontrivial_factor(bad)


def test_serializations():
    f = factorize(12)
    assert factorization_str(f) == "2^2 * 3^1"
    assert factorization_str([]) == "1"
