import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zeroprod.errors import ExcludedRingError, InvalidInputError, ZeroDenominatorError
from zeroprod.factor import factorize, is_prime
from zeroprod.formulas import (
    GLOBAL_CAP,
    ann_profile_from_factorization,
    ann_profile_zpk,
    bound_chain,
    bounds_report,
    lower_bound,
    p_integral_domain,
    p_product,
    p_uniform_ann,
    p_zn,
    p_zn_from_factorization,
    p_zpk,
    refined_cap,
    upper_bound,
)
from zeroprod.rings import Caps, Product, Zn, ann_profile, gcd_sum, prob_brute

PRIMES_TO_100 = [p for p in range(2, 101) if is_prime(p)]


class TestPrimePower:
    def test_examples(self):
        assert p_zpk(2, 1) == Fraction(3, 4) == prob_brute(Zn(2))
        assert p_zpk(2, 2) == Fraction(1, 2) == prob_brute(Zn(4))
        # (4*5 - 3)/5**4; gcd_sum(125) = 425 and 425/15625 = 17/625
        assert p_zpk(5, 3) == Fraction(17, 625)
        assert gcd_sum(125) == 425
        assert Fraction(gcd_sum(125), 125**2) == Fraction(17, 625)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            p_zpk(4, 2)
        with pytest.raises(InvalidInputError):
            p_zpk(1, 1)
        with pytest.raises(InvalidInputError):
            p_zpk(5, 0)

    def test_matches_measurement_up_to_4096(self):
        for p in [q for q in PRIMES_TO_100 if q <= 50]:
            k = 1
            while p**k <= 4096:
                assert p_zpk(p, k) == prob_brute(Zn(p**k))
                assert ann_profile_zpk(p, k) == ann_profile(Zn(p**k))
                k += 1

    def test_strictly_decreasing_in_k_and_p(self):
        primes = [q for q in PRIMES_TO_100 if q <= 50]
        for p in primes:
            vals = [p_zpk(p, k) for k in range(1, 13)]
            assert all(a > b for a, b in zip(vals, vals[1:]))
        for k in range(1, 13):
            vals = [p_zpk(p, k) for p in primes]
            assert all(a > b for a, b in zip(vals, vals[1:]))


class TestZnClosedForm:
    def test_examples(self):
        assert p_zn_from_factorization([(2, 2), (3, 1)]) == Fraction(5, 18)
        assert p_zn_from_factorization([(2, 2), (5, 2)]) == Fraction(13, 250)
        assert p_zn_from_factorization([(7, 1)]) == Fraction(13, 49)
        assert p_zn(12) == Fraction(5, 18)
        assert p_zn(2) == Fraction(3, 4)

    def test_excluded(self):
        with pytest.raises(ExcludedRingError):
            p_zn(1)
        with pytest.raises(ExcludedRingError):
            p_zn(0)
        with pytest.raises(ExcludedRingError):
            p_zn_from_factorization([])
        with pytest.raises(ExcludedRingError):
            ann_profile_from_factorization([])

    def test_triple_oracle_agreement(self):
        for n in range(2, 3001):
            closed = p_zn(n)
            assert closed == Fraction(gcd_sum(n), n * n)
            assert closed == prob_brute(Zn(n))
            derived = ann_profile_from_factorization(factorize(n))
            assert derived == ann_profile(Zn(n))
            assert derived.ann_count() == gcd_sum(n)

    @pytest.mark.parametrize(
        "a,b",
        [(4, 25), (8, 9), (3, 64), (7, 11), (125, 81), (999, 1000), (972, 1025)],
    )
    def test_multiplicative_over_coprime_parts(self, a, b):
        assert a * b <= 10**6
        assert p_zn(a * b) == p_zn(a) * p_zn(b)
        caps = Caps(single=a * b)
        for l in (a, b, a * b):
            assert ann_profile(Zn(l), caps).total_elements() == l


class TestProductRule:
    def test_examples(self):
        assert p_product([Fraction(3, 4), Fraction(5, 9)]) == Fraction(5, 12)
        assert p_product([Fraction(5, 12)]) == Fraction(5, 12)
        assert p_product([Fraction(3, 4), Fraction(3, 4)]) == Fraction(9, 16)

    def test_matches_enumeration(self):
        assert p_product([p_zn(2), p_zn(3)]) == prob_brute(Product((Zn(2), Zn(3))))
        assert p_product([p_zn(2), p_zn(3)]) == prob_brute(Zn(6))
        assert p_product([p_zn(2), p_zn(2)]) == prob_brute(Product((Zn(2), Zn(2))))

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            p_product([])
        with pytest.raises(InvalidInputError):
            p_product([Fraction(5, 4)])


class TestBounds:
    def test_lower_examples(self):
        assert lower_bound(4, 1) == Fraction(1, 2)
        for l in (2, 5, 97):
            assert lower_bound(l, 0) == Fraction(2 * l - 1, l * l)
        assert lower_bound(8, 3) == Fraction(9, 32)

    def test_upper_examples(self):
        assert upper_bound(4, 1, 2) == Fraction(1, 2)
        for l in (2, 5, 97):
            assert upper_bound(l, 0, 1) == Fraction(2 * l - 1, l * l)
        assert upper_bound(8, 3, 4) == Fraction(3, 8)

    def test_upper_is_tight_for_zn8(self):
        assert prob_brute(Zn(8)) == Fraction(5, 16) <= Fraction(3, 8)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            lower_bound(1, 0)
        with pytest.raises(InvalidInputError):
            lower_bound(4, 3)  # zcount > l - 2
        with pytest.raises(InvalidInputError):
            upper_bound(8, 0, 2)  # no zero-divisors forces m = 1
        with pytest.raises(InvalidInputError):
            upper_bound(8, 3, 5)  # m > l/2
        with pytest.raises(InvalidInputError):
            upper_bound(8, 3, 0)

    def test_integral_domain(self):
        assert p_integral_domain(2) == Fraction(3, 4)
        assert p_integral_domain(3) == Fraction(5, 9)
        assert p_integral_domain(97) == Fraction(193, 9409)
        assert gcd_sum(97) == 193

    def test_uniform_annihilator_size(self):
        assert p_uniform_ann(9, 2, 3) == Fraction(7, 27) == p_zpk(3, 2)
        assert p_uniform_ann(4, 1, 2) == Fraction(1, 2) == prob_brute(Zn(4))
        for l in (2, 7, 31):
            assert p_uniform_ann(l, 0, 1) == p_integral_domain(l)

    def test_uniform_matches_prime_square_for_all_small_primes(self):
        for p in PRIMES_TO_100:
            assert p_uniform_ann(p * p, p - 1, p) == p_zpk(p, 2)

    def test_refined_cap(self):
        assert refined_cap(2) == Fraction(3, 4)
        assert refined_cap(4) == Fraction(9, 16)
        assert refined_cap(10) == Fraction(51, 100)

    def test_refined_cap_decreasing_from_global(self):
        caps = [refined_cap(l) for l in range(2, 200)]
        assert caps[0] == GLOBAL_CAP
        assert all(a > b for a, b in zip(caps, caps[1:]))
        assert all(c < GLOBAL_CAP for c in caps[1:])

    def test_bound_chain_predicate(self):
        def chain(l, k, m, q):
            return bound_chain(l, k, m, q.as_integer_ratio())

        # Zn(8): k = 3, m = 4, lower 9/32 <= P = 5/16 <= upper 3/8, over 64
        assert chain(8, 3, 4, Fraction(5, 16)) == (18, 24, True)
        assert bound_chain(8, 3, 4, (10, 32)) == (18, 24, True)  # unreduced P
        assert chain(7, 0, None, Fraction(13, 49))[2]
        assert chain(4, 1, 2, Fraction(1, 2))[2]
        assert chain(2, 0, None, GLOBAL_CAP)[2]
        assert not chain(8, 3, 4, Fraction(9, 32) - Fraction(1, 64**2))[2]
        assert not chain(8, 3, 4, Fraction(3, 8) + Fraction(1, 64**2))[2]
        assert not chain(7, 0, None, Fraction(12, 49))[2]
        assert not chain(7, 0, None, Fraction(14, 49))[2]
        with pytest.raises(ZeroDenominatorError):
            bound_chain(8, 3, 4, (5, 0))

    def test_chain_holds_for_measured_rings(self):
        for n in range(2, 501):
            spec = Zn(n)
            report = bounds_report(spec)
            assert report.all_hold
            assert (
                report.lower
                <= report.exact
                <= report.upper
                <= report.refined_cap
                <= GLOBAL_CAP
            )
            if n > 2:
                assert report.exact < GLOBAL_CAP
                assert report.refined_cap < GLOBAL_CAP

    def test_chain_holds_for_products(self):
        for spec in (
            Product((Zn(2), Zn(2))),
            Product((Zn(4), Zn(9))),
            Product((Zn(2), Zn(3), Zn(5))),
        ):
            assert bounds_report(spec).all_hold


def _fraction_chain(l, k, m, q):
    """The bound chain written with ``Fraction``, as the paper states it."""
    lower = Fraction(2 * l + k - 1, l * l)
    upper = Fraction(2 * l + ((m or 1) - 1) * k - 1, l * l)
    cap = Fraction(1, 2) + Fraction(1, l * l)
    return lower, upper, lower <= q <= upper <= cap <= Fraction(3, 4)


@st.composite
def _valid_chain_input(draw):
    """Valid (l, k, m) and a P at, just off, or far from either bound."""
    l = draw(st.one_of(st.integers(2, 100), st.integers(2, 2**64)))
    k = draw(st.integers(0, l - 2))
    m = draw(st.integers(1, l // 2)) if k else draw(st.sampled_from([None, 1]))
    lower, upper, _ = _fraction_chain(l, k, m, Fraction(0))
    nudge = Fraction(draw(st.integers(-2, 2)), l * l * draw(st.integers(1, 10**6)))
    q = draw(
        st.one_of(
            st.sampled_from([lower, upper, (lower + upper) / 2]).map(lambda b: b + nudge),
            st.fractions(min_value=0, max_value=1, max_denominator=10**40),
        )
    )
    return l, k, m, max(q, Fraction(0)), draw(st.integers(1, 1000))


@given(_valid_chain_input())
def test_integer_bound_chain_equals_fraction_chain(case):
    l, k, m, q, scale = case
    want = _fraction_chain(l, k, m, q)
    for pair in ((q.numerator, q.denominator), (q.numerator * scale, q.denominator * scale)):
        lower, upper, holds = bound_chain(l, k, m, pair)
        assert (Fraction(lower, l * l), Fraction(upper, l * l), holds) == want


@st.composite
def _invalid_chain_input(draw):
    l = draw(st.one_of(st.integers(2, 100), st.integers(2, 2**64)))
    kind = draw(st.sampled_from(["k", "m_high", "m_zero", "m_without_k"]))
    if kind == "k":
        return l, draw(st.integers(l - 1, l + 10)), None
    if kind == "m_without_k":
        return l, 0, draw(st.integers(2, l + 10))
    k = draw(st.integers(1, l - 2)) if l > 2 else 1
    m = draw(st.integers(l // 2 + 1, l + 10)) if kind == "m_high" else 0
    return l, k, m


@given(_invalid_chain_input(), st.fractions(min_value=0, max_value=1))
def test_integer_bound_chain_rejects_invalid_k_and_m(case, q):
    with pytest.raises(InvalidInputError):
        bound_chain(*case, (q.numerator, q.denominator))


class TestProfileClosedForm:
    def test_examples(self):
        assert ann_profile_zpk(2, 3).zdiv == {2: 2, 4: 1}
        assert ann_profile_zpk(2, 3) == ann_profile(Zn(8))
        for p in (2, 3, 5, 7):
            assert ann_profile_zpk(p, 1).zdiv == {}
        assert ann_profile_zpk(3, 2).zdiv == {3: 2}
        assert ann_profile_zpk(3, 2) == ann_profile(Zn(9))

    def test_bucket_sizes(self):
        prof = ann_profile_zpk(3, 4)  # n = 81
        assert prof.zero == {81: 1}
        # valuation i holds 3^(4-i) - 3^(4-i-1) elements of size 3^i
        assert prof.zdiv == {3: 27 - 9, 9: 9 - 3, 27: 3 - 1}
        assert prof.rest == {1: 81 - 27}
        assert prof.total_elements() == 81

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            ann_profile_zpk(6, 2)
        with pytest.raises(InvalidInputError):
            ann_profile_zpk(3, 0)


class TestBoundsReport:
    def test_zn4_everything_coincides(self):
        report = bounds_report(Zn(4))
        assert report.lower == report.exact == report.upper == Fraction(1, 2)
        assert report.all_hold

    def test_zn7_integral_domain_collapse(self):
        report = bounds_report(Zn(7))
        assert report.lower == report.exact == report.upper == Fraction(13, 49)
        assert report.zcount == 0 and report.maxann is None

    def test_zn8(self):
        report = bounds_report(Zn(8))
        assert report.lower == Fraction(9, 32)
        assert report.exact == Fraction(5, 16)
        assert report.upper == Fraction(3, 8)
        assert report.zcount == 3 and report.maxann == 4
        assert report.all_hold

    def test_to_dict(self):
        d = bounds_report(Zn(8)).to_dict(digits=6)
        assert d["exact"] == "5/16"
        assert d["exact_decimal"] == "0.312500"
        assert d["all_hold"] is True


def test_exact_three_quarters_only_at_two():
    hits = [n for n in range(2, 1001) if p_zn(n) == GLOBAL_CAP]
    assert hits == [2]


def test_closed_form_consistent_with_factorization_shape():
    for n in (360, 1024, 9973, 123456):
        f = factorize(n)
        assert p_zn(n) == p_zn_from_factorization(f)
        by_parts = Fraction(1)
        for p, k in f:
            by_parts *= p_zpk(p, k)
        assert p_zn(n) == by_parts


def test_product_theorem_over_mixed_pairs():
    for a, b in itertools.product([2, 3, 4, 6, 8, 9], repeat=2):
        assert prob_brute(Product((Zn(a), Zn(b)))) == p_zn(a) * p_zn(b)
