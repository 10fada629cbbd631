import itertools
from collections import Counter
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zeroprod.arith import (
    histogram_product,
    rat_decimal,
    rat_make,
    rat_str,
    sqrt_decimal,
)
from zeroprod.errors import ZeroDenominatorError


def test_rat_make_reduces():
    assert rat_make(8, 16) == Fraction(1, 2)
    assert rat_make(0, 5) == Fraction(0, 1)
    # reduce by gcd = 8
    assert rat_make(40, 144) == Fraction(5, 18)


def test_rat_make_zero_denominator():
    with pytest.raises(ZeroDenominatorError):
        rat_make(3, 0)


@given(st.integers(0, 10**9), st.integers(1, 10**9), st.integers(1, 10**4))
def test_rat_make_canonicalizes(a, b, c):
    assert rat_make(a * c, b * c) == rat_make(a, b)


def test_rat_str_and_parse_roundtrip():
    assert rat_str(Fraction(5, 18)) == "5/18"
    assert rat_str(Fraction(3)) == "3/1"


def test_rat_decimal_rounding():
    assert rat_decimal(Fraction(5, 18), 6) == "0.277778"
    assert rat_decimal(Fraction(1, 2), 6) == "0.500000"
    assert rat_decimal(Fraction(3, 4), 2) == "0.75"
    assert rat_decimal(Fraction(2, 3), 4) == "0.6667"
    assert rat_decimal(Fraction(5, 2), 0) == "3"  # half rounds up
    assert rat_decimal(Fraction(13, 250), 6) == "0.052000"


def test_sqrt_decimal():
    assert sqrt_decimal(Fraction(1, 4), 6) == "0.500000"
    assert sqrt_decimal(Fraction(2), 4) == "1.4142"
    assert sqrt_decimal(Fraction(0), 3) == "0.000"


@given(st.fractions(min_value=0, max_value=10), st.integers(0, 12))
def test_rat_decimal_close_to_value(q, digits):
    text = rat_decimal(q, digits)
    rendered = Fraction(text.replace(".", "")) / 10**digits if digits else Fraction(text)
    assert abs(rendered - q) <= Fraction(1, 2 * 10**digits)


_histograms = st.lists(
    st.dictionaries(st.integers(1, 60), st.integers(1, 4), min_size=1, max_size=5),
    max_size=4,
)


@given(_histograms)
def test_histogram_product_against_enumeration(hists):
    # Expand each histogram into the values it counts and multiply every
    # combination out.
    values = [[v for v, c in h.items() for _ in range(c)] for h in hists]
    oracle = Counter(prod(combo) for combo in itertools.product(*values))
    assert histogram_product(hists) == dict(oracle)


@given(_histograms, st.randoms())
def test_histogram_product_laws(hists, rng):
    out = histogram_product(hists)
    assert sum(out.values()) == prod(sum(h.values()) for h in hists)
    shuffled = hists[:]
    rng.shuffle(shuffled)
    assert histogram_product(shuffled) == out
    for h in hists:
        assert histogram_product([h]) == h


def test_histogram_product_small_cases():
    assert histogram_product([]) == {1: 1}
    assert histogram_product(iter([{1: 1, 2: 1}, {1: 1, 2: 1}])) == {1: 1, 2: 2, 4: 1}
    # Z_4 x Z_2: sizes multiply, so 2 * 2 and 4 * 1 share a class.
    assert histogram_product([{1: 2, 2: 1, 4: 1}, {1: 1, 2: 1}]) == {1: 2, 2: 3, 4: 2, 8: 1}
