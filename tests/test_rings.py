import itertools
from fractions import Fraction
from math import gcd as int_gcd

import pytest

from zeroprod.errors import (
    ExcludedRingError,
    InvalidInputError,
    ResourceLimitError,
    RingParseError,
)
from zeroprod.formulas import bounds_report
from zeroprod.graph import build_graph, export_dot, export_edges_csv, export_vertices_csv
from zeroprod.rings import (
    AnnProfile,
    Caps,
    Product,
    RingSpec,
    Zn,
    ann_count_total,
    ann_profile,
    ann_set,
    ann_size,
    elements,
    element_str,
    gcd_sum,
    max_ann_size,
    parse_ring,
    prob_brute,
    ring_order,
    zero_divisor_count,
    zero_divisor_set,
)


def _naive_gcd_sum(n):
    return n + sum(int_gcd(x, n) for x in range(1, n))


class TestSpecs:
    def test_zn_excludes_degenerate_moduli(self):
        with pytest.raises(ExcludedRingError, match="excluded"):
            Zn(1)
        with pytest.raises(ExcludedRingError):
            Zn(0)

    @pytest.mark.parametrize(
        "moduli, bad, error",
        [
            ((1,), 1, ExcludedRingError),
            ((3, 0), 0, ExcludedRingError),
            ((-2,), -2, InvalidInputError),
            ((2.0,), 2.0, InvalidInputError),
            ((True, 3), True, InvalidInputError),
        ],
    )
    def test_ring_spec_checks_every_modulus_as_zn_does(self, moduli, bad, error):
        with pytest.raises(error) as zn:
            Zn(bad)
        with pytest.raises(error) as spec:
            RingSpec(moduli)
        assert type(spec.value) is type(zn.value)
        assert str(spec.value) == str(zn.value)

    @pytest.mark.parametrize("moduli", [(), [4, 9]])
    def test_ring_spec_needs_a_nonempty_tuple(self, moduli):
        with pytest.raises(InvalidInputError, match="nonempty tuple"):
            RingSpec(moduli)

    def test_product_needs_two_factors(self):
        with pytest.raises(InvalidInputError):
            Product((Zn(4),))
        with pytest.raises(InvalidInputError):
            Product((Product((Zn(2), Zn(3))),))
        with pytest.raises(InvalidInputError):
            Product((Zn(4), 5))

    def test_ring_order(self):
        assert ring_order(Zn(7)) == 7
        assert ring_order(Product((Zn(2), Zn(3)))) == 6
        assert ring_order(Product((Zn(4), Zn(4)))) == 16

    def test_nested_products(self):
        spec = Product((Product((Zn(2), Zn(2))), Zn(3)))
        assert ring_order(spec) == 12
        assert str(spec) == "Zn(2)xZn(2)xZn(3)"

    def test_str(self):
        assert str(Zn(12)) == "Zn(12)"
        assert str(Product((Zn(4), Zn(9)))) == "Zn(4)xZn(9)"


class TestNestedEqualsFlat:
    nested = Product((Zn(4), Product((Zn(2), Zn(3)))))
    flat = Product((Zn(4), Zn(2), Zn(3)))

    def test_same_spec(self):
        assert self.nested == self.flat
        assert hash(self.nested) == hash(self.flat)
        assert self.nested == RingSpec((4, 2, 3))
        assert self.nested.moduli == self.flat.moduli == (4, 2, 3)
        assert str(self.nested) == str(self.flat) == "Zn(4)xZn(2)xZn(3)"

    def test_elements_are_flat_triples(self):
        got = list(elements(self.nested))
        assert got == list(itertools.product(range(4), range(2), range(3)))
        assert all(len(x) == 3 and all(type(d) is int for d in x) for x in got)

    def test_same_results(self):
        a, b = build_graph(self.nested), build_graph(self.flat)
        assert a == b
        for export in (export_dot, export_edges_csv, export_vertices_csv):
            assert export(a) == export(b)
        assert prob_brute(self.nested, paranoid=True) == prob_brute(self.flat, paranoid=True)
        assert bounds_report(self.nested) == bounds_report(self.flat)


class TestParse:
    def test_single(self):
        assert parse_ring("Zn(12)") == Zn(12)

    def test_product_whitespace_insignificant(self):
        want = Product((Zn(4), Zn(9)))
        assert parse_ring("Zn(4)xZn(9)") == want
        assert parse_ring("  Zn(4) x Zn(9) ") == want
        assert parse_ring("Zn( 4 )xZn(9)") == want

    def test_three_factors(self):
        assert parse_ring("Zn(2)xZn(2)xZn(3)") == Product((Zn(2), Zn(2), Zn(3)))

    @pytest.mark.parametrize(
        "bad", ["", "Zn", "Zn()", "Zn(4", "Z(4)", "Zn(4)y Zn(9)", "Zn(4)x", "Zn(-3)"]
    )
    def test_malformed(self, bad):
        with pytest.raises(RingParseError):
            parse_ring(bad)

    def test_excluded_modulus_inside_grammar(self):
        with pytest.raises(ExcludedRingError):
            parse_ring("Zn(1)")
        with pytest.raises(ExcludedRingError):
            parse_ring("Zn(1)xZn(3)")
        # components are read left to right: the excluded one is reported
        with pytest.raises(ExcludedRingError):
            parse_ring("Zn(1)xfoo")


class TestElements:
    def test_canonical_order_zn(self):
        assert list(elements(Zn(4))) == [0, 1, 2, 3]

    def test_canonical_order_product_is_lexicographic(self):
        got = list(elements(Product((Zn(2), Zn(3)))))
        assert got == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]

    def test_element_str(self):
        assert element_str(5) == "5"
        assert element_str((0, 1)) == "(0,1)"
        # a nested product's elements are flat, and so are their labels
        nested = Product((Product((Zn(2), Zn(2))), Zn(3)))
        assert element_str(list(elements(nested))[5]) == "(0,1,2)"


class TestAnnSet:
    def test_zn4(self):
        assert ann_set(Zn(4), 2) == {0, 2}

    def test_zero_annihilates_everything(self):
        assert ann_set(Zn(5), 0) == {0, 1, 2, 3, 4}
        spec = Product((Zn(2), Zn(2)))
        assert ann_set(spec, (0, 0)) == set(elements(spec))

    def test_zn6(self):
        assert ann_set(Zn(6), 4) == {0, 3}

    def test_product(self):
        spec = Product((Zn(2), Zn(3)))
        assert ann_set(spec, (1, 0)) == {(0, 0), (0, 1), (0, 2)}

    def test_always_contains_zero(self):
        for n in range(2, 30):
            for x in range(n):
                assert 0 in ann_set(Zn(n), x)

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            ann_set(Zn(10**6), 2)
        # a raised cap permits it
        assert len(ann_set(Zn(10**5), 0, Caps(single=10**5))) == 10**5

    def test_invalid_element(self):
        with pytest.raises(InvalidInputError):
            ann_set(Zn(4), 4)
        with pytest.raises(InvalidInputError):
            ann_set(Product((Zn(2), Zn(2))), (0, 1, 0))


class TestElementRule:
    """ann_set and ann_size accept and reject the same elements."""

    @pytest.mark.parametrize(
        "spec,x",
        [
            (Zn(4), True),
            (Product((Zn(2), Zn(3))), (True, 2)),
            (Product((Zn(2), Zn(3))), (1, 2, 0)),
            (Product((Zn(4), Product((Zn(2), Zn(3))))), (1, (0, 2))),
        ],
        ids=str,
    )
    def test_both_reject(self, spec, x):
        with pytest.raises(InvalidInputError):
            ann_set(spec, x)
        with pytest.raises(InvalidInputError):
            ann_size(spec, x)


class TestAnnSize:
    def test_examples(self):
        # {0, 3, 6, 9} annihilate 8 mod 12
        assert ann_size(Zn(12), 8) == 4
        assert ann_size(Zn(12), 0) == 12
        for p in (2, 3, 7, 97):
            for x in (1, p - 1):
                assert ann_size(Zn(p), x) == 1

    def test_matches_enumeration_for_all_small_rings(self):
        for n in range(2, 201):
            for x in range(n):
                assert len(ann_set(Zn(n), x)) == ann_size(Zn(n), x)

    def test_product_sizes_match_enumeration(self):
        spec = Product((Zn(4), Zn(6)))
        for x in elements(spec):
            assert ann_size(spec, x) == len(ann_set(spec, x))

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            ann_size(Zn(6), 6)


class TestZeroDivisors:
    def test_field_has_none(self):
        assert zero_divisor_set(Zn(7)) == set()

    def test_zn8(self):
        assert zero_divisor_set(Zn(8)) == {2, 4, 6}

    def test_product_of_fields(self):
        assert zero_divisor_set(Product((Zn(2), Zn(2)))) == {(0, 1), (1, 0)}

    def test_count_matches_set(self):
        for n in range(2, 120):
            assert zero_divisor_count(Zn(n)) == len(zero_divisor_set(Zn(n)))
        spec = Product((Zn(4), Zn(9)))
        assert zero_divisor_count(spec) == len(zero_divisor_set(spec))

    def test_zero_and_one_never_included(self):
        for n in range(2, 60):
            zs = zero_divisor_set(Zn(n))
            assert 0 not in zs and 1 not in zs
            assert len(zs) <= n - 2


class TestCounting:
    def test_ann_count_examples(self):
        assert ann_count_total(Zn(4)) == 8  # 4 + 1 + 2 + 1
        assert ann_count_total(Zn(2)) == 3  # (0,0), (0,1), (1,0)
        for p in (3, 5, 7, 11, 97):
            assert ann_count_total(Zn(p)) == 2 * p - 1

    def test_gcd_sum_examples(self):
        assert gcd_sum(12) == 40
        assert gcd_sum(1) == 1
        for p in (2, 3, 5, 97, 991):
            assert gcd_sum(p) == 2 * p - 1

    def test_gcd_sum_against_naive(self):
        for n in range(1, 300):
            assert gcd_sum(n) == _naive_gcd_sum(n)

    def test_two_oracles_agree_up_to_1000(self):
        for n in range(2, 1001):
            assert ann_count_total(Zn(n)) == gcd_sum(n)

    def test_paranoid_pair_enumeration_agrees(self):
        for n in range(2, 120):
            assert ann_count_total(Zn(n), paranoid=True) == gcd_sum(n)
        spec = Product((Zn(4), Zn(9)))
        assert ann_count_total(spec, paranoid=True) == ann_count_total(spec)

    def test_prob_brute_examples(self):
        assert prob_brute(Zn(2)) == Fraction(3, 4)
        assert prob_brute(Zn(4)) == Fraction(1, 2)
        assert prob_brute(Zn(3)) == Fraction(5, 9)

    def test_pairwise_cap(self):
        with pytest.raises(ResourceLimitError):
            ann_count_total(Zn(5000), paranoid=True)
        # fine without the pairwise leg
        assert ann_count_total(Zn(5000)) == gcd_sum(5000)


class TestProfiles:
    def test_zn8(self):
        assert ann_profile(Zn(8)) == AnnProfile(
            zero={8: 1}, zdiv={2: 2, 4: 1}, rest={1: 4}
        )

    def test_field(self):
        assert ann_profile(Zn(5)) == AnnProfile(zero={5: 1}, zdiv={}, rest={1: 4})

    def test_zn9(self):
        assert ann_profile(Zn(9)) == AnnProfile(zero={9: 1}, zdiv={3: 2}, rest={1: 6})

    def test_buckets_partition_the_ring(self):
        for n in list(range(2, 100)) + [360, 1024]:
            prof = ann_profile(Zn(n))
            assert prof.zero == {n: 1}
            assert prof.total_elements() == n
            assert all(size >= 2 for size in prof.zdiv)
            assert set(prof.rest) <= {1}
            assert prof.ann_count() == gcd_sum(n)

    def test_three_structural_facts(self):
        # |Ann(0)| = l; zero-divisors have size >= 2; other nonzero have 1
        for spec in (Zn(12), Zn(31), Product((Zn(4), Zn(6)))):
            order = ring_order(spec)
            zset = zero_divisor_set(spec)
            for x in elements(spec):
                size = ann_size(spec, x)
                if x == (0, 0) or x == 0:
                    assert size == order
                elif x in zset:
                    assert size >= 2
                else:
                    assert size == 1


class TestMaxAnn:
    def test_examples(self):
        assert max_ann_size(Zn(8)) == 4  # |Ann(4)| = 4
        assert max_ann_size(Zn(7)) is None
        assert max_ann_size(Zn(4)) == 2

    def test_at_most_half_the_order(self):
        for n in range(2, 300):
            m = max_ann_size(Zn(n))
            if m is not None:
                assert 2 * m <= n


class TestProductTheorem:
    def test_probability_multiplies_over_products(self):
        # includes non-coprime pairs such as Z_2 x Z_2, which is not Z_4
        for a, b in itertools.product(range(2, 13), repeat=2):
            left = prob_brute(Product((Zn(a), Zn(b))), paranoid=True)
            assert left == prob_brute(Zn(a)) * prob_brute(Zn(b))

    def test_z2xz2_differs_from_z4(self):
        assert prob_brute(Product((Zn(2), Zn(2)))) == Fraction(9, 16)
        assert prob_brute(Zn(4)) == Fraction(1, 2)
