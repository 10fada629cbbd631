"""Kernel correctness against in-test oracles, and compiled/pure parity."""

import functools
import itertools
import random
from collections import Counter
from math import gcd, prod

import pytest

from zeroprod import _kernels_py as kpy

try:
    from zeroprod import _kernels as kc
except ImportError:
    kc = None

needs_compiled = pytest.mark.skipif(kc is None, reason="compiled kernels not built")

_MASK = (1 << 64) - 1


def _reference_stream(seed):
    # Written out independently of the library so both backends are
    # checked against the published constants, not against each other.
    state = seed & _MASK
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        yield z ^ (z >> 31)


def _reference_splitmix64(seed, count):
    return list(itertools.islice(_reference_stream(seed), count))


def _reference_mc(n, samples, seed):
    # Rejection sampling as documented: accept r < 2**64 - (2**64 mod n),
    # reduce mod n, x before y.
    limit = (1 << 64) - (1 << 64) % n
    residues = (r % n for r in _reference_stream(seed) if r < limit)
    hits = 0
    for _ in range(samples):
        x, y = next(residues), next(residues)
        hits += x * y % n == 0
    return hits


def _brute_pairs(mods):
    elems = list(itertools.product(*(range(m) for m in mods)))
    return sum(
        1
        for a in elems
        for b in elems
        if all(x * y % m == 0 for x, y, m in zip(a, b, mods))
    )


def _brute_edges(mods, verts):
    return [
        (i, j)
        for i in range(len(verts))
        for j in range(i + 1, len(verts))
        if all(x * y % m == 0 for x, y, m in zip(verts[i], verts[j], mods))
    ]


def test_splitmix64_stream_across_blocks():
    for seed, count in ((0, 0), (3, 1), (_MASK, 1023), (12345, 2500)):
        assert kpy.splitmix64_stream(seed, count) == _reference_splitmix64(seed, count)


def test_splitmix64_reference_vector():
    # First outputs for seed 0, from the reference implementation.
    expected = [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
        0x1B39896A51A8749B,
    ]
    assert kpy.splitmix64_stream(0, 5) == expected
    assert _reference_splitmix64(0, 5) == expected


def test_gcd_sum_against_oracle():
    for n in list(range(1, 200)) + [720, 1024, 4096]:
        assert kpy.gcd_sum(n) == n + sum(gcd(x, n) for x in range(1, n))


def test_histogram_zn_against_oracle():
    # Beyond every n to 3000: a prime, a prime power and highly
    # composite n (tau = 120, 240, 256).
    for n in [*range(2, 3001), 65521, 65536, 55440, 720720, 1081080]:
        oracle = Counter(gcd(x, n) for x in range(1, n))
        oracle[n] += 1
        assert kpy.ann_size_histogram_zn(n) == dict(oracle), n


def test_histogram_mixed_against_oracle():
    for mods in ((2, 2), (4, 9), (2, 3, 5), (8, 8)):
        oracle = Counter()
        for elem in itertools.product(*(range(m) for m in mods)):
            size = 1
            for x, m in zip(elem, mods):
                size *= gcd(x, m)
            oracle[size] += 1
        assert kpy.ann_size_histogram_mixed(mods) == dict(oracle)


@functools.cache
def _brute_pairs_zn(n):
    return sum(1 for x in range(n) for y in range(n) if x * y % n == 0)


def test_pair_count_zn_against_oracle():
    for n in range(2, 301):
        assert kpy.ann_pair_count_zn(n) == _brute_pairs_zn(n), n
    # |Ann(x)| = gcd(x, n) in Z_n, with gcd(0, n) = n
    for n in (2048, 3600, 3607, 4096):
        assert kpy.ann_pair_count_zn(n) == sum(gcd(x, n) for x in range(n)), n


def test_pair_count_zn_across_table_windows(monkeypatch):
    # A table of two periods makes rows split into slices of a few y,
    # so slice boundaries fall inside nearly every row.
    monkeypatch.setattr(kpy, "_TABLE_BYTES", 4)
    for n in range(2, 301):
        assert kpy.ann_pair_count_zn(n) == _brute_pairs_zn(n), n


def test_pair_count_mixed_against_oracle():
    for mods in ((2, 2), (2, 3), (4, 9), (3, 3, 3), (12,), (2, 2, 6)):
        assert kpy.ann_pair_count_mixed(mods) == _brute_pairs(mods), mods


@pytest.mark.parametrize("mods", [(6, 10, 15), (2, 2048), (60, 60), (7,)])
def test_pair_count_mixed_factorizes_over_components(mods):
    # a*b = 0 iff every component product is 0, so the count is the
    # product of the components' counts, each sum_x gcd(x, m).
    oracle = prod(sum(gcd(x, m) for x in range(m)) for m in mods)
    assert kpy.ann_pair_count_mixed(mods) == oracle


@pytest.mark.parametrize("mods", [(4, 6), (2, 3, 4), (8, 2, 2), (9, 10), (12,)])
def test_graph_edges_mixed_against_oracle(mods):
    verts = [v for v in itertools.product(*(range(m) for m in mods)) if any(v)]
    assert kpy.graph_edges_mixed(mods, verts) == _brute_edges(mods, verts)
    shuffled = random.Random(len(verts)).sample(verts, len(verts))
    got = kpy.graph_edges_mixed(mods, shuffled)
    assert sorted(got) == _brute_edges(mods, shuffled)


def test_graph_edges_zn_against_oracle():
    for n in (6, 8, 12, 30, 60):
        verts = [x for x in range(1, n) if gcd(x, n) > 1]
        oracle = [
            (i, j)
            for i in range(len(verts))
            for j in range(i + 1, len(verts))
            if verts[i] * verts[j] % n == 0
        ]
        assert kpy.graph_edges_zn(n, verts) == oracle


def test_mc_determinism_and_sanity():
    a = kpy.mc_zero_pairs_zn(4, 2000, 99)
    b = kpy.mc_zero_pairs_zn(4, 2000, 99)
    assert a == b
    # P(Z_4) = 1/2; 2000 samples cannot plausibly stray to the extremes
    assert 700 < a < 1300


def test_mc_power_of_two_modulus():
    # 2**32 divides 2**64, so the rejection threshold degenerates; both
    # backends must accept every draw.
    hits = kpy.mc_zero_pairs_zn(2**32, 10, 7)
    assert 0 <= hits <= 10


@pytest.mark.parametrize(
    "n,samples,seed",
    [
        (4, 2000, 99),
        (5, 0, 1),
        (1234, 3000, 7),
        (3, 1000, _MASK),
        (2**32, 500, 3),
        (2**63 + 1, 2000, 5),  # about half of all draws are rejected
        (2**64 - 1, 2000, 9),
    ],
)
def test_mc_against_reference_sampler(n, samples, seed):
    assert kpy.mc_zero_pairs_zn(n, samples, seed) == _reference_mc(n, samples, seed)


@needs_compiled
class TestCompiledParity:
    def test_splitmix64(self):
        for seed in (0, 1, 42, (1 << 64) - 1):
            assert kc.splitmix64_stream(seed, 64) == kpy.splitmix64_stream(seed, 64)

    def test_gcd_sum(self):
        for n in (1, 2, 97, 1024, 99991):
            assert kc.gcd_sum(n) == kpy.gcd_sum(n)

    def test_histograms(self):
        for n in (2, 8, 97, 5040):
            assert kc.ann_size_histogram_zn(n) == kpy.ann_size_histogram_zn(n)
        for mods in ((2, 2), (4, 9), (2, 3, 5), (16, 16)):
            assert kc.ann_size_histogram_mixed(mods) == kpy.ann_size_histogram_mixed(mods)

    def test_pair_counts(self):
        for n in (2, 8, 60, 97):
            assert kc.ann_pair_count_zn(n) == kpy.ann_pair_count_zn(n)
        for mods in ((2, 2), (2, 3), (4, 9), (3, 3, 3)):
            assert kc.ann_pair_count_mixed(mods) == kpy.ann_pair_count_mixed(mods)

    def test_graph_edges(self):
        for n in (6, 8, 12, 360):
            verts = [x for x in range(1, n) if gcd(x, n) > 1]
            assert kc.graph_edges_zn(n, verts) == kpy.graph_edges_zn(n, verts)

    def test_mc(self):
        for n, samples, seed in ((4, 5000, 1), (100, 20000, 12345), (2**32, 100, 3)):
            assert kc.mc_zero_pairs_zn(n, samples, seed) == kpy.mc_zero_pairs_zn(
                n, samples, seed
            )
