"""Kernel correctness against in-test oracles written out independently."""

import functools
import itertools
import os
import random
import subprocess
import sys
import time
from collections import Counter
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeroprod import kernels
from zeroprod.errors import ResourceLimitError

_MASK = (1 << 64) - 1


def _reference_stream(seed):
    # Written out independently of the library, so the kernels are
    # checked against the published constants, not against themselves.
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


def _block_stream(seed, count, width):
    blocks = kernels._splitmix64_blocks(seed, width, 1 << 64)
    return list(itertools.islice(itertools.chain.from_iterable(blocks), count))


def test_splitmix64_stream_across_blocks():
    for seed, count in ((0, 0), (3, 1), (_MASK, 1023), (12345, 2500)):
        expected = _reference_splitmix64(seed, count)
        assert _block_stream(seed, count, min(kernels._BLOCK, count)) == expected


def test_splitmix64_reference_vector():
    # First outputs for seed 0, from the reference implementation.
    expected = [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
        0x1B39896A51A8749B,
    ]
    assert _block_stream(0, 5, 5) == expected
    assert _reference_splitmix64(0, 5) == expected


def test_gcd_sum_against_oracle():
    for n in list(range(1, 200)) + [720, 1024, 4096]:
        assert kernels.gcd_sum(n) == n + sum(gcd(x, n) for x in range(1, n))


def test_histogram_zn_against_oracle():
    # Beyond every n to 3000: a prime, a prime power and highly
    # composite n (tau = 120, 240, 256).
    for n in [*range(2, 3001), 65521, 65536, 55440, 720720, 1081080]:
        oracle = Counter(gcd(x, n) for x in range(1, n))
        oracle[n] += 1
        assert kernels.ann_size_histogram_zn(n) == dict(oracle), n


def test_histogram_mixed_against_oracle():
    for mods in ((2, 2), (4, 9), (2, 3, 5), (8, 8), (60, 60), (2, 2048), (9, 10, 11), (12,)):
        oracle = Counter()
        for elem in itertools.product(*(range(m) for m in mods)):
            size = 1
            for x, m in zip(elem, mods):
                size *= gcd(x, m)
            oracle[size] += 1
        assert kernels.ann_size_histogram_mixed(mods) == dict(oracle), mods


def test_histogram_mixed_one_leaf_is_the_sieve():
    for n in [*range(2, 301), 65536, 720720]:
        assert kernels.ann_size_histogram_mixed((n,)) == kernels.ann_size_histogram_zn(n), n


@functools.cache
def _brute_pairs_zn(n):
    return sum(1 for x in range(n) for y in range(n) if x * y % n == 0)


def test_pair_count_zn_against_oracle():
    for n in range(2, 301):
        assert kernels.ann_pair_count_zn(n) == _brute_pairs_zn(n), n
    # |Ann(x)| = gcd(x, n) in Z_n, with gcd(0, n) = n
    for n in (2048, 3600, 3607, 4093, 4096):
        assert kernels.ann_pair_count_zn(n) == sum(gcd(x, n) for x in range(n)), n


def test_pair_count_zn_across_table_windows(monkeypatch, pure_backend):
    # A table of two periods makes rows split into slices of a few y,
    # so slice boundaries fall inside nearly every row.
    monkeypatch.setattr(kernels, "_TABLE_BYTES", 4)
    for n in range(2, 301):
        assert kernels.ann_pair_count_zn(n) == _brute_pairs_zn(n), n


def test_pair_count_mixed_against_oracle():
    for mods in ((2, 2), (2, 3), (4, 9), (3, 3, 3), (12,), (2, 2, 6)):
        assert kernels.ann_pair_count_mixed(mods) == _brute_pairs(mods), mods


@pytest.mark.parametrize("mods", [(6, 10, 15), (2, 2048), (60, 60), (7,)])
def test_pair_count_mixed_factorizes_over_components(mods):
    # a*b = 0 iff every component product is 0, so the count is the
    # product of the components' counts, each sum_x gcd(x, m).
    oracle = prod(sum(gcd(x, m) for x in range(m)) for m in mods)
    assert kernels.ann_pair_count_mixed(mods) == oracle


@pytest.mark.parametrize("mods", [(4, 6), (2, 3, 4), (8, 2, 2), (9, 10), (12,)])
def test_graph_edges_mixed_against_oracle(mods):
    verts = [v for v in itertools.product(*(range(m) for m in mods)) if any(v)]
    # One modulus takes its elements as ints, not as one-digit tuples.
    elements = [x for (x,) in verts] if len(mods) == 1 else verts
    assert kernels.graph_edges(mods, elements) == _brute_edges(mods, verts)
    shuffled = random.Random(len(verts)).sample(elements, len(elements))
    with pytest.raises(ValueError, match="ascend strictly"):
        kernels.graph_edges(mods, shuffled)


def _division_lanes(mods):
    """The zero lanes as repunits made by big-integer division: the
    pattern of zero digits in one block per digit, times the filled
    blocks repeated every tile."""
    total, stride, lanes = prod(mods), prod(mods), []
    for m in mods:
        stride //= m
        tile = m * stride
        fill = ((1 << stride) - 1) * (((1 << total) - 1) // ((1 << tile) - 1))
        patterns = (sum(1 << (w * stride) for w in range(m) if v * w % m == 0) for v in range(m))
        lanes.append([pattern * fill for pattern in patterns])
    return lanes


def test_zero_lanes_equal_the_division_form():
    for r in (1, 2, 3):
        for mods in itertools.product(range(2, 7), repeat=r):
            assert kernels._zero_lanes(mods) == _division_lanes(mods), mods


def test_zero_lanes_are_linear_in_the_ring_order(pure_backend):
    # 2**22 elements: the division form takes seconds here.
    start = time.perf_counter()
    lanes = kernels._zero_lanes((2,) * 22)
    assert time.perf_counter() - start < 1
    assert [lane[1].bit_count() for lane in lanes] == [1 << 21] * 22


# Runs one product-ring kernel call on thirty Zn(2), whose zero lanes
# would take 60 * 2**24 words = 8 GB, in a process that may map at most
# 1 GiB: a kernel that allocated its lanes first would end in MemoryError.
# Only the entries check the lanes, before they pick a form, so the probe
# runs them on both backends.
_LANE_PROBE = """
import resource, sys
from zeroprod import kernels
from zeroprod.errors import ResourceLimitError

mods, verts = (2,) * 30, [(0,) * 29 + (1,), (1,) + (0,) * 29]
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
try:
    {}
except ResourceLimitError as exc:
    print(exc, file=sys.stderr)
    sys.exit(3)
"""


@pytest.mark.parametrize(
    "call", ["kernels.ann_pair_count_mixed(mods)", "kernels.graph_edges(mods, verts)"]
)
def test_product_kernels_refuse_lanes_above_the_limit(call):
    env = {k: v for k, v in os.environ.items() if k != "ZEROPROD_BACKEND"}
    for backend in ({}, {"ZEROPROD_BACKEND": "python"}):
        done = subprocess.run(
            [sys.executable, "-c", _LANE_PROBE.format(call)],
            capture_output=True,
            text=True,
            env={**env, **backend},
            timeout=120,
        )
        assert (done.returncode, done.stdout) == (3, ""), (backend, done.stderr)
        assert "lane-memory limit of 268435456 bytes" in done.stderr, backend


@st.composite
def _product_rings_of_order_2_31_or_more(draw):
    """Two or more moduli >= 1 whose product is at least 2**31, the last
    one the smallest that gets there or a little more."""
    mods = draw(st.lists(st.integers(1, 1 << 16), min_size=1, max_size=6))
    least = -(-(1 << 31) // prod(mods))
    return (*mods, least + draw(st.integers(0, 3)))


@settings(max_examples=500, deadline=None)
@given(mods=_product_rings_of_order_2_31_or_more())
def test_lane_limit_refuses_every_product_ring_of_order_2_31_or_more(mods):
    # So no product ring reaches a compiled kernel with an order that
    # could wrap its 32-bit arithmetic: the lane limit decides first.
    assert len(mods) >= 2 and min(mods) >= 1 and prod(mods) >= 1 << 31
    with pytest.raises(ResourceLimitError):
        kernels._require_lanes(mods)


def test_lane_limit_admits_every_default_cap_product():
    """The largest lanes under the pair cap 2**12 are those of Zn(2)xZn(2048)."""
    for mods in ((2, 2048), (2, 2, 1024), (64, 64), (2,) * 12):
        kernels._require_lanes(mods)
    assert kernels.ann_pair_count_mixed((2, 2048)) == 3 * kernels.ann_pair_count_zn(2048)


def _brute_edges_zn(n, verts):
    return [
        (i, j)
        for i in range(len(verts))
        for j in range(i + 1, len(verts))
        if verts[i] * verts[j] % n == 0
    ]


def _zero_divisors_zn(n):
    # Z(Z_n) from the definition: nonzero x killing some nonzero y.
    return [x for x in range(1, n) if any(x * y % n == 0 for y in range(1, n))]


def test_graph_edges_zn_against_oracle():
    for n in range(2, 201):
        verts = _zero_divisors_zn(n)
        assert kernels.graph_edges_zn(n, verts) == _brute_edges_zn(n, verts), n


def test_graph_edges_zn_across_table_windows(monkeypatch, pure_backend):
    monkeypatch.setattr(kernels, "_TABLE_BYTES", 4)
    for n in range(2, 121):
        verts = _zero_divisors_zn(n)
        assert kernels.graph_edges_zn(n, verts) == _brute_edges_zn(n, verts), n


def test_zn_kernels_where_the_table_cap_binds(pure_backend):
    # The multiples table holds n//4 + 2 periods, the most any row reads,
    # until that exceeds _TABLE_BYTES; from there the middle rows need
    # several slices.
    def capped(n):
        return len(kernels._multiples_table(n)) < n * (n // 4 + 2)

    first = next(n for n in range(2, 4097) if capped(n))
    assert not capped(first - 1)
    for n in (first - 1, first, first + 1):
        assert kernels.ann_pair_count_zn(n) == _brute_pairs_zn(n), n
        verts = [x for x in range(1, n) if gcd(x, n) > 1]
        assert kernels.graph_edges_zn(n, verts) == _brute_edges_zn(n, verts), n


def test_graph_edges_zn_at_the_pair_cap():
    verts = [x for x in range(1, 4096) if gcd(x, 4096) > 1]
    assert kernels.graph_edges_zn(4096, verts) == _brute_edges_zn(4096, verts)
    # 4093 is prime: no vertices, no edges, and its rows are never read
    assert kernels.graph_edges_zn(4093, []) == []


def test_graph_edges_zn_on_a_vertex_subset():
    # Products that vanish at a non-vertex are skipped, and indices
    # refer to the subset.
    rng = random.Random(4)
    for n in (12, 60, 360, 1024, 2310):
        verts = [x for x in range(1, n) if gcd(x, n) > 1]
        subset = sorted(rng.sample(verts, len(verts) // 3))
        assert kernels.graph_edges_zn(n, subset) == _brute_edges_zn(n, subset), n


def test_mc_determinism_and_sanity():
    a = kernels.mc_zero_pairs_zn(4, 2000, 99)
    b = kernels.mc_zero_pairs_zn(4, 2000, 99)
    assert a == b
    # P(Z_4) = 1/2; 2000 samples cannot plausibly stray to the extremes
    assert 700 < a < 1300


def test_mc_power_of_two_modulus():
    # 2**32 divides 2**64, so the rejection threshold degenerates and
    # every draw must be accepted.
    hits = kernels.mc_zero_pairs_zn(2**32, 10, 7)
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
    assert kernels.mc_zero_pairs_zn(n, samples, seed) == _reference_mc(n, samples, seed)


_HIT_SEEDS = [0, _MASK, 1, 2, 3, 7, 42, 99, 12345, 2**32 - 1, 2**32, 2**63, 0xDEADBEEF, 987654321]


@pytest.mark.parametrize("n", [2, 4, 6, 12, 100, 1234, 3600])
def test_mc_hits_against_reference_sampler(n):
    # Blocks hold 512 samples: these counts end one sample before, at
    # and one sample after the end of the second block.
    total = 0
    for seed in _HIT_SEEDS:
        for samples in (1023, 1024, 1025):
            hits = kernels.mc_zero_pairs_zn(n, samples, seed)
            assert hits == _reference_mc(n, samples, seed), (n, samples, seed)
            total += hits
    assert total > 0  # the hit test itself ran, not only the draws


def _odd_blocks(blocks):
    # The same draws, regrouped into blocks of odd sizes, so that some
    # samples take x from one block and y from the next.
    def regrouped(seed, width, n):
        draws = itertools.chain.from_iterable(blocks(seed, width, n))
        for size in itertools.cycle((1, 3, 1023, 5)):
            yield tuple(itertools.islice(draws, size))

    return regrouped


@pytest.mark.parametrize("n", [2, 6, 100, 3600])
def test_mc_pairs_draws_across_odd_blocks(monkeypatch, pure_backend, n):
    monkeypatch.setattr(kernels, "_splitmix64_blocks", _odd_blocks(kernels._splitmix64_blocks))
    # Block ends fall after draws 1, 4, 1027 and 1032: 513 samples end
    # one draw before the end of a block, 514 one draw after it and 516
    # at it.
    for seed in _HIT_SEEDS[:6]:
        for samples in (1, 2, 513, 514, 516, 1100):
            got = kernels.mc_zero_pairs_zn(n, samples, seed)
            assert got == _reference_mc(n, samples, seed), (n, samples, seed)


@pytest.mark.parametrize("n", [3, 1234, 2**63 + 1, 2**64 - 1])
def test_splitmix64_draws_for_zn(n):
    # Accepted draws in order, each replaced by a value below 2n that is
    # congruent to it mod n.
    limit = (1 << 64) - (1 << 64) % n
    for seed in (0, _MASK, 5):
        accepted = [r for r in _reference_splitmix64(seed, 5000) if r < limit][:2000]
        blocks = kernels._splitmix64_blocks(seed, 1024, n)
        draws = list(itertools.islice(itertools.chain.from_iterable(blocks), 2000))
        assert [d % n for d in draws] == [r % n for r in accepted]
        assert all(d < 2 * n for d in draws)


def _unshift(z, k):
    # inverse of z ^= z >> k on 64 bits
    x = z
    for _ in range(64 // k):
        x = z ^ (x >> k)
    return x


def _seed_for_first_output(r):
    # splitmix64's mix is a bijection: undo it, then step the state back.
    z = _unshift(r, 31) * pow(0x94D049BB133111EB, -1, 1 << 64) & _MASK
    z = _unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & _MASK
    return (_unshift(z, 30) - 0x9E3779B97F4A7C15) & _MASK


@pytest.mark.parametrize("n", [3, 1234, 2**63 + 1, 2**64 - 1])
def test_rejection_threshold_is_exact(n):
    # The first output is set to the last accepted value and to the
    # first rejected one.
    limit = (1 << 64) - (1 << 64) % n
    for first in (limit - 1, limit):
        seed = _seed_for_first_output(first)
        assert _reference_splitmix64(seed, 1) == [first]
        accepted = [r for r in _reference_splitmix64(seed, 1024) if r < limit]
        draws = next(kernels._splitmix64_blocks(seed, 1024, n))
        assert [d % n for d in draws] == [r % n for r in accepted]
        assert kernels.mc_zero_pairs_zn(n, 600, seed) == _reference_mc(n, 600, seed)


def test_mc_carries_an_odd_draw_between_blocks(pure_backend):
    # About half of all draws are rejected at n = 2**63 + 1, so blocks
    # keep odd numbers of draws and a sample spans two blocks.
    n = 2**63 + 1
    for seed in (0, _MASK, 5, 123456789):
        sizes = [len(b) for b in itertools.islice(kernels._splitmix64_blocks(seed, 1024, n), 8)]
        assert any(size % 2 for size in sizes), seed
        for samples in (1, 511, 512, 513, 2000):
            got = kernels.mc_zero_pairs_zn(n, samples, seed)
            assert got == _reference_mc(n, samples, seed), (seed, samples)
