"""Enumeration kernels: the hot loops behind the measured oracles.

The pair counts and graph edges test every pair and the Z_n histogram
classifies every element, so ``verify``, ``--paranoid``, ``graph`` and
``montecarlo`` measure what the closed forms predict instead of
repeating them.  The Z_n histogram is a divisor sieve over a bytearray
of Z_n; a product ring's histogram is the product
(:func:`zeroprod.arith.histogram_product`) of its components' sieve
histograms, so the ring's elements are never walked.  The Z_n pair
count tests every unordered pair once, reading one byte of a
multiples-of-n table per pair through strided slices.  The product-ring
pair count and graph edges test every pair, 64 pairs per
machine word: each component's zero-product sets are found by
enumeration and lifted to bitsets over the ring's elements, and an
element's zero-product row is the AND of its components' bitsets.
Monte Carlo computes its splitmix64 draws a block at a time.
Everything is plain integer arithmetic, so arbitrary-precision inputs
work at the cost of speed.

Callers go through the module attribute (``kernels.ann_pair_count_zn``),
not ``from ... import`` copies.
"""

from __future__ import annotations

import sys
from functools import reduce
from itertools import chain, compress, islice, product, repeat
from math import gcd, isqrt, prod
from operator import and_, countOf, getitem, mod, mul, not_
from struct import Struct

from zeroprod.arith import histogram_product

_MASK64 = (1 << 64) - 1
_SM64_GAMMA = 0x9E3779B97F4A7C15
_SM64_MIX1 = 0xBF58476D1CE4E5B9
_SM64_MIX2 = 0x94D049BB133111EB
_BLOCK = 1024  # splitmix64 outputs computed side by side
_TABLE_BYTES = 1 << 18  # size of the Z_n pair count's multiples table


def backend() -> str:
    """Name of the kernel implementation, reported by ``--backend``."""
    return "python"


def gcd_sum(n: int) -> int:
    """Sum of gcd(x, n) over x in [0, n), counting gcd(0, n) = n."""
    return n + sum(gcd(x, n) for x in range(1, n))


def ann_size_histogram_zn(n: int) -> dict[int, int]:
    """Histogram size -> count of annihilator sizes over all of Z_n.

    In Z_n the annihilator of x has exactly gcd(x, n) elements: the
    largest divisor of n that divides x.  A divisor sieve classifies
    every element by that rule: walking the divisors d of n downward,
    the multiples of d not yet claimed by a larger divisor form class d.
    x = 0 is claimed first, by d = n, and contributes the full ring.
    Each class costs two strided byte operations, O(sigma(n)) in all.
    """
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    divisors = small + [n // d for d in reversed(small) if d * d != n]
    seen = bytearray(n)
    hist: dict[int, int] = {}
    for d in reversed(divisors):
        hist[d] = seen[::d].count(0)
        seen[::d] = b"\1" * (n // d)
    return hist


def ann_size_histogram_mixed(mods: tuple[int, ...]) -> dict[int, int]:
    """Annihilator-size histogram for Z_{m1} x ... x Z_{mr}.

    Componentwise, |Ann(x)| is the product of the per-component sizes, so
    the histogram is the product of the components' sieve histograms.
    """
    return histogram_product(map(ann_size_histogram_zn, mods))


def ann_pair_count_zn(n: int) -> int:
    """Ordered pairs (x, y) in Z_n^2 with x*y = 0, by full enumeration.

    Multiplication commutes, so each unordered pair is tested once: the
    count is the diagonal plus twice the strict upper triangle.  A table
    of period n holds 1 exactly at the multiples of n, so for y = y0,
    y0+1, ... the byte at x*y0 mod n + x*(y - y0) decides whether x*y = 0.
    Row x reads those bytes as strided slices, as many y per slice as the
    table reaches.
    """
    table = (b"\1" + bytes(n - 1)) * max(2, _TABLE_BYTES // n)
    reach = len(table) - n  # a slice starts below n and ends in the table
    diagonal, upper = 1, n - 1  # x = 0 kills every y
    for x in range(1, n):
        diagonal += x * x % n == 0
        block = reach // x + 1
        for y in range(x + 1, n, block):
            start = x * y % n
            upper += table[start : start + x * min(block, n - y) : x].count(1)
    return diagonal + 2 * upper


def _zero_lanes(mods: tuple[int, ...]) -> list[list[int]]:
    """Per component t and digit v, the set of elements b of the product
    whose digit b_t satisfies v*b_t = 0 in Z_{m_t}, as a bitset.

    Bit i stands for the element with odometer index i (the last digit
    varies fastest), so digit t selects blocks of stride_t consecutive
    bits, repeated every m_t*stride_t bits.  The digits w with v*w = 0
    are found by enumerating w; a pattern with one bit per such block
    times a repunit of filled blocks lifts them to the whole index range.
    """
    total = prod(mods)
    lanes = []
    stride = total
    for m in mods:
        stride //= m
        tile = m * stride
        fill = ((1 << stride) - 1) * (((1 << total) - 1) // ((1 << tile) - 1))
        lane = []
        for v in range(m):
            products = map(mod, range(0, v * m, v), repeat(m)) if v else repeat(0, m)
            pattern = sum(1 << (w * stride) for w in compress(range(m), map(not_, products)))
            lane.append(pattern * fill)
        lanes.append(lane)
    return lanes


def ann_pair_count_mixed(mods: tuple[int, ...]) -> int:
    """Ordered zero-product pairs in a product of Z_m rings, enumerated.

    The row of a = (a_1, ..., a_r) is the AND over t of the lane of a_t:
    the bitset of every b with a*b = 0.  Its popcount counts them.
    """
    return sum(reduce(and_, row).bit_count() for row in product(*_zero_lanes(mods)))


def graph_edges_zn(n: int, verts: list[int]) -> list[tuple[int, int]]:
    """Index pairs (i, j), i < j, with verts[i]*verts[j] = 0 in Z_n."""
    m = len(verts)
    edges = []
    for i in range(m):
        vi = verts[i]
        for j in range(i + 1, m):
            if (vi * verts[j]) % n == 0:
                edges.append((i, j))
    return edges


def graph_edges_mixed(
    mods: tuple[int, ...], verts: list[tuple[int, ...]]
) -> list[tuple[int, int]]:
    """Index pairs (i, j), i < j, with verts[i]*verts[j] = 0 in the
    product of Z_m rings; vertices are digit tuples, one digit per modulus.

    Row i ANDs the zero-product lanes of verts[i] with the bitset of the
    vertices after it, so each edge is read out once, at its first end.
    Pairs come in ascending (i, j) order when verts ascend.
    """
    lanes = _zero_lanes(mods)
    strides = [prod(mods[t + 1 :]) for t in range(len(mods))]
    index = [sum(map(mul, v, strides)) for v in verts]
    vertex_at = {p: i for i, p in enumerate(index)}
    later = 0
    for p in index:
        later |= 1 << p
    edges = []
    for i, (v, p) in enumerate(zip(verts, index)):
        later ^= 1 << p
        hits = reduce(and_, map(getitem, lanes, v)) & later
        while hits:
            low = hits & -hits
            edges.append((i, vertex_at[low.bit_length() - 1]))
            hits ^= low
    return edges


def _splitmix64_blocks(seed: int, width: int):
    """Yield the splitmix64 outputs for ``seed`` in tuples of ``width``.

    splitmix64 is counter based: output k >= 1 mixes the state
    seed + k*gamma mod 2**64.  A block packs ``width`` consecutive states
    into one integer, one per 128-bit slot, so each mixing step is one
    big-integer operation for the whole block.  A 64-bit value times a
    64-bit constant stays inside its slot, and the masks clear the bits
    that shifts move into the slot below.
    """
    lanes = int.from_bytes(b"\1".ljust(16, b"\0") * width, "little")
    masks = lanes * _MASK64
    counters = b"".join(k.to_bytes(16, "little") for k in range(1, width + 1))
    steps = int.from_bytes(counters, "little") * _SM64_GAMMA
    unpack = Struct("<" + "Q8x" * width).unpack
    base = seed & _MASK64
    while True:
        s = base * lanes + steps & masks
        z = (s ^ s >> 30 & masks) * _SM64_MIX1 & masks
        z = (z ^ z >> 27 & masks) * _SM64_MIX2 & masks
        z ^= z >> 31 & masks
        yield unpack(z.to_bytes(16 * width, "little"))
        base = (base + width * _SM64_GAMMA) & _MASK64


def mc_zero_pairs_zn(n: int, samples: int, seed: int) -> int:
    """Count sampled pairs (x, y) with x*y = 0 in Z_n.

    Draws come from splitmix64 with rejection sampling: a 64-bit output r
    is accepted iff r < 2**64 - (2**64 mod n), then reduced mod n.  Each
    sample consumes draws for x first, then y, so any implementation of
    this procedure reproduces the stream bit for bit.  Here x*y = 0 is
    tested as n | r_x*r_y, which is the same condition.
    """
    limit = (1 << 64) - (1 << 64) % n
    blocks = _splitmix64_blocks(seed, min(_BLOCK, 2 * samples))
    draws = chain.from_iterable(
        block if max(block) < limit else filter(limit.__gt__, block) for block in blocks
    )
    products = map(mul, draws, draws)  # map takes x, then y
    hits = 0
    while samples:  # islice stops at sys.maxsize at most
        take = min(samples, sys.maxsize)
        hits += countOf(map(mod, islice(products, take), repeat(n)), 0)
        samples -= take
    return hits
