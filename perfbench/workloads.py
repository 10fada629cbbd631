"""Seeded request streams for the four benchmark workloads.

A workload is a generator of passes; a pass is a list of requests, each
one ``zeroprod`` command line with the number of items it completes and
the oracle check for its output.  All inputs come from the ``rng``
passed in, so one seed always yields the same requests.  Why each
workload exists, and which layers it stresses, is in WORKLOADS.md.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

import oracle

SCAN_ROWS = 24
PAIR_CAP = 4096
MC_SAMPLES = 10**6


@dataclass(frozen=True)
class Request:
    kind: str
    argv: list[str]
    items: int
    check: Callable  # (rc, stdout, stderr) -> (failed_items, problems)


@dataclass(frozen=True)
class Context:
    tmp: str  # directory for files the requests write
    traced: bool


Pass = list[Request]


def scan_range(rng, ctx: Context) -> Iterator[Pass]:
    """One 24-row csv scan per pass, LO drawn from [30000, 30400]."""
    while True:
        lo = rng.randint(30_000, 30_400)
        hi = lo + SCAN_ROWS - 1
        argv = ["scan", str(lo), str(hi), "--format", "csv", "--jobs", "1"]
        yield [Request("scan", argv, SCAN_ROWS, partial(oracle.check_scan_csv, lo=lo, hi=hi))]


def verify_oracles(rng, ctx: Context) -> Iterator[Pass]:
    """One ``verify --max N`` per pass, N drawn from [2980, 3020].

    Pool workers are forked, so spans recorded inside them would be
    lost: traced runs use one job for every pass, untraced runs two.
    """
    jobs = "1" if ctx.traced else "2"
    while True:
        max_n = rng.randint(2_980, 3_020)
        argv = ["verify", "--max", str(max_n), "--jobs", jobs]
        yield [Request("verify", argv, max_n - 1, partial(oracle.check_verify, max_n=max_n))]


def _prob_zn(primes: list[int], kind: str) -> Request:
    fact = oracle.factors_of(primes)
    n = oracle.value(fact)
    check = partial(oracle.check_prob, ring=f"Zn({n})", moduli=[fact], path="closed-form")
    return Request(kind, ["prob", str(n)], 1, check)


def _prob_ring(moduli_primes: list[list[int]]) -> Request:
    moduli = [oracle.factors_of(ps) for ps in moduli_primes]
    ring = "x".join(f"Zn({oracle.value(f)})" for f in moduli)
    check = partial(oracle.check_prob, ring=ring, moduli=moduli, path="product")
    return Request("ring", ["prob", "--ring", ring], 1, check)


# Per pass: 2 semiprimes, 3 primes, 3 three-prime products and 2 rings.
# The cheap kinds make up 60 % of requests, so the median falls inside
# the 60-bit block and the tail inside the semiprime block.
_PROB_PATTERN = ("semi", "prime", "tri", "ring", "prime", "tri", "semi", "prime", "tri", "ring")


def prob_closed_form(rng, ctx: Context) -> Iterator[Pass]:
    """Ten ``prob`` requests per pass; no enumeration kernel runs."""
    make = {
        "semi": lambda: _prob_zn([oracle.random_prime(rng, 32) for _ in range(2)], "semi"),
        "prime": lambda: _prob_zn([oracle.random_prime(rng, 63)], "prime"),
        "tri": lambda: _prob_zn([oracle.random_prime(rng, 20) for _ in range(3)], "tri"),
        "ring": lambda: _prob_ring(
            [[oracle.random_prime(rng, 24) for _ in range(2)] for _ in range(3)]
        ),
    }
    while True:
        yield [make[kind]() for kind in _PROB_PATTERN]


def _graph_size(moduli: list[int]) -> tuple[int, int]:
    """(vertices, edges) of the zero-divisor graph of Zn(m1) x ... .

    Sums of |Ann(x)| multiply over factors (Pillai's sum for each), so
    the handshake identity gives the edges without enumerating.
    """
    facts = [oracle.trial_factor(m) for m in moduli]
    order = math.prod(moduli)
    units = math.prod(oracle.phi(f) for f in facts)
    vertices = order - units - 1
    handshake = math.prod(oracle.pillai(f) for f in facts) - order - units - vertices
    # x*x = 0 iff every component is a multiple of prod p^ceil(k/2).
    square_zero = math.prod(
        m // math.prod(p ** ((k + 1) // 2) for p, k in f.items()) for m, f in zip(moduli, facts)
    )
    return vertices, (handshake - (square_zero - 1)) // 2


def _in_bands(size: tuple[int, int], vertices: tuple[int, int], edges: tuple[int, int]) -> bool:
    return vertices[0] <= size[0] <= vertices[1] and edges[0] <= size[1] <= edges[1]


def _graph_request(ctx: Context, moduli: list[int], kind: str) -> Request:
    ring = "x".join(f"Zn({m})" for m in moduli)
    dot = os.path.join(ctx.tmp, f"{kind}.dot")
    prefix = os.path.join(ctx.tmp, kind)
    target = ["--ring", ring] if len(moduli) > 1 else [str(moduli[0])]
    argv = ["graph", *target, "--dot", dot, "--csv", prefix]
    items = _graph_size(moduli)[0] ** 2 // 2
    check = partial(
        oracle.check_graph, ring=ring, moduli=moduli, dot=dot, csv_prefix=prefix, items=items
    )
    return Request(kind, argv, items, check)


def enum_kernels(rng, ctx: Context) -> Iterator[Pass]:
    """The same five enumeration requests every pass.

    Sizes sit just below the pair cap (paranoid orders 3600 +- 40,
    graph vertex and edge counts in narrow bands) so one pass fits three
    times in a 30 s run and its cost and memory barely depend on the seed.
    """
    mc_n = rng.randint(100, 5_000)
    mc_seed = rng.getrandbits(32)
    zn = rng.randint(3_580, 3_620)
    a = rng.randint(40, 80)
    b = round(3_600 / a)
    graph_n = rng.choice(
        [
            [n]
            for n in range(3_600, PAIR_CAP + 1)
            if _in_bands(_graph_size([n]), (2_200, 2_400), (9_500, 11_500))
        ]
    )
    ring_moduli = rng.choice(
        [
            list(t)
            for t in itertools.product(range(6, 17), repeat=3)
            if 900 <= math.prod(t) <= 1_100
            and _in_bands(_graph_size(list(t)), (900, 1_000), (8_000, 11_000))
        ]
    )
    seen_hits: dict = {}
    mc = Request(
        "montecarlo",
        ["montecarlo", str(mc_n), "--samples", str(MC_SAMPLES), "--seed", str(mc_seed)],
        MC_SAMPLES,
        partial(
            oracle.check_montecarlo,
            n=mc_n,
            samples=MC_SAMPLES,
            seed=mc_seed,
            seen_hits=seen_hits,
            items=MC_SAMPLES,
        ),
    )
    zn_fact = oracle.trial_factor(zn)
    paranoid_zn = Request(
        "paranoid-zn",
        ["prob", str(zn), "--paranoid"],
        zn * zn,
        partial(
            oracle.check_prob,
            ring=f"Zn({zn})",
            moduli=[zn_fact],
            path="closed-form (brute-verified)",
            items=zn * zn,
        ),
    )
    product = f"Zn({a})xZn({b})"
    paranoid_product = Request(
        "paranoid-product",
        ["prob", "--ring", product, "--paranoid"],
        (a * b) ** 2,
        partial(
            oracle.check_prob,
            ring=product,
            moduli=[oracle.trial_factor(a), oracle.trial_factor(b)],
            path="product (brute-verified)",
            items=(a * b) ** 2,
        ),
    )
    requests = [
        mc,
        paranoid_zn,
        paranoid_product,
        _graph_request(ctx, graph_n, "graph"),
        _graph_request(ctx, ring_moduli, "graph-ring"),
    ]
    while True:
        yield requests


WORKLOADS = {
    "scan-range": scan_range,
    "verify-oracles": verify_oracles,
    "prob-closed-form": prob_closed_form,
    "enum-kernels": enum_kernels,
}
