"""Seeded Monte Carlo estimation of the zero-product probability.

Simulates the defining experiment directly: draw ordered pairs (x, y)
uniformly with replacement from Z_n and count products equal to zero.
Draws come from splitmix64 with rejection (see
``kernels.mc_zero_pairs_zn``, the dispatch point between the compiled
and the pure sampler): fixed 64-bit integer arithmetic, so a given
(n, samples, seed) triple gives the same hits on any platform and
either backend.
The deviation test against the exact value is done in exact rational
arithmetic: the estimate is within 3 standard errors iff

    (hits/samples - P)^2 <= 9 * P(1-P) / samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from zeroprod import kernels
from zeroprod.arith import as_natural, rat_make
from zeroprod.errors import InvalidInputError
from zeroprod.formulas import p_zn
from zeroprod.rings import Zn

DEFAULT_SEED = 12345

_SAMPLER_LIMIT = 1 << 64


@dataclass(frozen=True)
class MonteCarloResult:
    n: int
    samples: int
    seed: int
    hits: int
    estimate: Fraction
    exact: Fraction
    abs_deviation: Fraction
    std_error_sq: Fraction
    within_3se: bool


def estimate_zero_pairs(
    n: int, samples: int, seed: int = DEFAULT_SEED
) -> MonteCarloResult:
    """Run the sampling experiment and compare against the exact value."""
    Zn(n)  # rejects an excluded modulus
    if n >= _SAMPLER_LIMIT:
        raise InvalidInputError("the 64-bit sampler supports n < 2**64 only")
    if not 1 <= as_natural(samples, "samples") < _SAMPLER_LIMIT:
        raise InvalidInputError("samples must satisfy 1 <= samples < 2**64")
    if as_natural(seed, "seed") >= _SAMPLER_LIMIT:
        raise InvalidInputError("the 64-bit sampler takes a seed < 2**64 only")
    hits = kernels.mc_zero_pairs_zn(n, samples, seed)
    estimate = rat_make(hits, samples)
    exact = p_zn(n)
    deviation = abs(estimate - exact)
    se_sq = exact * (1 - exact) / samples
    within = deviation * deviation <= 9 * se_sq
    return MonteCarloResult(
        n=n,
        samples=samples,
        seed=seed,
        hits=hits,
        estimate=estimate,
        exact=exact,
        abs_deviation=deviation,
        std_error_sq=se_sq,
        within_3se=within,
    )
