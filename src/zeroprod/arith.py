"""Exact natural-number and rational arithmetic.

Every probability and bound in this package is an exact reduced fraction;
nothing downstream ever rounds.  Python integers are already arbitrary
precision, so naturals are plain ``int`` values (validated nonnegative) and
rationals are ``fractions.Fraction`` (reduced at construction, structural
equality).  Hot paths that make one rational per row, such as range
scans, keep it as a reduced integer pair ``(num, den)`` instead, and render
it with :func:`ratio_str` and :func:`ratio_decimal`, which the ``Fraction``
renderers share.  Ring orders near 2**64 square comfortably within
``int``.  Histograms of naturals are ``{value: count}`` dicts.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction

from zeroprod.errors import InvalidInputError, ZeroDenominatorError


def as_natural(value, name: str = "value") -> int:
    """Validate and return ``value`` as a nonnegative int."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise InvalidInputError(f"{name} must be nonnegative, got {value}")
    return value


def histogram_product(hists: Iterable[dict[int, int]]) -> dict[int, int]:
    """Histogram of the products a1*a2*... of independent factors, the
    i-th drawn from the values that the i-th histogram counts.

    This is the multiplicative convolution.  Annihilator sizes multiply
    across direct-product components and across the prime-power
    components of Z_n, so a ring's size histogram is the product of its
    components': the measured and the derived histograms are both built
    here.  One histogram is returned as it is; none give the empty
    product {1: 1}.
    """
    hists = iter(hists)
    out = next(hists, {1: 1})
    for hist in hists:
        step: dict[int, int] = {}
        for a, ca in out.items():
            for b, cb in hist.items():
                ab = a * b
                step[ab] = step.get(ab, 0) + ca * cb
        out = step
    return out


def rat_make(num: int, den: int) -> Fraction:
    """Build the reduced fraction num/den.  den must be >= 1."""
    as_natural(num, "numerator")
    if as_natural(den, "denominator") == 0:
        raise ZeroDenominatorError("denominator must be >= 1")
    return Fraction(num, den)


def ratio_str(num: int, den: int) -> str:
    """Canonical "num/den" text of a reduced pair, denominator always present."""
    return f"{num}/{den}"


def rat_str(q: Fraction) -> str:
    """Canonical "num/den" text, denominator always present."""
    return ratio_str(q.numerator, q.denominator)


def ratio_decimal(num: int, den: int, digits: int = 6) -> str:
    """Fixed-point decimal rendering of num/den (den >= 1) with ``digits``
    fractional digits.

    Rounds half up via integer arithmetic, so the result is deterministic
    across platforms and never passes through floating point.
    """
    if digits < 0:
        raise InvalidInputError("digits must be nonnegative")
    if num < 0:
        raise InvalidInputError("negative rationals are not rendered here")
    scale = 10**digits
    scaled = (2 * num * scale + den) // (2 * den)
    whole, frac = divmod(scaled, scale)
    if digits == 0:
        return str(whole)
    return f"{whole}.{frac:0{digits}d}"


def rat_decimal(q: Fraction, digits: int = 6) -> str:
    """:func:`ratio_decimal` of a ``Fraction``."""
    return ratio_decimal(q.numerator, q.denominator, digits)


def sqrt_decimal(q: Fraction, digits: int = 6) -> str:
    """Fixed-point decimal of sqrt(q), truncated to ``digits`` digits.

    Used for standard-error reporting; exact integer square root keeps the
    rendering byte-stable everywhere.
    """
    if q < 0:
        raise InvalidInputError("square root of a negative rational")
    scale = 10**digits
    # floor(sqrt(a/b) * 10^d) = isqrt(a*b*10^(2d)) // b
    val = math.isqrt(q.numerator * q.denominator * scale * scale) // q.denominator
    whole, frac = divmod(val, scale)
    if digits == 0:
        return str(whole)
    return f"{whole}.{frac:0{digits}d}"
