"""Closed-form zero-product probabilities and the bound chain.

For a finite commutative ring with identity (1 != 0) of order l, with k
nonzero zero-divisors and m the largest annihilator size among them:

    (2l + k - 1) / l^2  <=  P(R)  <=  (2l + (m-1)k - 1) / l^2

and P(R) <= 1/2 + 1/l^2 <= 3/4 always.  For prime powers the probability
has the exact value ((k+1)p - k) / p^(k+1), which multiplies across the
prime-power components of Z_n and across arbitrary direct products.
Everything below is exact: :func:`p_zn_ratio` and :func:`bound_chain`
work on integers, for callers that make one value per row, and the rest
return reduced fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

from zeroprod.arith import as_natural, histogram_product, rat_decimal, rat_make, rat_str
from zeroprod.errors import (
    ExcludedRingError, InvalidInputError, OracleMismatchError, ZeroDenominatorError,
)
from zeroprod.factor import Factorization, factorize, is_prime
from zeroprod.rings import (
    AnnProfile,
    Caps,
    DEFAULT_CAPS,
    RingSpec,
    Zn,
    ann_profile,
    ring_order,
)

GLOBAL_CAP = Fraction(3, 4)
_ZERO_RING = "n = 1 is the zero ring, which is exempt from the probability bounds"


def _validate_zpk(p: int, k: int) -> None:
    if not is_prime(as_natural(p, "p")):
        raise InvalidInputError(f"p must be prime, got {p}")
    if as_natural(k, "k") < 1:
        raise InvalidInputError("exponent k must be >= 1")


def p_zpk(p: int, k: int) -> Fraction:
    """Exact P(Z_{p^k}) = ((k+1)p - k) / p^(k+1) for prime p, k >= 1."""
    _validate_zpk(p, k)
    return Fraction(*p_zn_ratio([(p, k)]))


def p_zn_ratio(f: Factorization) -> tuple[int, int]:
    """P(Z_n) as a reduced pair (num, den) from a factorization of n >= 2.

    The product of ((k+1)p - k) / p^(k+1) over the prime powers p^k of
    n, reduced with one gcd.  ``f`` is taken as returned by
    :func:`factorize`, whose primes are proven, so they are not tested
    again.
    """
    if not f:
        raise ExcludedRingError(_ZERO_RING)
    num = den = 1
    for p, k in f:
        num *= (k + 1) * p - k
        den *= p ** (k + 1)
    g = gcd(num, den)
    return num // g, den // g


def p_zn_from_factorization(f: Factorization) -> Fraction:
    """:func:`p_zn_ratio` as a ``Fraction``."""
    return Fraction(*p_zn_ratio(f))


def p_zn(n: int) -> Fraction:
    """Exact P(Z_n) via factorization; n must be >= 2."""
    Zn(n)  # rejects an excluded modulus
    return p_zn_from_factorization(factorize(n))


def p_product(ps: list[Fraction]) -> Fraction:
    """Probability of a direct product: the exact product of the factors'."""
    if not ps:
        raise InvalidInputError("p_product needs at least one factor")
    out = Fraction(1)
    for q in ps:
        if not 0 <= q <= 1:
            raise InvalidInputError(f"{q} is not a probability")
        out *= q
    return out


def _validate_l_k(l: int, zcount: int) -> None:
    if as_natural(l, "l") < 2:
        raise InvalidInputError("ring order l must be >= 2")
    if as_natural(zcount, "zcount") > l - 2:
        raise InvalidInputError(
            f"zero-divisor count {zcount} impossible for order {l}: "
            "0 and 1 are never zero-divisors"
        )


def lower_bound(l: int, zcount: int) -> Fraction:
    """(2l + k - 1) / l^2 with k = |Z(R)|; every ring sits at or above it."""
    _validate_l_k(l, zcount)
    return rat_make(_chain(l, zcount, None, 0, 1)[0], l * l)


def _validate_m(l: int, zcount: int, m: int) -> None:
    if zcount == 0:
        if m != 1:
            raise InvalidInputError(
                "a ring without zero-divisors has max annihilator size 1; "
                f"got m = {m}"
            )
        return
    if as_natural(m, "m") < 1 or 2 * m > l:
        raise InvalidInputError(
            f"max annihilator size m = {m} must satisfy 1 <= m <= l/2 "
            "(annihilators of zero-divisors are proper ideals)"
        )


def upper_bound(l: int, zcount: int, m: int) -> Fraction:
    """(2l + (m-1)k - 1) / l^2; pass m = 1 when there are no zero-divisors."""
    _validate_l_k(l, zcount)
    _validate_m(l, zcount, m)
    return rat_make(_chain(l, zcount, m, 0, 1)[1], l * l)


def p_integral_domain(l: int) -> Fraction:
    """Exact value (2l - 1) / l^2 when the ring has no zero-divisors."""
    _validate_l_k(l, 0)
    return rat_make(2 * l - 1, l * l)


def p_uniform_ann(l: int, zcount: int, m: int) -> Fraction:
    """Exact value when every nonzero zero-divisor has |Ann(x)| = m.

    Numerically identical to :func:`upper_bound`; exposed separately
    because under the uniform-size hypothesis the bound is attained.
    """
    return upper_bound(l, zcount, m)


def refined_cap(l: int) -> Fraction:
    """1/2 + 1/l^2, the order-sensitive cap; equals 3/4 only at l = 2."""
    _validate_l_k(l, 0)
    return Fraction(1, 2) + Fraction(1, l * l)


def bound_chain(
    l: int, zcount: int, maxann: int | None, p: tuple[int, int]
) -> tuple[int, int, bool]:
    """The numerators over l^2 of the lower and upper bound for measured
    k and m, and whether the chain

        lower <= P <= upper <= 1/2 + 1/l^2 <= 3/4

    holds for P = num/den given as ``p = (num, den)``, den >= 1.  It is
    decided in integers, by cross-multiplication over the common
    denominators l^2, 2l^2 and 4l^2, so no ``Fraction`` is built; callers
    that print the bounds build them from the numerators.  ``maxann`` is
    None when the ring has no zero-divisors (m = 1).  Every input is
    checked first: an impossible l, k, m or denominator raises.
    """
    num, den = p
    if as_natural(den, "denominator") == 0:
        raise ZeroDenominatorError("denominator must be >= 1")
    _validate_l_k(l, zcount)
    _validate_m(l, zcount, 1 if maxann is None else maxann)
    return _chain(l, zcount, maxann, num, den)


def _chain(
    l: int, zcount: int, maxann: int | None, num: int, den: int
) -> tuple[int, int, bool]:
    """:func:`bound_chain` without its input checks, for a caller whose
    l, k, m and P come from a proven factorization.  This is the one
    place the chain and its bounds are written."""
    m = 1 if maxann is None else maxann
    lower = 2 * l + zcount - 1
    upper = 2 * l + (m - 1) * zcount - 1
    l2 = l * l
    holds = (
        lower * den <= num * l2 <= upper * den
        and 2 * upper <= l2 + 2  # upper <= (l^2 + 2) / (2 l^2)
        and 2 * (l2 + 2) <= 3 * l2  # 1/2 + 1/l^2 <= 3/4
    )
    return lower, upper, holds


def _zpk_histogram(p: int, k: int) -> dict[int, int]:
    # For a prime p that the caller has already checked or proven.
    hist = {p**i: p ** (k - i) - p ** (k - i - 1) for i in range(k)}
    hist[p**k] = 1
    return hist


def ann_profile_zpk(p: int, k: int) -> AnnProfile:
    """Predicted annihilator profile of Z_{p^k}.

    Residues of p-adic valuation exactly i < k (there are
    p^(k-i) - p^(k-i-1) of them) have annihilator size p^i: the units at
    i = 0 and the nonzero zero-divisors at i = 1..k-1.  The zero element
    accounts for the whole ring.
    """
    _validate_zpk(p, k)
    return AnnProfile.from_histogram(_zpk_histogram(p, k), p**k)


def ann_histogram_from_factorization(f: Factorization) -> dict[int, int]:
    """Predicted annihilator-size histogram of Z_n, size -> element
    count, from a factorization of n >= 2.

    Annihilator sizes multiply across the Z_{p^k} components of Z_n, so
    its histogram {d: phi(n/d) for d | n} is the multiplicative
    convolution of theirs: O(tau(n)) work, where measuring takes O(n).
    ``f`` is taken as returned by :func:`factorize`, whose primes are
    proven, so they are not tested again.
    """
    if not f:
        raise ExcludedRingError(_ZERO_RING)
    return histogram_product(_zpk_histogram(p, k) for p, k in f)


def ann_profile_from_factorization(f: Factorization) -> AnnProfile:
    """:func:`ann_histogram_from_factorization`, bucketed by element class."""
    hist = ann_histogram_from_factorization(f)
    return AnnProfile.from_histogram(hist, prod(p**k for p, k in f))


@dataclass(frozen=True)
class BoundsReport:
    """Measured ring quantities next to the bounds they must satisfy."""

    ring: str
    order: int
    zcount: int
    maxann: int | None
    lower: Fraction
    exact: Fraction
    upper: Fraction
    refined_cap: Fraction
    global_cap: Fraction
    all_hold: bool

    def to_dict(self, digits: int | None = None) -> dict:
        """JSON-ready dict; rationals as "num/den", optional decimals."""
        out: dict = {
            "ring": self.ring,
            "order": self.order,
            "zcount": self.zcount,
            "maxann": self.maxann,
            "lower": rat_str(self.lower),
            "exact": rat_str(self.exact),
            "upper": rat_str(self.upper),
            "refined_cap": rat_str(self.refined_cap),
            "global_cap": rat_str(self.global_cap),
            "all_hold": self.all_hold,
        }
        if digits is not None:
            out["exact_decimal"] = rat_decimal(self.exact, digits)
        return out


def bounds_report(spec: RingSpec, caps: Caps = DEFAULT_CAPS) -> BoundsReport:
    """Measure k, m, and P(R) on the actual ring and evaluate the bounds.

    This is a verification artifact: nothing here is predicted from n, so
    a false ``all_hold`` can only mean the implementation (or the math)
    is wrong; an impossible measured k, m or |Ann| raises OracleMismatchError.
    """
    order = ring_order(spec)
    profile = ann_profile(spec, caps)
    l2 = order * order
    count = profile.ann_count()
    try:
        lower, upper, all_hold = bound_chain(order, profile.zcount, profile.maxann, (count, l2))
        exact = rat_make(count, l2)
    except InvalidInputError as exc:
        measured = f"k = {profile.zcount}, m = {profile.maxann}, |Ann| = {count}"
        raise OracleMismatchError(f"measured {measured} for {spec}: {exc}") from exc
    return BoundsReport(
        ring=str(spec),
        order=order,
        zcount=profile.zcount,
        maxann=profile.maxann,
        lower=Fraction(lower, l2),
        exact=exact,
        upper=Fraction(upper, l2),
        refined_cap=refined_cap(order),
        global_cap=GLOBAL_CAP,
        all_hold=all_hold,
    )
