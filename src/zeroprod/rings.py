"""Finite commutative ring models and the measured (brute-force) oracles.

One ring type, :class:`RingSpec`, models Z_n for n >= 2 and the finite
direct products Z_{m1} x ... x Z_{mr} with componentwise operations: a
ring is its tuple of moduli, ``spec.moduli``.  :func:`Zn` builds the
one-modulus case, :func:`Product` flattens nested factors, and
:func:`parse_ring` reads the CLI grammar.  This module alone knows the
format of an element: a plain int for Z_n, a flat tuple of digits, one
residue per modulus, for a product.  Which kernel serves which ring
shape is :mod:`zeroprod.kernels`' choice.  Every enumeration-based
operation takes a :class:`Caps` budget and refuses rings above it, so
CLI behavior stays predictable no matter what modulus a user types.

The measured quantities here (annihilator sizes, zero-divisor counts,
ordered zero-product pair counts) are what the closed-form layer in
:mod:`zeroprod.formulas` is tested against.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _int_gcd
from math import prod

from zeroprod import kernels
from zeroprod.arith import as_natural, rat_make
from zeroprod.errors import (
    ExcludedRingError,
    InvalidInputError,
    OracleMismatchError,
    ResourceLimitError,
    RingParseError,
)

DEFAULT_SINGLE_CAP = 1 << 16
DEFAULT_PAIRWISE_CAP = 1 << 12


@dataclass(frozen=True)
class Caps:
    """Enumeration budgets: max ring order for O(l) and O(l^2) operations."""

    single: int = DEFAULT_SINGLE_CAP
    pairwise: int = DEFAULT_PAIRWISE_CAP


DEFAULT_CAPS = Caps()


@dataclass(frozen=True)
class RingSpec:
    """The ring Z_{m1} x ... x Z_{mr}, given by its moduli in order.

    Z_n is the one-modulus case.  Every modulus must be an int >= 2:
    modulus 1 is the zero ring (its identity equals 0), and it and the
    smaller ones have zero-product probability 1, exempt from the
    bounds this package computes.
    """

    moduli: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.moduli, tuple) or not self.moduli:
            raise InvalidInputError(f"moduli must be a nonempty tuple, got {self.moduli!r}")
        for m in self.moduli:
            if as_natural(m, "modulus") < 2:
                raise ExcludedRingError(
                    f"Zn({m}) is excluded: the zero ring and rings without "
                    "an identity distinct from 0 are exempt (modulus must be >= 2)"
                )

    def __str__(self) -> str:
        return "x".join(f"Zn({m})" for m in self.moduli)


def Zn(n: int) -> RingSpec:
    """The ring of integers modulo n; requires n >= 2."""
    return RingSpec((n,))


def Product(factors: tuple[RingSpec, ...]) -> RingSpec:
    """The direct product of at least two rings, componentwise arithmetic.

    Nested products flatten: ``Product((Zn(4), Product((Zn(2), Zn(3)))))``
    equals ``Product((Zn(4), Zn(2), Zn(3)))``, with moduli (4, 2, 3).
    """
    given = tuple(factors)
    if len(given) < 2:
        raise InvalidInputError("a product ring needs at least two factors")
    moduli = ()
    for f in given:
        if not isinstance(f, RingSpec):
            raise InvalidInputError(f"not a ring spec: {f!r}")
        moduli += f.moduli
    return RingSpec(moduli)


_ZN_TOKEN = re.compile(r"Zn\((\d+)\)\Z")


def parse_ring(text: str) -> RingSpec:
    """Parse the CLI ring grammar: ``Zn(<n>)``, products joined by ``x``.

    Whitespace is insignificant: ``"Zn(4) x Zn(9)"`` and ``"Zn(4)xZn(9)"``
    denote the same ring.
    """
    compact = re.sub(r"\s+", "", text)
    if not compact:
        raise RingParseError("empty ring expression")
    moduli = ()
    for part in compact.split("x"):
        m = _ZN_TOKEN.match(part)
        if m is None:
            raise RingParseError(
                f"cannot parse ring component {part!r}; expected Zn(<n>)"
            )
        moduli += Zn(int(m.group(1))).moduli
    return RingSpec(moduli)


def ring_order(spec: RingSpec) -> int:
    """|R|: the product of the moduli."""
    return prod(spec.moduli)


def zero_element(spec: RingSpec):
    return 0 if len(spec.moduli) == 1 else (0,) * len(spec.moduli)


def elements(spec: RingSpec):
    """All elements in canonical order (ascending residues, lexicographic)."""
    if len(spec.moduli) == 1:
        return iter(range(spec.moduli[0]))
    return itertools.product(*map(range, spec.moduli))


def element_mul(spec: RingSpec, a, b):
    mods = spec.moduli
    if len(mods) == 1:
        return a * b % mods[0]
    return tuple(x * y % m for x, y, m in zip(a, b, mods))


def validate_element(spec: RingSpec, x) -> None:
    """Raise unless x is an element: one int residue per modulus, packed
    in a tuple for a product.  As in ``as_natural``, a bool is no residue."""
    digits = (x,) if len(spec.moduli) == 1 else x
    if not isinstance(digits, tuple) or len(digits) != len(spec.moduli):
        raise InvalidInputError(f"{x!r} does not match the arity of {spec}")
    for d, m in zip(digits, spec.moduli):
        if not isinstance(d, int) or isinstance(d, bool) or not 0 <= d < m:
            raise InvalidInputError(f"{d!r} is not a residue of Zn({m})")


def element_str(x) -> str:
    """``5`` for a Z_n element, ``(1,0,2)`` for a product element."""
    if isinstance(x, tuple):
        return "(" + ",".join(map(str, x)) + ")"
    return str(x)


def _require_single(spec: RingSpec, caps: Caps) -> int:
    order = ring_order(spec)
    if order > caps.single:
        raise ResourceLimitError(
            f"ring order {order} exceeds the enumeration cap {caps.single}"
        )
    return order


def _require_pairwise(spec: RingSpec, caps: Caps) -> int:
    order = ring_order(spec)
    if order > caps.pairwise:
        raise ResourceLimitError(
            f"ring order {order} exceeds the pair-enumeration cap {caps.pairwise}"
        )
    return order


def _ann_size(spec: RingSpec, x) -> int:
    """|Ann(x)| for an element known to be valid."""
    mods = spec.moduli
    if len(mods) == 1:
        return _int_gcd(x, mods[0])
    return prod(map(_int_gcd, x, mods))


def ann_size(spec: RingSpec, x) -> int:
    """|Ann(x)|: the product of gcd(d, m) over the digits d of x and the
    moduli m, with gcd(0, m) = m."""
    validate_element(spec, x)
    return _ann_size(spec, x)


def ann_set(spec: RingSpec, x, caps: Caps = DEFAULT_CAPS) -> set:
    """{ y : x*y = 0 }, by enumerating the ring."""
    validate_element(spec, x)
    _require_single(spec, caps)
    zero = zero_element(spec)
    return {y for y in elements(spec) if element_mul(spec, x, y) == zero}


def zero_divisor_set(spec: RingSpec, caps: Caps = DEFAULT_CAPS) -> set:
    """All nonzero x that kill some nonzero y (the vertex set Z(R)): the
    nonzero x with |Ann(x)| >= 2."""
    _require_single(spec, caps)
    out = {x for x in elements(spec) if _ann_size(spec, x) >= 2}
    out.discard(zero_element(spec))
    return out


@dataclass(eq=True)
class AnnProfile:
    """Annihilator sizes bucketed by element class.

    ``zero`` holds the sizes of at least |R| (x = 0 alone in a correct
    ring), ``zdiv`` the sizes from 2 to |R| - 1 (the nonzero
    zero-divisors), ``rest`` the sizes below 2 (the units).  Each mapping
    sends an annihilator size to how many elements have it.
    """

    zero: dict[int, int]
    zdiv: dict[int, int]
    rest: dict[int, int]

    @property
    def zcount(self) -> int:
        """k = |Z(R)|, the number of nonzero zero-divisors."""
        return sum(self.zdiv.values())

    @property
    def maxann(self) -> int | None:
        """m = max |Ann(x)| over x in Z(R); None without zero-divisors."""
        return max(self.zdiv, default=None)

    @classmethod
    def from_histogram(cls, hist: dict[int, int], order: int) -> "AnnProfile":
        """Bucket a size -> count histogram of a ring of the given order."""
        zero, zdiv, rest = {}, {}, {}
        for size, cnt in sorted(hist.items()):
            bucket = zero if size >= order else zdiv if size >= 2 else rest
            bucket[size] = cnt
        return cls(zero=zero, zdiv=zdiv, rest=rest)

    def histogram(self) -> dict[int, int]:
        """Annihilator size -> element count over all three buckets."""
        return {**self.zero, **self.zdiv, **self.rest}

    def total_elements(self) -> int:
        return sum(self.histogram().values())

    def ann_count(self) -> int:
        """Sum of size*count over all buckets = ordered zero-product pairs."""
        return sum(size * cnt for size, cnt in self.histogram().items())


def ann_histogram(spec: RingSpec, caps: Caps = DEFAULT_CAPS) -> dict[int, int]:
    """Measure the ring's annihilator-size histogram, size -> element
    count, in one kernel pass.

    This is the only caller of the annihilator-histogram kernel, which
    takes Z_n as a one-modulus product: every measured k, m and
    zero-product count in the package comes from here.
    """
    _require_single(spec, caps)
    return kernels.ann_size_histogram_mixed(spec.moduli)


def ann_profile(spec: RingSpec, caps: Caps = DEFAULT_CAPS) -> AnnProfile:
    """The measured :func:`ann_histogram`, bucketed by element class."""
    return AnnProfile.from_histogram(ann_histogram(spec, caps), ring_order(spec))


def zero_divisor_count(spec: RingSpec, caps: Caps = DEFAULT_CAPS) -> int:
    """|Z(R)| from the measured profile, without materializing the set."""
    return ann_profile(spec, caps).zcount


def max_ann_size(spec: RingSpec, caps: Caps = DEFAULT_CAPS) -> int | None:
    """max |Ann(x)| over x in Z(R); None when the ring has no zero-divisors."""
    return ann_profile(spec, caps).maxann


def gcd_sum(n: int) -> int:
    """Sum of gcd(x, n) for x in [0, n) with gcd(0, n) = n.

    Computed by direct summation; for Z_n this equals the number of
    ordered zero-product pairs, which makes it an oracle independent of
    both the closed forms and the pairwise enumeration.
    """
    if as_natural(n, "n") < 1:
        raise InvalidInputError("n must be >= 1")
    return kernels.gcd_sum(n)


def pair_count(spec: RingSpec, caps: Caps = DEFAULT_CAPS) -> int:
    """Ordered pairs (x, y) with x*y = 0, by O(|R|^2) pair enumeration."""
    _require_pairwise(spec, caps)
    return kernels.pair_count(spec.moduli)


def ann_count_total(
    spec: RingSpec, paranoid: bool = False, caps: Caps = DEFAULT_CAPS
) -> int:
    """Ordered pairs (x, y) with x*y = 0.

    The default path sums per-element annihilator sizes (gcd products),
    which is O(|R|).  With ``paranoid=True`` the O(|R|^2) pairwise
    enumeration also runs and the two counts must agree; disagreement
    raises, since it can only mean a broken build.
    """
    fast = ann_profile(spec, caps).ann_count()
    if paranoid:
        slow = pair_count(spec, caps)
        if slow != fast:
            raise OracleMismatchError(
                f"pair enumeration ({slow}) disagrees with the gcd fast "
                f"path ({fast}) for {spec}"
            )
    return fast


def prob_brute(
    spec: RingSpec, paranoid: bool = False, caps: Caps = DEFAULT_CAPS
) -> Fraction:
    """Measured zero-product probability |Ann| / |R|^2, exact and reduced."""
    order = ring_order(spec)
    return rat_make(ann_count_total(spec, paranoid=paranoid, caps=caps), order * order)
