"""Finite commutative ring models and the measured (brute-force) oracles.

Two models are supported: Z_n for n >= 2, and finite direct products of
models with componentwise operations.  Every enumeration-based operation
takes a :class:`Caps` budget and refuses rings above it, so CLI behavior
stays predictable no matter what modulus a user types.

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
class Zn:
    """The ring of integers modulo n; requires n >= 2.

    Modulus 1 would be the zero ring (its identity equals 0) and is
    rejected, as is anything smaller: those degenerate cases have
    zero-product probability 1 and are exempt from the bounds this
    package computes.
    """

    n: int

    def __post_init__(self):
        as_natural(self.n, "modulus")
        if self.n < 2:
            raise ExcludedRingError(
                f"Zn({self.n}) is excluded: the zero ring and rings without "
                "an identity distinct from 0 are exempt (modulus must be >= 2)"
            )

    def __str__(self) -> str:
        return f"Zn({self.n})"


@dataclass(frozen=True)
class Product:
    """A direct product of ring models, componentwise arithmetic."""

    factors: tuple["RingSpec", ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if len(self.factors) < 2:
            raise InvalidInputError("a product ring needs at least two factors")
        for f in self.factors:
            if not isinstance(f, (Zn, Product)):
                raise InvalidInputError(f"not a ring spec: {f!r}")

    def __str__(self) -> str:
        return "x".join(str(f) for f in self.factors)


RingSpec = Zn | Product

_ZN_TOKEN = re.compile(r"Zn\((\d+)\)\Z")


def parse_ring(text: str) -> RingSpec:
    """Parse the CLI ring grammar: ``Zn(<n>)``, products joined by ``x``.

    Whitespace is insignificant: ``"Zn(4) x Zn(9)"`` and ``"Zn(4)xZn(9)"``
    denote the same ring.
    """
    compact = re.sub(r"\s+", "", text)
    if not compact:
        raise RingParseError("empty ring expression")
    parts = compact.split("x")
    specs = []
    for part in parts:
        m = _ZN_TOKEN.match(part)
        if m is None:
            raise RingParseError(
                f"cannot parse ring component {part!r}; expected Zn(<n>)"
            )
        specs.append(Zn(int(m.group(1))))
    if len(specs) == 1:
        return specs[0]
    return Product(tuple(specs))


def ring_order(spec: RingSpec) -> int:
    """|R|: the modulus for Zn, the product of factor orders for products."""
    if isinstance(spec, Zn):
        return spec.n
    out = 1
    for f in spec.factors:
        out *= ring_order(f)
    return out


def leaf_moduli(spec: RingSpec) -> tuple[int, ...]:
    """Moduli of the Zn leaves in left-to-right order."""
    if isinstance(spec, Zn):
        return (spec.n,)
    out: tuple[int, ...] = ()
    for f in spec.factors:
        out += leaf_moduli(f)
    return out


def leaf_digits(x) -> tuple[int, ...]:
    """Residues of an element's Zn leaves in left-to-right order."""
    if isinstance(x, tuple):
        return tuple(d for c in x for d in leaf_digits(c))
    return (x,)


def zero_element(spec: RingSpec):
    if isinstance(spec, Zn):
        return 0
    return tuple(zero_element(f) for f in spec.factors)


def elements(spec: RingSpec):
    """All elements in canonical order (ascending residues, lexicographic)."""
    if isinstance(spec, Zn):
        return iter(range(spec.n))
    return itertools.product(*(elements(f) for f in spec.factors))


def element_mul(spec: RingSpec, a, b):
    if isinstance(spec, Zn):
        return (a * b) % spec.n
    return tuple(
        element_mul(f, x, y) for f, x, y in zip(spec.factors, a, b)
    )


def validate_element(spec: RingSpec, x) -> None:
    if isinstance(spec, Zn):
        if not isinstance(x, int) or not 0 <= x < spec.n:
            raise InvalidInputError(f"{x!r} is not a residue of {spec}")
        return
    if not isinstance(x, tuple) or len(x) != len(spec.factors):
        raise InvalidInputError(f"{x!r} does not match the arity of {spec}")
    for f, c in zip(spec.factors, x):
        validate_element(f, c)


def element_str(x) -> str:
    if isinstance(x, tuple):
        return "(" + ",".join(element_str(c) for c in x) + ")"
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


def ann_size_zn(n: int, x: int) -> int:
    """|Ann(x)| in Z_n without enumeration: gcd(x, n), with gcd(0, n) = n.

    The annihilator of x is generated by n/gcd(x, n), hence has exactly
    gcd(x, n) elements; this is the fast path the pairwise oracle checks.
    """
    if as_natural(n, "n") < 2:
        raise InvalidInputError("n must be >= 2")
    if not 0 <= as_natural(x, "x") < n:
        raise InvalidInputError(f"residue {x} out of range for Zn({n})")
    return _int_gcd(x, n)


def ann_size(spec: RingSpec, x) -> int:
    """|Ann(x)| for any supported model; products multiply componentwise."""
    if isinstance(spec, Zn):
        return ann_size_zn(spec.n, x)
    validate_element(spec, x)
    out = 1
    for f, c in zip(spec.factors, x):
        out *= ann_size(f, c)
    return out


def ann_set(spec: RingSpec, x, caps: Caps = DEFAULT_CAPS) -> set:
    """{ y : x*y = 0 }, by enumerating the ring."""
    validate_element(spec, x)
    _require_single(spec, caps)
    if isinstance(spec, Zn):
        n = spec.n
        return {y for y in range(n) if (x * y) % n == 0}
    zero = zero_element(spec)
    return {y for y in elements(spec) if element_mul(spec, x, y) == zero}


def zero_divisor_set(spec: RingSpec, caps: Caps = DEFAULT_CAPS) -> set:
    """All nonzero x that kill some nonzero y (the vertex set Z(R))."""
    _require_single(spec, caps)
    if isinstance(spec, Zn):
        n = spec.n
        return {x for x in range(1, n) if _int_gcd(x, n) >= 2}
    zero = zero_element(spec)
    return {
        x for x in elements(spec) if x != zero and ann_size(spec, x) >= 2
    }


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


def ann_profile(spec: RingSpec, caps: Caps = DEFAULT_CAPS) -> AnnProfile:
    """Measure the annihilator profile of the ring in one kernel pass.

    This is the only caller of the annihilator-histogram kernel, which
    takes Z_n as a one-leaf product: every measured k, m and
    zero-product count in the package comes from here.
    """
    order = _require_single(spec, caps)
    hist = kernels.ann_size_histogram_mixed(leaf_moduli(spec))
    return AnnProfile.from_histogram(hist, order)


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
    if isinstance(spec, Zn):
        return kernels.ann_pair_count_zn(spec.n)
    return kernels.ann_pair_count_mixed(leaf_moduli(spec))


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
