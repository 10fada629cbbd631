"""verify judges a ring on its measured and derived histograms, and its
verdict is the one that bucketing both into annihilator profiles gives."""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeroprod import verify
from zeroprod.arith import rat_str, ratio_str
from zeroprod.errors import ZeroprodError
from zeroprod.factor import factorize
from zeroprod.formulas import p_zn_ratio
from zeroprod.rings import DEFAULT_CAPS, AnnProfile, Zn, ann_histogram
from zeroprod.verify import CheckFailure


def _reference_check_n(n, caps, pairwise_bound):
    """Every check of a ring decided on its bucketed profiles, through
    the same hooks as ``verify._check_n``."""

    def rat(count):
        return rat_str(Fraction(count, l2))

    failures = []
    spec = Zn(n)
    l2 = n * n
    f = verify.factorize(n)
    num, den = verify.p_zn_ratio(f)
    derived_hist = verify.ann_histogram_from_factorization(f)
    derived = AnnProfile.from_histogram(derived_hist, prod(p**k for p, k in f))
    profile = AnnProfile.from_histogram(verify.ann_histogram(spec, caps), n)
    count = profile.ann_count()
    counts = {"pillai": derived.ann_count(), "measured": count}
    if n <= min(pairwise_bound, caps.pairwise):
        counts["pairs"] = verify.pair_count(spec, caps)
    if any(c * den != num * l2 for c in counts.values()):
        legs = [f"closed={ratio_str(num, den)}"]
        legs += [f"{name}={rat(c)}" for name, c in counts.items()]
        failures.append(CheckFailure("triple-oracle", n, " ".join(legs)))

    zcount, maxann = profile.zcount, profile.maxann
    if profile.zero != {n: 1}:
        detail = f"zero bucket is {profile.zero}"
    elif profile.rest != {1: n - 1 - zcount}:
        detail = f"rest bucket is {profile.rest}"
    elif zcount > n - 2:
        detail = f"k = {zcount} > l - 2 = {n - 2}"
    elif maxann is not None and 2 * maxann > n:
        detail = f"m = {maxann} > l/2"
    elif (zcount, maxann) != (derived.zcount, derived.maxann):
        detail = f"measured k, m = {zcount}, {maxann}"
        detail += f" but derived {derived.zcount}, {derived.maxann}"
    else:
        detail = None
    if detail is not None:
        failures.append(CheckFailure("ann-buckets", n, detail))
    else:
        lower, upper, holds = verify.bound_chain(n, zcount, maxann, (count, l2))
        if not holds:
            detail = f"lower={rat(lower)} exact={rat(count)} upper={rat(upper)}"
            failures.append(CheckFailure("bounds-chain", n, detail))

    if len(f) == 1 and derived != profile:
        detail = f"predicted {derived} measured {profile}"
        failures.append(CheckFailure("prime-power-profile", n, detail))
    return 3 + (len(f) == 1), failures


def _outcome(check, n, pairwise_bound):
    """(checks, failures), or the type and text of what the check raised."""
    try:
        return check(n, DEFAULT_CAPS, pairwise_bound)
    except ZeroprodError as exc:  # an impossible k or m reaches bound_chain
        return type(exc), str(exc)


@st.composite
def _corrupted_rings(draw):
    """n, a measured and a derived histogram of Z_n, each either true or
    corrupted, and the order that the derived factorization multiplies to."""
    n = draw(st.integers(2, 40))
    true = ann_histogram(Zn(n))

    def corrupt(hist):
        hist = dict(hist)
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from(["size", "count", "drop-1", "drop"]))
            if kind == "size":  # most sizes are no divisor of n
                hist[draw(st.integers(-1, 2 * n + 1))] = draw(st.integers(-2, n))
            elif kind == "count" and hist:
                hist[draw(st.sampled_from(sorted(hist)))] = draw(st.integers(-3, 0))
            elif kind == "drop-1":
                hist.pop(1, None)
            elif hist:
                del hist[draw(st.sampled_from(sorted(hist)))]
        return hist

    measured = corrupt(true)
    choice = draw(st.sampled_from(["true", "measured", "corrupted"]))
    derived = true if choice == "true" else measured if choice == "measured" else corrupt(true)
    order = draw(st.just(n) | st.integers(2, 64))
    return n, measured, derived, order


@settings(max_examples=400, deadline=None)
@given(ring=_corrupted_rings(), pairwise_bound=st.sampled_from([0, 300]))
def test_verdicts_match_the_profile_reference(ring, pairwise_bound):
    n, measured, derived, order = ring
    closed = p_zn_ratio(factorize(n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "factorize", lambda _: factorize(order))
        mp.setattr(verify, "p_zn_ratio", lambda _: closed)
        mp.setattr(verify, "ann_histogram", lambda spec, caps: dict(measured))
        mp.setattr(verify, "ann_histogram_from_factorization", lambda f: dict(derived))
        want = _outcome(_reference_check_n, n, pairwise_bound)
        assert _outcome(verify._check_n, n, pairwise_bound) == want
