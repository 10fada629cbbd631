"""Enumeration kernels: the hot loops behind the measured oracles.

The pair counts and graph edges test every pair and the Z_n histogram
classifies every element, so ``verify``, ``--paranoid``, ``graph`` and
``montecarlo`` measure what the closed forms predict instead of
repeating them.  The Z_n histogram is a divisor sieve over a bytearray
of Z_n; a product ring's histogram is the product
(:func:`zeroprod.arith.histogram_product`) of its components' sieve
histograms, so the ring's elements are never walked.  The Z_n pair
count and Z_n graph edges test every pair by reading one byte of a
multiples-of-n table, a row of pairs at a time through strided slices;
the pair count reads each unordered pair once.  The product-ring pair count and graph
edges test every pair, 64 pairs per machine word: each component's
zero-product sets are found by enumeration and lifted to bitsets over
the ring's elements, and an element's zero-product row is the AND of
its components' bitsets.  Monte Carlo computes, rejects and reduces
its splitmix64 draws a block at a time and tests each sampled pair's
product.  Miller-Rabin (:func:`is_prime`) and Brent's rho
(:func:`brent_rho`) test and split the cofactors that
:mod:`zeroprod.factor` cannot settle by trial division.

Five kernels have a compiled form, in ``_native.c``: Monte Carlo,
Brent's rho and Miller-Rabin, whose every step is a few big-integer
operations, and the pair count and graph edges, of Z_n and of product
rings.  There the Z_n kernels run 16 rows side by side as running
residues x*y mod n, and the product-ring kernels AND the same zero
lanes as here, in 64-bit words.  This module is their only dispatch
point.  A call runs the compiled form when its arguments fit (n,
samples and seed below 2**64 for Monte Carlo; n, c and x0 for rho; n
for Miller-Rabin; n below 2**31 for the Z_n pair kernels) and the
library exists; otherwise it runs the pure form, which takes
arbitrary-precision integers and returns the same values.  Either form
of a product-ring kernel holds (sum of the moduli) zero lanes of
ceil(order/64) words.  One check runs before either form: no moduli or
a modulus below 1 raise ``ValueError``, and lanes of more than 2**28
bytes raise ``ResourceLimitError``, before anything is allocated.  Every
ring that limit admits has an order below 2**31, so the compiled form
runs whenever the library exists.  The extension module is built once
per machine and Python, by the first import that finds it missing, into
``__pycache__/_native-<crc32 of the source><extension suffix>`` through
an atomic rename; a request never starts a compiler.  It is loaded at
the first compiled call, so a process that runs none of these kernels
never loads it.  ``ZEROPROD_BACKEND=python`` selects the pure forms;
:func:`backend` names the active backend and, when it is pure, why.

Callers reach a ring's kernels through three entries that take its
tuple of moduli: :func:`pair_count` and :func:`graph_edges` pick the
Z_n kernel for one modulus and the product-ring kernel for more, and
:func:`ann_size_histogram_mixed` takes Z_n as a one-modulus product.
Callers use the module attribute (``kernels.pair_count``), and the
entries look their kernels up as module globals at call time, so a
kernel rebound on this module is the one that runs.
"""

from __future__ import annotations

import os
import shutil
import zlib
from contextlib import suppress
from functools import reduce
from importlib.machinery import EXTENSION_SUFFIXES
from itertools import compress, product, repeat
from math import gcd, isqrt, prod
from operator import and_, countOf, ge, getitem, mod, mul, not_
from struct import Struct

from zeroprod.arith import histogram_product
from zeroprod.errors import ResourceLimitError

_MASK64 = (1 << 64) - 1
_SM64_GAMMA = 0x9E3779B97F4A7C15
_SM64_MIX1 = 0xBF58476D1CE4E5B9
_SM64_MIX2 = 0x94D049BB133111EB
_BLOCK = 1024  # splitmix64 outputs computed side by side
_TABLE_BYTES = 1 << 20  # cap on the size of the multiples table of Z_n
_NATIVE_LIMIT = 1 << 64  # every argument of a compiled kernel is below this
_PAIR_LIMIT = 1 << 31  # ring orders of the compiled pair kernels
_LANE_BYTES = 1 << 28  # cap on the zero lanes of one product-ring kernel call
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_HERE = os.path.dirname(os.path.abspath(__file__))


def _build_native() -> tuple[str | None, str | None]:
    """(path of the compiled kernels, None), or (None, why there are none).

    A missing library is compiled from ``_native.c`` into a temporary
    file beside its final name, then renamed into place, so concurrent
    importers never load a partial file.  Its name holds the CRC-32 of the
    source and the interpreter's extension suffix, so an edited source or
    another Python builds its own.  A compiler that fails leaves a
    ``.failed`` file holding its reason, and later imports read that
    instead of compiling again; delete it to retry.  A successful build
    deletes the builds of other sources for the same Python.
    """
    source = os.path.join(_HERE, "_native.c")
    try:
        with open(source, "rb") as fh:
            key = zlib.crc32(fh.read())
    except OSError as exc:
        return None, f"no C source: {exc.strerror}"
    cache = os.path.join(_HERE, "__pycache__")
    library = os.path.join(cache, f"_native-{key:08x}{EXTENSION_SUFFIXES[0]}")
    if os.path.exists(library):
        return library, None
    try:
        with open(library + ".failed", encoding="utf-8") as fh:
            return None, fh.read().strip()
    except OSError:
        pass
    compiler = shutil.which("gcc")
    if compiler is None:
        return None, "no C compiler on PATH"
    import subprocess
    import sysconfig

    include = sysconfig.get_paths()["include"]
    tmp = f"{library}.{os.getpid()}.tmp"
    try:
        os.makedirs(cache, exist_ok=True)
        if not os.access(cache, os.W_OK):
            return None, f"build failed: cannot write to {cache}"
        done = subprocess.run(
            [compiler, "-O2", "-shared", "-fPIC", f"-I{include}", "-o", tmp, source],
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            timeout=300,
        )
        if done.returncode == 0:
            os.replace(tmp, library)
            _remove_stale_builds(cache, key)
            return library, None
        lines = done.stderr.strip().splitlines() or [f"exit code {done.returncode}"]
        why = f"build failed: {compiler}: {lines[0]}"
        with open(library + ".failed", "w", encoding="utf-8") as fh:
            fh.write(why + "\n")
        return None, why
    except (OSError, subprocess.TimeoutExpired) as exc:
        return None, f"build failed: {exc}"
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _remove_stale_builds(cache: str, key: int) -> None:
    """Delete from ``cache`` the builds for this Python of sources other
    than the one of CRC ``key``, and their ``.failed`` markers.  Other
    Pythons' builds, of other extension suffixes, stay."""
    import re

    build = re.compile(rf"_native-([0-9a-f]{{8}}){re.escape(EXTENSION_SUFFIXES[0])}(\.failed)?")
    try:
        names = os.listdir(cache)
    except OSError:
        return
    for name in names:
        match = build.fullmatch(name)
        if match and match[1] != f"{key:08x}":
            with suppress(OSError):
                os.unlink(os.path.join(cache, name))


def _load_native(path: str):
    """The extension module of compiled kernels at ``path``."""
    from importlib.util import module_from_spec, spec_from_file_location

    spec = spec_from_file_location("zeroprod._native", path)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


if os.environ.get("ZEROPROD_BACKEND") == "python":
    _native_path, _pure_reason = None, "forced by ZEROPROD_BACKEND=python"
else:
    _native_path, _pure_reason = _build_native()
_native = None  # loaded at the first compiled call


def _compiled():
    """The loaded compiled kernels, or None on the pure backend."""
    global _native, _native_path, _pure_reason
    if _native is None and _native_path is not None:
        try:
            _native = _load_native(_native_path)
        except ImportError as exc:
            _native_path, _pure_reason = None, f"load failed: {exc}"
    return _native


def _fits_native(n: int, *rest: int) -> bool:
    """The overflow predicate of both compiled kernels: 0 < n < 2**64 and
    every other argument in [0, 2**64)."""
    return 0 < n < _NATIVE_LIMIT and all(0 <= v < _NATIVE_LIMIT for v in rest)


def backend() -> str:
    """The active kernel backend, reported by ``--backend``: "compiled",
    or "python (<why>)".  Loads nothing."""
    return "compiled" if _native_path is not None else f"python ({_pure_reason})"


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


def _multiples_table(n: int) -> bytes:
    """Bytes of period n with 1 exactly at the multiples of n.

    The byte at x*y0 mod n + x*(y - y0) is 1 iff x*y = 0 in Z_n, so a
    row x reads its products for y = y0, y0+1, ... as one strided slice
    from x*y0 mod n, as many y per slice as the table reaches.  No row
    reaches beyond x*(n - x) + n < n*(n//4 + 2), so the table is sized to
    that, capped at _TABLE_BYTES.
    """
    return (b"\1" + bytes(n - 1)) * max(2, min(_TABLE_BYTES // n, n // 4 + 2))


def ann_pair_count_zn(n: int) -> int:
    """Ordered pairs (x, y) in Z_n^2 with x*y = 0, by full enumeration.
    The compiled form runs when 1 <= n < 2**31, so a residue below n plus
    an element below n cannot wrap its 32-bit lanes."""
    if 0 < n < _PAIR_LIMIT and (native := _compiled()) is not None:
        return native.pair_count((n,))
    return _ann_pair_count_zn_py(n)


def _ann_pair_count_zn_py(n: int) -> int:
    """Pure :func:`ann_pair_count_zn`.

    Multiplication commutes, so each unordered pair is tested once: the
    count is the diagonal plus twice the strict upper triangle.  Row x
    reads the bytes of y in (x, n) from the multiples table.
    """
    table = _multiples_table(n)
    reach = len(table) - n  # a slice starts below n and ends in the table
    diagonal, upper = 1, n - 1  # x = 0 kills every y
    for x in range(1, n):
        diagonal += x * x % n == 0
        block = reach // x + 1
        for y in range(x + 1, n, block):
            start = x * y % n
            upper += table[start : start + x * min(block, n - y) : x].count(1)
    return diagonal + 2 * upper


def _require_lanes(mods: tuple[int, ...]) -> None:
    """Refuse no moduli or a modulus below 1, with the compiled form's
    ``ValueError``, and zero lanes of more than _LANE_BYTES: (sum of the
    moduli) lanes of ceil(order/64) 64-bit words.  The product-ring
    entries call it before either form allocates a lane.  Two or more
    moduli sum to at least 2, so it refuses every such ring of order
    2**31 or more."""
    if not mods:
        raise ValueError("no moduli")
    if min(mods) < 1:
        raise ValueError("moduli must be >= 1")
    lane_bytes = sum(mods) * -(-prod(mods) // 64) * 8
    if lane_bytes > _LANE_BYTES:
        raise ResourceLimitError(
            f"the zero lanes of a product ring of order {prod(mods)} take "
            f"{lane_bytes} bytes, above the lane-memory limit of {_LANE_BYTES} bytes"
        )


def _repeat(bits: int, width: int, count: int) -> int:
    """``count`` copies of ``bits`` (below 2**width), one every ``width``
    bits.  Doubling builds them with O(log count) shifts and ORs, so the
    cost is linear in the count*width bits made."""
    out = shift = 0
    while True:
        if count & 1:
            out |= bits << shift
            shift += width
        count >>= 1
        if not count:
            return out
        bits |= bits << width
        width *= 2


def _zero_lanes(mods: tuple[int, ...]) -> list[list[int]]:
    """Per component t and digit v, the set of elements b of the product
    whose digit b_t satisfies v*b_t = 0 in Z_{m_t}, as a bitset.

    Bit i stands for the element with odometer index i (the last digit
    varies fastest), so digit t selects blocks of stride_t consecutive
    bits, repeated every m_t*stride_t bits.  The digits w with v*w = 0
    are found by enumerating w; a pattern with one bit per such block,
    times 2**stride_t - 1, fills their blocks within one period, and
    :func:`_repeat` lifts the period to the whole index range.
    """
    total = prod(mods)
    lanes = []
    stride = total
    for m in mods:
        stride //= m
        tile = m * stride
        lane = []
        for v in range(m):
            products = map(mod, range(0, v * m, v), repeat(m)) if v else repeat(0, m)
            pattern = sum(1 << (w * stride) for w in compress(range(m), map(not_, products)))
            lane.append(_repeat((pattern << stride) - pattern, tile, total // tile))
        lanes.append(lane)
    return lanes


def ann_pair_count_mixed(mods: tuple[int, ...]) -> int:
    """Ordered zero-product pairs in a product of Z_m rings, enumerated.
    The compiled form runs whenever the lane limit admits the ring."""
    _require_lanes(mods)
    if (native := _compiled()) is not None:
        return native.pair_count(mods)
    return _ann_pair_count_mixed_py(mods)


def _ann_pair_count_mixed_py(mods: tuple[int, ...]) -> int:
    """Pure :func:`ann_pair_count_mixed`.

    The row of a = (a_1, ..., a_r) is the AND over t of the lane of a_t:
    the bitset of every b with a*b = 0.  Its popcount counts them.
    """
    return sum(reduce(and_, row).bit_count() for row in product(*_zero_lanes(mods)))


def graph_edges_zn(n: int, verts: list[int]) -> list[tuple[int, int]]:
    """Index pairs (i, j), i < j, with verts[i]*verts[j] = 0 in Z_n.

    The vertices must be nonzero and strictly ascending (``ValueError``
    otherwise).  The compiled form runs when 1 <= n < 2**31.
    """
    if 0 < n < _PAIR_LIMIT and (native := _compiled()) is not None:
        return native.graph_edges((n,), verts)
    return _graph_edges_zn_py(n, verts)


def _graph_edges_zn_py(n: int, verts: list[int]) -> list[tuple[int, int]]:
    """Pure :func:`graph_edges_zn`.  Row i reads the byte of every y in
    (verts[i], n) from the multiples table, as the pure pair count does,
    and keeps the hits that are vertices, so pairs come in ascending
    (i, j) order.
    """
    if any(map(ge, verts, verts[1:])):
        raise ValueError("vertices must ascend strictly")
    table = _multiples_table(n)
    reach = len(table) - n
    vertex_at = {v: i for i, v in enumerate(verts)}
    edges = []
    for i, x in enumerate(verts):
        block = reach // x + 1
        for y in range(x + 1, n, block):
            start = x * y % n
            row = table[start : start + x * min(block, n - y) : x]
            k = row.find(1)
            while k >= 0:
                j = vertex_at.get(y + k)
                if j is not None:
                    edges.append((i, j))
                k = row.find(1, k + 1)
    return edges


def _odometer_indices(mods: tuple[int, ...], verts: list[tuple[int, ...]]) -> list[int]:
    """The index of each digit tuple among the ring's elements, the last
    digit varying fastest."""
    strides = [prod(mods[t + 1 :]) for t in range(len(mods))]
    return [sum(map(mul, v, strides)) for v in verts]


def _graph_edges_mixed_py(
    mods: tuple[int, ...], verts: list[tuple[int, ...]]
) -> list[tuple[int, int]]:
    """Pure :func:`graph_edges` of a product ring.

    Row i ANDs the zero-product lanes of verts[i] with the bitset of the
    vertices after it, so each edge is read out once, at its first end.
    """
    index = _odometer_indices(mods, verts)
    if any(map(ge, index, index[1:])):
        raise ValueError("vertices must ascend strictly")
    lanes = _zero_lanes(mods)
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


def pair_count(mods: tuple[int, ...]) -> int:
    """Ordered zero-product pairs of Z_{m1} x ... x Z_{mr}, enumerated."""
    if len(mods) == 1:
        return ann_pair_count_zn(mods[0])
    return ann_pair_count_mixed(mods)


def graph_edges(mods: tuple[int, ...], verts: list) -> list[tuple[int, int]]:
    """Index pairs (i, j), i < j, with verts[i]*verts[j] = 0 in
    Z_{m1} x ... x Z_{mr}, ascending; verts are nonzero, strictly
    ascending elements (``ValueError`` otherwise): ints for one modulus,
    digit tuples for more."""
    if len(mods) == 1:
        return graph_edges_zn(mods[0], verts)
    _require_lanes(mods)
    if (native := _compiled()) is not None:
        return native.graph_edges(mods, _odometer_indices(mods, verts))
    return _graph_edges_mixed_py(mods, verts)


def _splitmix64_blocks(seed: int, width: int, n: int):
    """Yield the splitmix64 draws for Z_n from ``seed``, in tuples of the
    draws accepted among ``width`` consecutive outputs.

    splitmix64 is counter based: output k >= 1 mixes the state
    seed + k*gamma mod 2**64.  A block packs ``width`` consecutive states
    into one integer, one per 128-bit slot, so each mixing step is one
    big-integer operation for the whole block.  A 64-bit value times a
    64-bit constant stays inside its slot, and the masks clear the bits
    that shifts move into the slot below.

    An output r is accepted iff r < 2**64 - (2**64 mod n): adding
    2**64 mod n to every slot carries into bit 64 exactly where r is
    rejected, so only a block with a rejection is filtered.  One Barrett
    step, r - floor(r*floor(2**64/n) / 2**64)*n, replaces each r by a
    value congruent to it mod n and below 2n.  n = 2**64 rejects nothing
    and leaves every output as it is.
    """
    lanes = int.from_bytes(b"\1".ljust(16, b"\0") * width, "little")
    masks = lanes * _MASK64
    carries = lanes << 64
    offset = (1 << 64) % n * lanes
    limit = (1 << 64) - (1 << 64) % n
    scale = (1 << 64) // n
    step = (width * _SM64_GAMMA & _MASK64) * lanes
    counters = b"".join(k.to_bytes(16, "little") for k in range(1, width + 1))
    s = (seed & _MASK64) * lanes + int.from_bytes(counters, "little") * _SM64_GAMMA & masks
    unpack = Struct("<" + "Q8x" * width).unpack
    while True:
        z = (s ^ s >> 30 & masks) * _SM64_MIX1 & masks
        z = (z ^ z >> 27 & masks) * _SM64_MIX2 & masks
        z ^= z >> 31 & masks
        block = unpack((z - (z * scale >> 64 & masks) * n).to_bytes(16 * width, "little"))
        if z + offset & carries:
            draws = unpack(z.to_bytes(16 * width, "little"))
            block = tuple(compress(block, map(limit.__gt__, draws)))
        yield block
        s = s + step & masks


def mc_zero_pairs_zn(n: int, samples: int, seed: int) -> int:
    """Count sampled pairs (x, y) with x*y = 0 in Z_n, n >= 1.

    Draws come from splitmix64 with rejection sampling: a 64-bit output r
    is accepted iff r < 2**64 - (2**64 mod n), then reduced mod n.  Each
    sample consumes draws for x first, then y, so any implementation of
    this procedure reproduces the stream bit for bit: the compiled form
    runs when n, samples and seed are below 2**64.
    """
    if _fits_native(n, samples, seed) and (native := _compiled()) is not None:
        return native.mc_zero_pairs(n, samples, seed)
    return _mc_zero_pairs_py(n, samples, seed)


def _mc_zero_pairs_py(n: int, samples: int, seed: int) -> int:
    """Pure :func:`mc_zero_pairs_zn`.  Here x and y are reduced only to
    below 2n, which does not change whether n | x*y.  A block's draws
    pair up at its even and odd positions; an odd last draw is the x of
    the next block's first sample.
    """
    blocks = _splitmix64_blocks(seed, min(_BLOCK, 2 * samples), n)
    hits = 0
    draws = ()
    while samples:
        draws += next(blocks)
        end = 2 * min(samples, len(draws) // 2)
        products = map(mul, draws[0:end:2], draws[1:end:2])
        hits += countOf(map(mod, products, repeat(n)), 0)
        samples -= end // 2
        draws = draws[end:]
    return hits


def brent_rho(n: int, c: int, x0: int = 2) -> int | None:
    """One Brent rho attempt on n >= 2 with polynomial y^2 + c from x0:
    a divisor of n above 1, or None if the attempt degenerates (every
    gcd met n).  The compiled form runs when n, c and x0 are below 2**64.
    """
    if _fits_native(n, c, x0) and (native := _compiled()) is not None:
        return native.brent_rho(n, c, x0) or None
    return _brent_rho_py(n, c, x0)


def _brent_rho_py(n: int, c: int, x0: int) -> int | None:
    """Pure :func:`brent_rho`: gcd batches of 128 and a step-by-step
    backtrack from the last checkpoint when a batch's gcd meets n."""
    y, r, q = x0, 1, 1
    g = 1
    ys = y
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(128, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = gcd(q, n)
            k += 128
        r *= 2
    if g == n:
        g = 1
        y = ys
        while g == 1:
            y = (y * y + c) % n
            g = gcd(abs(x - y), n)
    if g == n:
        return None
    return g


def is_prime(n: int) -> bool:
    """Miller-Rabin on a natural n with the witnesses 2, 3, ..., 37, which
    decide every n < 2**64 exactly.  The compiled form runs when n is
    below 2**64.
    """
    if 0 <= n < _NATIVE_LIMIT and (native := _compiled()) is not None:
        return native.is_prime(n)
    return _is_prime_py(n)


def _is_prime_py(n: int) -> bool:
    """Pure :func:`is_prime`."""
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n == w:
            return True
        if n % w == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
