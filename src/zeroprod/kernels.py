"""Kernel backend selection: compiled extension with pure-Python fallback.

The compiled module is used whenever it imported successfully and every
intermediate of the requested call fits unsigned 64-bit arithmetic;
otherwise the call routes to the arbitrary-precision Python twin.  Both
backends test every pair and return identical values, though several
Python kernels no longer follow the compiled loops step by step (the
product kernels work on bitsets, 64 pairs per machine word; see
``zeroprod._kernels_py``).  ``graph_edges_mixed`` exists only in
Python.  Set ZEROPROD_PURE=1 to force the Python backend (used by the
benchmark and by tests that compare the two).
"""

from __future__ import annotations

import os

from zeroprod import _kernels_py as _py

if os.environ.get("ZEROPROD_PURE"):
    _c = None
else:
    try:
        from zeroprod import _kernels as _c  # type: ignore[no-redef]
    except ImportError:
        _c = None

BACKEND = "compiled" if _c is not None else "python"

# Compiled pair loops multiply two residues below the bound, so products
# stay under 2**64; histogram sizes multiply up to the ring order itself.
_PAIR_BOUND = 1 << 31
_SINGLE_BOUND = 1 << 32


def backend() -> str:
    """Name of the backend in use: "compiled" or "python"."""
    return BACKEND


def gcd_sum(n: int) -> int:
    if _c is not None and n < _SINGLE_BOUND:
        return _c.gcd_sum(n)
    return _py.gcd_sum(n)


def ann_size_histogram_zn(n: int) -> dict[int, int]:
    if _c is not None and n < _SINGLE_BOUND:
        return _c.ann_size_histogram_zn(n)
    return _py.ann_size_histogram_zn(n)


def ann_size_histogram_mixed(mods: tuple[int, ...]) -> dict[int, int]:
    total = 1
    for m in mods:
        total *= m
    if _c is not None and total < _SINGLE_BOUND and max(mods) < _SINGLE_BOUND:
        return _c.ann_size_histogram_mixed(mods)
    return _py.ann_size_histogram_mixed(mods)


def ann_pair_count_zn(n: int) -> int:
    if _c is not None and n < _PAIR_BOUND:
        return _c.ann_pair_count_zn(n)
    return _py.ann_pair_count_zn(n)


def ann_pair_count_mixed(mods: tuple[int, ...]) -> int:
    total = 1
    for m in mods:
        total *= m
    if _c is not None and total < _PAIR_BOUND and max(mods) < _PAIR_BOUND:
        return _c.ann_pair_count_mixed(mods)
    return _py.ann_pair_count_mixed(mods)


def graph_edges_zn(n: int, verts: list[int]) -> list[tuple[int, int]]:
    if _c is not None and n < _PAIR_BOUND:
        return _c.graph_edges_zn(n, verts)
    return _py.graph_edges_zn(n, verts)


def graph_edges_mixed(
    mods: tuple[int, ...], verts: list[tuple[int, ...]]
) -> list[tuple[int, int]]:
    return _py.graph_edges_mixed(mods, verts)


def splitmix64_stream(seed: int, count: int) -> list[int]:
    if _c is not None:
        return _c.splitmix64_stream(seed & ((1 << 64) - 1), count)
    return _py.splitmix64_stream(seed, count)


def mc_zero_pairs_zn(n: int, samples: int, seed: int) -> int:
    if _c is not None and n < _SINGLE_BOUND:
        return _c.mc_zero_pairs_zn(n, samples, seed & ((1 << 64) - 1))
    return _py.mc_zero_pairs_zn(n, samples, seed)
