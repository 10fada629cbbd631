"""The compiled and the pure kernels agree, and the compiled ones are
built only at import and loaded only by the kernels that use them."""

import itertools
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
import zlib
from importlib.machinery import EXTENSION_SUFFIXES
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zeroprod
from zeroprod import kernels
from zeroprod.errors import ResourceLimitError
from zeroprod.factor import is_prime

_MASK = (1 << 64) - 1
_PACKAGE = Path(zeroprod.__file__).resolve().parent

_MC_MODULI = [2, 4, 6, 12, 100, 1234, 3600, 2**31 - 1, 2**32, 2**32 + 1, 2**63, 2**63 + 1, _MASK]
_MC_SEEDS = [0, 7, 12345, _MASK]
_MC_SAMPLES = [0, 1, 1023, 1024, 1025, 10**4]


@pytest.mark.parametrize("n", _MC_MODULI)
def test_mc_backends_agree_on_the_grid(native_kernels, n):
    total = 0
    for seed in _MC_SEEDS:
        for samples in _MC_SAMPLES:
            hits = native_kernels.mc_zero_pairs(n, samples, seed)
            assert hits == kernels._mc_zero_pairs_py(n, samples, seed), (n, samples, seed)
            total += hits
    assert total > 0 or n > 3600  # the hit test ran, not only the draws


_GATE_MODULI = [2**31 - 1, 2**31 + 1, 2**32 - 1, 2**32 + 1, 2**63, _MASK] + [
    2**k for k in range(64)
]


@settings(max_examples=150, deadline=None)
@given(
    n=st.sampled_from(_GATE_MODULI),
    seed=st.sampled_from([0, _MASK]) | st.integers(0, _MASK),
    samples=st.integers(0, 2000),
)
def test_mc_backends_agree_at_the_gates(native_kernels, n, seed, samples):
    assert native_kernels.mc_zero_pairs(n, samples, seed) == kernels._mc_zero_pairs_py(
        n, samples, seed
    )


def _random_prime(rng, bits):
    while True:
        p = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        if is_prime(p):
            return p


def _rho_both(lib, n, c, x0=2):
    got = lib.brent_rho(n, c, x0) or None
    assert got == kernels._brent_rho_py(n, c, x0), (n, c, x0)
    return got


def test_rho_backends_agree_on_semiprimes_and_squares(native_kernels):
    rng = random.Random(20)
    for _ in range(12):
        p, q = _random_prime(rng, 32), _random_prime(rng, 32)
        for c in (1, 2):
            d = _rho_both(native_kernels, p * q, c)
            assert d in (p, q, p * q, None)
        # find_nontrivial_factor catches squares by isqrt, so call rho here.
        assert _rho_both(native_kernels, p * p, 1) in (p, None)


def test_rho_backends_agree_near_two_to_the_64(native_kernels):
    composites = [n for n in range(2**64 - 16, 2**64) if not is_prime(n)]
    assert len(composites) > 10
    for n in composites:
        for c in (1, 2, _MASK - n):  # the last makes y^2 + c reach 2**64
            d = _rho_both(native_kernels, n, c)
            assert d is None or n % d == 0


def test_rho_backends_agree_when_an_attempt_degenerates(native_kernels):
    for n, c in ((25, 1), (4, 1), (35, 1)):
        assert _rho_both(native_kernels, n, c) is None


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 2**16), c=st.integers(0, _MASK), x0=st.integers(0, _MASK))
def test_rho_backends_agree_on_any_start(native_kernels, n, c, x0):
    _rho_both(native_kernels, n, c, x0)


def _mr_both(lib, n):
    got = lib.is_prime(n)
    assert got is kernels._is_prime_py(n), n
    return got


def test_mr_backends_agree_below_ten_to_the_five(native_kernels):
    assert sum(_mr_both(native_kernels, n) for n in range(10**5)) == 9592


# Strong pseudoprimes to the first few prime bases (the least for bases
# 2; 2, 3; ...; 2, ..., 23) and Carmichael numbers: composites that only
# the later witnesses expose.
_STRONG_PSEUDOPRIMES = [
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
]
_CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185, 5394826801]


@pytest.mark.parametrize("n", _STRONG_PSEUDOPRIMES + _CARMICHAEL)
def test_mr_backends_reject_pseudoprimes(native_kernels, n):
    assert _mr_both(native_kernels, n) is False


def test_mr_backends_agree_at_the_top_of_64_bits(native_kernels):
    assert _mr_both(native_kernels, 2**61 - 1) is True
    assert _mr_both(native_kernels, 2**64 - 59) is True
    assert _mr_both(native_kernels, 2**64 - 1) is False


@settings(max_examples=300, deadline=None)
@given(
    n=st.sampled_from([2**32, 2**63, 2**64]).flatmap(
        lambda gate: st.integers(gate - 2**16, min(gate + 2**16, _MASK))
    )
)
def test_mr_backends_agree_near_the_gates(native_kernels, n):
    _mr_both(native_kernels, n | 1)


def _zero_divisors(mods):
    """Z(R) of Z_{m1} x ... x Z_{mr}, ascending: the nonzero elements with
    a digit that shares a factor with its modulus (0 shares m).  Digit
    tuples, or ints for one modulus."""
    verts = [
        v
        for v in itertools.product(*map(range, mods))
        if any(v) and any(gcd(d, m) > 1 for d, m in zip(v, mods))
    ]
    return [x for (x,) in verts] if len(mods) == 1 else verts


def _pairs_both(lib, mods, verts):
    """The pair count and edge list of both backends, which must agree."""
    if len(mods) == 1:
        count = kernels._ann_pair_count_zn_py(mods[0])
        edges = kernels._graph_edges_zn_py(mods[0], verts)
        index = verts
    else:
        count = kernels._ann_pair_count_mixed_py(mods)
        edges = kernels._graph_edges_mixed_py(mods, verts)
        index = kernels._odometer_indices(mods, verts)
    assert lib.pair_count(mods) == count, mods
    assert lib.graph_edges(mods, index) == edges, mods


def test_pair_backends_agree_on_every_zn_to_600(native_kernels):
    rng = random.Random(600)
    for n in range(1, 601):
        verts = _zero_divisors((n,))
        _pairs_both(native_kernels, (n,), verts)
        subset = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
        assert native_kernels.graph_edges((n,), subset) == kernels._graph_edges_zn_py(n, subset)


def test_pair_backends_agree_on_every_product_to_600(native_kernels):
    # Moduli in ascending order: every product ring up to isomorphism.
    rings = 0
    for a in range(2, 301):
        for b in range(a, 600 // a + 1):
            for mods in [(a, b)] + [(a, b, c) for c in range(b, 600 // (a * b) + 1)]:
                _pairs_both(native_kernels, mods, _zero_divisors(mods))
                rings += 1
    assert rings == 2459


@st.composite
def _rings_near_the_pair_cap(draw):
    """One modulus, or two or three in any order, of product 3500-4096."""
    mods = draw(st.lists(st.integers(2, 16), max_size=2))
    rest = prod(mods)
    mods.append(draw(st.integers(-(-3500 // rest), 4096 // rest)))
    return tuple(draw(st.permutations(mods)))


@settings(max_examples=20, deadline=None)
@given(mods=_rings_near_the_pair_cap(), seed=st.integers(0, 2**32))
def test_pair_backends_agree_near_the_pair_cap(native_kernels, mods, seed):
    verts = _zero_divisors(mods)
    _pairs_both(native_kernels, mods, verts)
    subset = sorted(random.Random(seed).sample(verts, len(verts) // 3))
    _pairs_both(native_kernels, mods, subset)


def _graph_edges_py(mods, verts):
    if len(mods) == 1:
        return kernels._graph_edges_zn_py(mods[0], verts)
    return kernels._graph_edges_mixed_py(mods, verts)


def test_graph_backends_refuse_vertices_out_of_order(native_kernels):
    # Both forms take strictly ascending vertices only, so neither can
    # give edges that the other orders differently.
    rng = random.Random(12)
    cases = [((12,), [6, 4]), ((12,), [4, 4]), ((4, 6), [(1, 0), (1, 0)])]
    for mods in ((12,), (4, 6), (2, 3, 4)):
        verts = [v for v in itertools.product(*map(range, mods)) if any(v)]
        verts = [x for (x,) in verts] if len(mods) == 1 else verts
        cases += [(mods, rng.sample(verts, len(verts))), (mods, verts[::-1])]
    for mods, verts in cases:
        index = verts if len(mods) == 1 else kernels._odometer_indices(mods, verts)
        with pytest.raises(ValueError, match="ascend strictly"):
            native_kernels.graph_edges(mods, index)
        with pytest.raises(ValueError, match="ascend strictly"):
            _graph_edges_py(mods, verts)


@pytest.mark.parametrize(
    "mods, message",
    [((), "no moduli"), ((3, 0), "moduli must be >= 1"), ((2, 0, 2), "moduli must be >= 1")],
)
def test_backends_refuse_malformed_moduli_alike(request, mods, message):
    calls = [
        lambda: kernels.pair_count(mods),
        lambda: kernels.ann_pair_count_mixed(mods),
        lambda: kernels.graph_edges(mods, []),
    ]
    for backend in ("compiled_backend", "pure_backend"):
        request.getfixturevalue(backend)
        for call in calls:
            with pytest.raises(Exception) as exc:
                call()
            assert (type(exc.value), str(exc.value)) == (ValueError, message), backend


def test_dispatch_keeps_the_pure_form_beyond_64_bits(compiled_backend, monkeypatch):
    calls = []
    pure = ["_mc_zero_pairs_py", "_brent_rho_py", "_is_prime_py"]
    pure += ["_ann_pair_count_zn_py", "_ann_pair_count_mixed_py"]
    pure += ["_graph_edges_zn_py", "_graph_edges_mixed_py"]
    for name in pure:
        monkeypatch.setattr(kernels, name, lambda *args, name=name: calls.append(name))
    kernels.mc_zero_pairs_zn(1 << 64, 1, 0)
    kernels.mc_zero_pairs_zn(5, 1 << 64, 0)
    kernels.mc_zero_pairs_zn(5, 1, 1 << 64)
    kernels.brent_rho(1 << 64, 1)
    kernels.brent_rho(15, 1 << 64)
    kernels.is_prime(1 << 64)
    kernels.is_prime(-1)
    # The Z_n pair kernels keep the pure form from n = 2**31 on; the lane
    # limit refuses a product ring of that order before either form runs.
    kernels.ann_pair_count_zn(1 << 31)
    kernels.graph_edges_zn(1 << 31, [2, 1 << 30])
    with pytest.raises(ResourceLimitError):
        kernels.ann_pair_count_mixed((1 << 16, 1 << 15))
    with pytest.raises(ResourceLimitError):
        kernels.graph_edges((2, 1 << 30), [(0, 2), (1, 0)])
    with pytest.raises(ValueError, match="moduli must be >= 1"):
        kernels.ann_pair_count_mixed((3, 0))
    kernels.mc_zero_pairs_zn(2**64 - 1, 10, _MASK)
    kernels.brent_rho(2**64 - 1, 1)
    assert kernels.is_prime(2**64 - 59) and not kernels.is_prime(0)
    # 2**31 - 1 is prime, and the columns end at the largest vertex.
    assert kernels.graph_edges_zn(2**31 - 1, [1, 2]) == []
    assert kernels.ann_pair_count_mixed((2, 3)) == 3 * 5
    assert calls == (
        ["_mc_zero_pairs_py"] * 3
        + ["_brent_rho_py"] * 2
        + ["_is_prime_py"] * 2
        + ["_ann_pair_count_zn_py", "_graph_edges_zn_py"]
    )


def test_compiled_kernels_reject_what_does_not_fit(native_kernels):
    for kernel in (native_kernels.mc_zero_pairs, native_kernels.brent_rho):
        for args in ((1 << 64, 1, 1), (5, -1, 1), (5, 1, 1 << 64)):
            with pytest.raises(OverflowError):
                kernel(*args)
        with pytest.raises(ValueError):
            kernel(0, 1, 1)
        with pytest.raises(TypeError):
            kernel(5, 1)
    for n in (1 << 64, -1):
        with pytest.raises(OverflowError):
            native_kernels.is_prime(n)
    with pytest.raises(TypeError):
        native_kernels.is_prime(5.0)
    pair_count, graph_edges = native_kernels.pair_count, native_kernels.graph_edges
    for mods in ((1 << 31,), (1 << 16, 1 << 15), (-1,), (3, 1 << 64)):
        with pytest.raises(OverflowError):
            pair_count(mods)
        with pytest.raises(OverflowError):
            graph_edges(mods, [])
    for mods in ((), (0,), (4, 0)):
        with pytest.raises(ValueError):
            pair_count(mods)
    for mods, verts in (((12,), [12]), ((12,), [3, 3]), ((3, 4), [4, 1, 4])):
        with pytest.raises(ValueError):
            graph_edges(mods, verts)
    with pytest.raises(OverflowError):
        graph_edges((12,), [-1])
    for args in (((12,),), ((12,), [2], [3]), ((12,), None), ((12,), [2.0]), ((12.0,), [])):
        with pytest.raises(TypeError):
            graph_edges(*args)
    with pytest.raises(TypeError):
        pair_count(12)
    # These lanes would take 2**58 bytes, more than any address space.
    with pytest.raises(MemoryError):
        pair_count((2, 2**30 - 1))
    with pytest.raises(MemoryError):
        graph_edges((2**30 - 1, 2), [1])


_LONG_RUN = """
import itertools
from zeroprod import kernels
units = list(itertools.product((1, 2), repeat=13))
print("running", flush=True)
kernels.{}
"""

# Each runs for minutes or more.  A product ring's lanes take
# (sum of its moduli) * order / 8 bytes, so its order stays small.
_LONG_CALLS = [
    "mc_zero_pairs_zn(7, 1 << 62, 1)",
    "ann_pair_count_zn(2**31 - 1)",
    "ann_pair_count_mixed((2,) * 20)",
    "graph_edges_zn(2**31 - 1, list(range(1, 1 << 20)))",
    "graph_edges((3,) * 13, units)",
]


def test_interrupt_ends_a_long_compiled_run(native_kernels):
    for call in _LONG_CALLS:
        with subprocess.Popen(
            [sys.executable, "-c", _LONG_RUN.format(call)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=_env(),
        ) as proc:
            assert proc.stdout.readline() == "running\n"
            time.sleep(0.3)
            proc.send_signal(signal.SIGINT)
            try:
                _, err = proc.communicate(timeout=30)
            finally:
                proc.kill()
        assert proc.returncode != 0, call
        assert "KeyboardInterrupt" in err, call


# Runs CLI requests in one fresh interpreter and prints what each gave.
_RUN_REQUESTS = """
import contextlib, io, json, sys
from zeroprod import cli, kernels
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    results.append([code, out.getvalue()])
print(json.dumps({"backend": kernels.backend(), "results": results}))
"""


def _env(**changes):
    """This environment on the default backend, with ``changes``."""
    env = {k: v for k, v in os.environ.items() if k != "ZEROPROD_BACKEND"}
    return {**env, **changes}


def _run_requests(requests, **env_changes):
    done = subprocess.run(
        [sys.executable, "-c", _RUN_REQUESTS, json.dumps(requests)],
        capture_output=True,
        text=True,
        env=_env(**env_changes),
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _benchmark_requests():
    """One request of each prob-closed-form kind and the enum-kernels
    montecarlo request, drawn as the benchmark draws them, prob of a
    prime, a strong pseudoprime and a Carmichael number, paranoid prob
    and graph requests the size of the enum-kernels ones, a CSV scan at
    the 2**64 edge, a JSON scan the size of a scan-range window and a
    verify split across a pool."""
    rng = random.Random(801)
    semi = _random_prime(rng, 32) * _random_prime(rng, 32)
    prime = _random_prime(rng, 63)
    tri = _random_prime(rng, 20) * _random_prime(rng, 20) * _random_prime(rng, 20)
    ring = "x".join(f"Zn({_random_prime(rng, 24) * _random_prime(rng, 24)})" for _ in range(3))
    mc = ["montecarlo", str(rng.randint(100, 5000)), "--samples", "1000000"]
    return [
        ["prob", str(semi)],
        ["prob", str(prime), "--format", "json"],
        ["prob", str(tri)],
        ["prob", "--ring", ring],
        ["prob", str(2**64 - 59)],
        ["prob", "3825123056546413051"],
        ["prob", "41041"],
        [*mc, "--seed", str(rng.getrandbits(32))],
        ["montecarlo", str(2**64 - 1), "--samples", "1000", "--seed", str(_MASK)],
        ["montecarlo", str(2**40), "--samples", "1000", "--seed", "0", "--format", "csv"],
        ["prob", "3591", "--paranoid"],
        ["prob", "--ring", "Zn(65)xZn(55)", "--paranoid"],
        ["graph", "3610"],
        ["graph", "--ring", "Zn(12)xZn(10)xZn(9)"],
        ["scan", "18446744073709551416", "18446744073709551615", "--format", "csv"],
        ["scan", "30000", "30023", "--format", "json"],
        ["verify", "--max", "600", "--jobs", "2"],
    ]


def test_cli_bytes_identical_across_backends(native_kernels):
    requests = _benchmark_requests()
    compiled = _run_requests(requests)
    pure = _run_requests(requests, ZEROPROD_BACKEND="python")
    assert compiled["backend"] == "compiled"
    assert pure["backend"] == "python (forced by ZEROPROD_BACKEND=python)"
    assert all(code == 0 for code, _ in compiled["results"])
    assert compiled["results"] == pure["results"]


_PROBE_MODULES = """
import sys
import zeroprod.cli
print(sorted(m for m in ("ctypes", "subprocess", "cffi", "hashlib", "csv") if m in sys.modules))
"""


def test_import_loads_no_build_or_binding_module(native_kernels):
    # The native_kernels fixture has built the module, so the cache is warm.
    done = subprocess.run(
        [sys.executable, "-c", _PROBE_MODULES], capture_output=True, text=True, env=_env()
    )
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


# Runs CLI requests in one fresh interpreter and prints, after each,
# whether the library is still unloaded and whether ctypes was imported.
_PROBE_LOADS = """
import contextlib, io, json, sys
from zeroprod import cli, kernels

def never():
    raise AssertionError("only an import builds the library")

kernels._build_native = never
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    print(kernels._native is None, "ctypes" in sys.modules)
"""


def _probe_loads(requests):
    done = subprocess.run(
        [sys.executable, "-c", _PROBE_LOADS, json.dumps(requests)],
        capture_output=True,
        text=True,
        env=_env(),
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_scan_leaves_the_library_unloaded_and_verify_loads_it(native_kernels):
    # verify runs its pair counts in this process with one job.
    scan = ["scan", "30000", "30023", "--format", "csv"]
    assert _probe_loads([scan, ["verify", "--max", "300"]]) == "True False\nFalse False\n"
    # and a request that splits a 64-bit semiprime loads it
    assert _probe_loads([["prob", "18446743979220271189"]]) == "False False\n"


def _copy_package(root: Path) -> Path:
    """The package sources alone under ``root``, with an empty cache."""
    target = root / "zeroprod"
    target.mkdir(parents=True)
    for path in [*_PACKAGE.glob("*.py"), _PACKAGE / "_native.c"]:
        shutil.copy(path, target / path.name)
    return target


def test_no_compiler_falls_back_to_pure(tmp_path):
    package = _copy_package(tmp_path / "pkg")
    empty_bin = tmp_path / "bin"
    empty_bin.mkdir()
    requests = [
        ["--backend"],
        *_benchmark_requests()[:1],
        ["montecarlo", "1234", "--samples", "5000"],
    ]
    pure = _run_requests(requests, PATH=str(empty_bin), PYTHONPATH=str(package.parent))
    assert pure["backend"] == "python (no C compiler on PATH)"
    assert pure["results"][0] == [0, "kernel backend: python (no C compiler on PATH)\n"]
    assert not list((package / "__pycache__").glob("_native*"))
    usual = _run_requests(requests[1:])
    assert pure["results"][1:] == usual["results"]


def test_build_removes_stale_builds_of_this_python(tmp_path, monkeypatch, native_kernels):
    shutil.copy(_PACKAGE / "_native.c", tmp_path / "_native.c")
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    suffix = EXTENSION_SUFFIXES[0]
    stale = [f"_native-00000000{suffix}", f"_native-0badc0de{suffix}.failed"]
    other = ".cpython-0-other.so"  # another Python's extension suffix
    kept = [f"_native-00000000{other}", f"_native-0badc0de{other}.failed", "unrelated.txt"]
    for name in stale + kept:
        (cache / name).write_text("")
    monkeypatch.setattr(kernels, "_HERE", str(tmp_path))
    path, why = kernels._build_native()
    assert why is None
    key = zlib.crc32((tmp_path / "_native.c").read_bytes())
    assert Path(path) == cache / f"_native-{key:08x}{suffix}"
    assert sorted(p.name for p in cache.iterdir()) == sorted([Path(path).name, *kept])


def test_failed_build_is_recorded_and_not_retried(tmp_path):
    package = _copy_package(tmp_path / "pkg")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    runs = tmp_path / "runs"
    fake = bin_dir / "gcc"
    fake.write_text(f'#!/bin/sh\necho run >> "{runs}"\necho "cannot compile" >&2\nexit 1\n')
    fake.chmod(0o755)
    want = f"python (build failed: {fake}: cannot compile)"
    for _ in range(2):
        found = _run_requests([], PATH=str(bin_dir), PYTHONPATH=str(package.parent))
        assert found["backend"] == want
    assert runs.read_text() == "run\n"
    assert not list((package / "__pycache__").glob("*.tmp"))


def test_cold_cache_builds_at_import(native_kernels, tmp_path):
    package = _copy_package(tmp_path / "pkg")
    found = _run_requests([["prob", "18446743979220271189"]], PYTHONPATH=str(package.parent))
    assert found["backend"] == "compiled"
    built = [p.name for p in (package / "__pycache__").glob("_native*")]
    assert len(built) == 1 and built[0].endswith(".so")
    assert found["results"] == _run_requests([["prob", "18446743979220271189"]])["results"]
