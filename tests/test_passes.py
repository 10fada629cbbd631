"""Each measured quantity comes from one kernel pass, scan measures none,
and pools stay bounded."""

import concurrent.futures
import sys
from concurrent.futures import Future

import pytest

import zeroprod.cli  # noqa: F401  (loads every module whose bindings are counted)
from zeroprod import arith, factor, kernels, rings, verify
from zeroprod.errors import ResourceLimitError
from zeroprod.formulas import ann_profile_from_factorization, bounds_report
from zeroprod.graph import build_graph, export_dot, export_edges_csv, export_vertices_csv
from zeroprod.rings import Caps, Product, Zn, parse_ring
from zeroprod.scan import scan_row
from zeroprod.verify import ordered_map, run_verify

HISTOGRAMS = ("ann_size_histogram_zn", "ann_size_histogram_mixed")


def _count_calls(monkeypatch, originals) -> dict[str, int]:
    """Count calls through every zeroprod binding of each original, by name."""
    counts = {fn.__name__: 0 for fn in originals}
    for original in originals:

        def counted(*args, _fn=original, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name != "zeroprod" and not name.startswith("zeroprod."):
                continue
            for attr, obj in list(vars(module).items()):
                if obj is original:
                    monkeypatch.setattr(module, attr, counted)
    return counts


@pytest.fixture
def calls(monkeypatch):
    """Count calls through every zeroprod binding of the counted functions."""
    originals = [getattr(kernels, name) for name in HISTOGRAMS] + [
        factor.factorize,
        factor.is_prime,
        rings.ann_profile,
        rings.validate_element,
    ]
    return _count_calls(monkeypatch, originals)


def _histograms(counts):
    """(ring histograms, Z_n sieve histograms) measured so far."""
    return counts["ann_size_histogram_mixed"], counts["ann_size_histogram_zn"]


@pytest.mark.parametrize("n", [2, 7, 12, 360, 4096])
def test_one_histogram_per_scan_row(calls, n):
    """Scan rows are derived from the factorization: no histogram at all."""
    scan_row(n)
    assert _histograms(calls) == (0, 0)
    assert calls["factorize"] == 1


@pytest.mark.parametrize(
    "spec",
    [
        Zn(2),
        Zn(8),
        Zn(360),
        Product((Zn(4), Zn(9))),
        Product((Zn(2), Product((Zn(3), Zn(4))))),
    ],
)
def test_one_histogram_per_bounds_report(calls, spec):
    """One ring histogram, made of one sieve histogram per Z_n leaf."""
    bounds_report(spec)
    assert _histograms(calls) == (1, str(spec).count("Zn"))


def test_one_histogram_and_factorization_per_verified_ring(calls):
    report = run_verify(120, pairwise_bound=50)
    assert report.passed and report.rings_checked == 119
    assert _histograms(calls) == (119, 119)
    assert calls["factorize"] == 119


def test_verify_checks_the_cap_before_any_ring(calls):
    with pytest.raises(ResourceLimitError):
        run_verify(1200, Caps(single=1100, pairwise=1100))
    assert calls["ann_profile"] == 0
    assert calls["factorize"] == 0


@pytest.mark.parametrize("n", [2, 8, 360, 65536, 999983 * 1000003, 2**64 - 1])
def test_derived_profile_tests_no_prime_again(calls, n):
    f = factor.factorize(n)
    calls["is_prime"] = 0
    ann_profile_from_factorization(f)
    assert calls["is_prime"] == 0


def test_closed_form_tests_no_prime_again(calls):
    # Trial division proves every cofactor below 10^8 prime, so these
    # rows make no primality test at all.
    for n in range(30000, 30024):
        scan_row(n)
    assert calls["is_prime"] == 0


def test_graph_and_exports_validate_no_element(calls):
    """The graph makes its own elements, so it never checks one."""
    g = build_graph(parse_ring("Zn(9)xZn(12)xZn(10)"))
    for export in (export_dot, export_edges_csv, export_vertices_csv):
        export(g)
    assert len(g.vertices) == 1080 - 6 * 4 * 4 - 1  # all but units and 0
    assert calls["validate_element"] == 0
    rings.ann_size(g.spec, g.vertices[0])  # the public entry checks, once
    assert calls["validate_element"] == 1


class _CountingPool:
    """Synchronous stand-in for ProcessPoolExecutor that counts submissions
    and records the pool sizes asked for."""

    submitted = 0
    sizes: list = []

    def __init__(self, max_workers):
        type(self).sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        type(self).submitted += 1
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("jobs,chunksize", [(2, 1), (2, 3), (3, 1)])
def test_ordered_map_bounds_chunks_in_flight(monkeypatch, jobs, chunksize):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _CountingPool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: jobs)
    monkeypatch.setattr(_CountingPool, "submitted", 0)
    out = ordered_map(abs, range(-100, 100), jobs, chunksize)
    for read in range(1, 201):
        assert next(out) == abs(read - 101)
        assert _CountingPool.submitted <= read + 2 * jobs
    assert next(out, None) is None


@pytest.mark.parametrize(
    "jobs,items,cpus,sizes",
    [
        (6, 1, 4, []),  # one chunk: mapped in this process, no pool
        (6, 200, 8, [4]),  # four chunks of 64
        (3, 1000, 2, [2]),  # two CPUs
        (2, 1000, None, []),  # CPU count unknown: one process
        (2, 1000, 4, [2]),
    ],
)
def test_ordered_map_pool_size(monkeypatch, jobs, items, cpus, sizes):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _CountingPool)
    monkeypatch.setattr(_CountingPool, "sizes", [])
    monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
    assert list(ordered_map(abs, range(items), jobs, 64)) == list(range(items))
    assert _CountingPool.sizes == sizes


def test_ordered_map_keeps_order_across_processes(monkeypatch):
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
    items = range(-40, 40)
    assert list(ordered_map(abs, items, jobs=2, chunksize=3)) == list(map(abs, items))


@pytest.mark.parametrize("jobs", [1, 2])
def test_ordered_map_takes_a_range_longer_than_a_machine_word(monkeypatch, jobs):
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
    out = ordered_map(abs, range(2, 2**70), jobs, 8)
    assert [next(out) for _ in range(20)] == list(range(2, 22))
    out.close()


def test_verify_with_two_jobs_submits_chunks_to_a_pool(monkeypatch, capsys):
    """verify --max 600 is three chunks of rings, so two jobs start a real
    pool, and its bytes are those of one job."""
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
    assert zeroprod.cli.main(["verify", "--max", "600", "--jobs", "1"]) == 0
    one = capsys.readouterr()
    chunks = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def submit(self, fn, *args):
            chunks.append(len(args[-1]))
            return super().submit(fn, *args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    assert zeroprod.cli.main(["verify", "--max", "600", "--jobs", "2"]) == 0
    assert capsys.readouterr() == one
    assert chunks == [256, 256, 87]


def test_passing_verify_builds_no_fraction(monkeypatch):
    """The oracle legs are compared as integer counts."""
    counts = _count_calls(monkeypatch, [verify.Fraction, arith.rat_make])
    assert run_verify(300).passed
    assert counts == {"Fraction": 0, "rat_make": 0}


def test_factorize_sieves_the_trial_primes_once(monkeypatch):
    """A cofactor that outlasts trial division is not trial-divided again."""
    sieve = factor._trial_primes
    calls = []
    monkeypatch.setattr(factor, "_trial_primes", lambda: calls.append(1) or sieve())
    n = 1048573 * 1048571 * 1048559
    assert factor.factorize(n) == [(1048559, 1), (1048571, 1), (1048573, 1)]
    assert len(calls) == 1
