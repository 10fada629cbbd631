"""Each measured quantity comes from one kernel pass, scan measures none,
and pools stay bounded."""

import sys
from concurrent.futures import Future

import pytest

import zeroprod.cli  # noqa: F401  (loads every module whose bindings are counted)
from zeroprod import factor, kernels, rings, scan
from zeroprod.errors import ResourceLimitError
from zeroprod.formulas import ann_profile_from_factorization, bounds_report
from zeroprod.rings import Caps, Product, Zn
from zeroprod.scan import ordered_map, scan_row
from zeroprod.verify import run_verify

HISTOGRAMS = ("ann_size_histogram_zn", "ann_size_histogram_mixed")


@pytest.fixture
def calls(monkeypatch):
    """Count calls through every zeroprod binding of the counted functions."""
    originals = [getattr(kernels, name) for name in HISTOGRAMS] + [
        factor.factorize,
        factor.is_prime,
        rings.ann_profile,
    ]
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


def _histograms(counts):
    return sum(counts[name] for name in HISTOGRAMS)


@pytest.mark.parametrize("n", [2, 7, 12, 360, 4096])
def test_one_histogram_per_scan_row(calls, n):
    """Scan rows are derived from the factorization: no histogram at all."""
    scan_row(n)
    assert _histograms(calls) == 0
    assert calls["factorize"] == 1


@pytest.mark.parametrize("spec", [Zn(2), Zn(8), Zn(360), Product((Zn(4), Zn(9)))])
def test_one_histogram_per_bounds_report(calls, spec):
    bounds_report(spec)
    assert _histograms(calls) == 1


def test_one_histogram_and_factorization_per_verified_ring(calls):
    report = run_verify(120, pairwise_bound=50)
    assert report.passed and report.rings_checked == 119
    assert _histograms(calls) == 119
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
    # The only primality tests are the ones factorize makes.
    for n in range(30000, 30024):
        scan_row(n)
    assert calls["is_prime"] == 23


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
    monkeypatch.setattr(scan, "ProcessPoolExecutor", _CountingPool)
    monkeypatch.setattr(scan.os, "cpu_count", lambda: jobs)
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
    monkeypatch.setattr(scan, "ProcessPoolExecutor", _CountingPool)
    monkeypatch.setattr(_CountingPool, "sizes", [])
    monkeypatch.setattr(scan.os, "cpu_count", lambda: cpus)
    assert list(ordered_map(abs, range(items), jobs, 64)) == list(range(items))
    assert _CountingPool.sizes == sizes


def test_ordered_map_keeps_order_across_processes(monkeypatch):
    monkeypatch.setattr(scan.os, "cpu_count", lambda: 2)
    items = range(-40, 40)
    assert list(ordered_map(abs, items, jobs=2, chunksize=3)) == list(map(abs, items))
