"""Let the CLI processes that some tests start import the package from
this checkout: the ``pythonpath`` setting in pyproject.toml reaches only
the test process itself.  Also select the kernel backend for a test."""

import os
import shutil
from pathlib import Path

import pytest

from zeroprod import kernels

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def native_kernels():
    """The compiled kernels, built and loaded whatever ZEROPROD_BACKEND
    says.  Skips only when no C compiler is on PATH."""
    if shutil.which("gcc") is None:
        pytest.skip("no C compiler on PATH")
    path, why = kernels._build_native()
    assert path is not None, why
    return kernels._load_native(path)


@pytest.fixture
def compiled_backend(monkeypatch, native_kernels):
    """Kernels with a compiled form dispatch to it."""
    monkeypatch.setattr(kernels, "_compiled", lambda: native_kernels)


@pytest.fixture
def pure_backend(monkeypatch):
    """Every kernel runs its pure form."""
    monkeypatch.setattr(kernels, "_compiled", lambda: None)
