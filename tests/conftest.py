"""Let the CLI processes that some tests start import the package from
this checkout: the ``pythonpath`` setting in pyproject.toml reaches only
the test process itself."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
