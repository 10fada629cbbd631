"""The traced benchmark looks up zeroprod functions by name; keep them all."""

from pathlib import Path

import zeroprod.cli  # noqa: F401  (the recorder needs every traced module loaded)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    # Construction resolves every TARGETS name; a missing one raises here.
    recorder = spans.Recorder()
    assert recorder.spans == []
