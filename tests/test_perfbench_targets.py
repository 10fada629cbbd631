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


def test_ring_entries_reach_the_traced_kernels(monkeypatch):
    """pair_count and build_graph find the kernels the recorder rebinds:
    the kernel entries look them up when called, not in a table made at
    import, or the per-layer kernel metrics would read 0."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    from zeroprod import graph, rings

    recorder = spans.Recorder()
    recorder.install()
    try:
        for spec in (rings.Zn(12), rings.Product((rings.Zn(2), rings.Zn(6)))):
            rings.pair_count(spec)
            graph.build_graph(spec)
    finally:
        recorder.uninstall()
    names = {span[0] for span in recorder.spans}
    assert {
        "kernels.ann_pair_count_zn",
        "kernels.ann_pair_count_mixed",
        "kernels.graph_edges_zn",
    } <= names
