"""Zero-divisor graphs: construction, statistics, DOT and CSV export.

Vertices are the nonzero zero-divisors; two distinct vertices are joined
when their product is zero.  The graph is kept simple: an element with
x*x = 0 is flagged as a self-annihilator instead of carrying a loop edge,
which keeps the pair-counting identity

    sum over x in Z(R) of (|Ann(x)| - 1) = 2*|edges| + |self-annihilators|

exact (both sides count ordered pairs of nonzero elements multiplying to
zero).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from zeroprod import kernels
from zeroprod.rings import (
    Caps,
    DEFAULT_CAPS,
    RingSpec,
    Zn,
    _require_pairwise,
    ann_size,
    element_mul,
    element_str,
    leaf_digits,
    leaf_moduli,
    zero_divisor_set,
    zero_element,
)


@dataclass(frozen=True)
class ZeroDivisorGraph:
    """An immutable simple graph on Z(R).

    ``vertices`` is canonically ordered; ``edges`` holds (u, v) pairs with
    u before v in that order; ``self_annihilators`` lists the vertices
    with x*x = 0.
    """

    spec: RingSpec
    vertices: tuple
    edges: frozenset
    self_annihilators: frozenset

    def degree(self, x) -> int:
        return sum(1 for u, v in self.edges if u == x or v == x)


def build_graph(spec: RingSpec, caps: Caps = DEFAULT_CAPS) -> ZeroDivisorGraph:
    """Construct the graph by enumerating vertex pairs (O(|Z(R)|^2))."""
    _require_pairwise(spec, caps)
    verts = sorted(zero_divisor_set(spec, caps))
    zero = zero_element(spec)
    if isinstance(spec, Zn):
        index_pairs = kernels.graph_edges_zn(spec.n, verts)
    else:
        digits = [leaf_digits(x) for x in verts]
        index_pairs = kernels.graph_edges_mixed(leaf_moduli(spec), digits)
    edges = frozenset((verts[i], verts[j]) for i, j in index_pairs)
    self_ann = frozenset(
        x for x in verts if element_mul(spec, x, x) == zero
    )
    return ZeroDivisorGraph(
        spec=spec,
        vertices=tuple(verts),
        edges=edges,
        self_annihilators=self_ann,
    )


@dataclass(frozen=True)
class GraphStats:
    vertex_count: int
    edge_count: int
    degree_sequence: tuple[int, ...]
    self_annihilator_count: int


def graph_stats(g: ZeroDivisorGraph) -> GraphStats:
    """Vertex/edge counts, descending degree sequence, self-annihilators."""
    degrees = {x: 0 for x in g.vertices}
    for u, v in g.edges:
        degrees[u] += 1
        degrees[v] += 1
    return GraphStats(
        vertex_count=len(g.vertices),
        edge_count=len(g.edges),
        degree_sequence=tuple(sorted(degrees.values(), reverse=True)),
        self_annihilator_count=len(g.self_annihilators),
    )


def _dot_id(x) -> str:
    text = element_str(x)
    return text if text.isdigit() else f'"{text}"'


def export_dot(g: ZeroDivisorGraph) -> str:
    """Deterministic DOT text; self-annihilators get a node attribute."""
    ids = {x: _dot_id(x) for x in g.vertices}  # each vertex rendered once
    lines = ["graph zero_divisors {"]
    for x in g.vertices:
        if x in g.self_annihilators:
            lines.append(f"  {ids[x]} [selfann=true];")
        else:
            lines.append(f"  {ids[x]};")
    for u, v in sorted(g.edges):
        lines.append(f"  {ids[u]} -- {ids[v]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_edges_csv(g: ZeroDivisorGraph) -> str:
    """Edge list with header u,v, one row per edge, canonical order."""
    labels = {x: element_str(x) for x in g.vertices}  # each vertex rendered once
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["u", "v"])
    for u, v in sorted(g.edges):
        writer.writerow([labels[u], labels[v]])
    return buf.getvalue()


def export_vertices_csv(g: ZeroDivisorGraph) -> str:
    """Vertex table: element, annihilator size, self-annihilating flag."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["element", "ann_size", "self_annihilating"])
    for x in g.vertices:
        writer.writerow(
            [
                element_str(x),
                ann_size(g.spec, x),
                "true" if x in g.self_annihilators else "false",
            ]
        )
    return buf.getvalue()
