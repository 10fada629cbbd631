"""Zero-divisor graphs: construction, statistics, DOT and CSV export.

Vertices are the nonzero zero-divisors; two distinct vertices are joined
when their product is zero.  The graph is kept simple: an element with
x*x = 0 is flagged as a self-annihilator instead of carrying a loop edge,
which keeps the pair-counting identity

    sum over x in Z(R) of (|Ann(x)| - 1) = 2*|edges| + |self-annihilators|

exact (both sides count ordered pairs of nonzero elements multiplying to
zero).

The graph stays in the index space of the edge kernel: edges are pairs
of vertex indices, and each vertex's label, annihilator size and
self-annihilation flag are computed once, when the graph is built.  The
statistics count degrees by index and the exports assemble every line
from per-vertex strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, islice

from zeroprod import kernels
from zeroprod.rings import (
    Caps,
    DEFAULT_CAPS,
    RingSpec,
    _ann_size,
    _require_pairwise,
    _require_single,
    element_mul,
    element_str,
    elements,
    zero_element,
)


@dataclass(frozen=True)
class ZeroDivisorGraph:
    """An immutable simple graph on Z(R), kept by vertex index.

    ``vertices`` is canonically ordered; ``pairs`` holds the index pairs
    (i, j), i < j, of the edges, ascending, as the edge kernel returns
    them.  Vertex i is labelled ``labels[i]``, has the annihilator size
    ``ann_sizes[i]`` and satisfies x*x = 0 iff ``self_annihilating[i]``.
    """

    spec: RingSpec
    vertices: tuple
    pairs: tuple[tuple[int, int], ...]
    labels: tuple[str, ...]
    ann_sizes: tuple[int, ...]
    self_annihilating: tuple[bool, ...]

    @property
    def edges(self) -> tuple:
        """The (u, v) vertex pairs with u before v, ascending, the order
        the exports write them in."""
        verts = self.vertices
        return tuple((verts[i], verts[j]) for i, j in self.pairs)

    @property
    def self_annihilators(self) -> frozenset:
        """The vertices with x*x = 0."""
        return frozenset(compress(self.vertices, self.self_annihilating))


def build_graph(spec: RingSpec, caps: Caps = DEFAULT_CAPS) -> ZeroDivisorGraph:
    """Construct the graph by enumerating vertex pairs (O(|Z(R)|^2)).

    One walk over the elements in canonical order, which ascends, keeps
    each nonzero x with |Ann(x)| >= 2, so the kernel gives the edges in
    ascending order.  Product vertices are already flat digit tuples,
    the kernels' input.
    """
    _require_pairwise(spec, caps)
    _require_single(spec, caps)
    verts, sizes = [], []
    for x in islice(elements(spec), 1, None):  # the zero element comes first
        size = _ann_size(spec, x)
        if size >= 2:
            verts.append(x)
            sizes.append(size)
    zero = zero_element(spec)
    return ZeroDivisorGraph(
        spec=spec,
        vertices=tuple(verts),
        pairs=tuple(kernels.graph_edges(spec.moduli, verts)),
        labels=tuple(map(element_str, verts)),
        ann_sizes=tuple(sizes),
        self_annihilating=tuple(element_mul(spec, x, x) == zero for x in verts),
    )


@dataclass(frozen=True)
class GraphStats:
    vertex_count: int
    edge_count: int
    degree_sequence: tuple[int, ...]
    self_annihilator_count: int


def graph_stats(g: ZeroDivisorGraph) -> GraphStats:
    """Vertex/edge counts, descending degree sequence, self-annihilators."""
    degree = [0] * len(g.vertices)
    for i, j in g.pairs:
        degree[i] += 1
        degree[j] += 1
    return GraphStats(
        vertex_count=len(g.vertices),
        edge_count=len(g.pairs),
        degree_sequence=tuple(sorted(degree, reverse=True)),
        self_annihilator_count=sum(g.self_annihilating),
    )


def _edge_lines(g: ZeroDivisorGraph, before: list[str], after: list[str]) -> list[str]:
    """One line per edge (i, j): the text before[i] + after[j]."""
    return [before[i] + after[j] for i, j in g.pairs]


def _quoted(g: ZeroDivisorGraph) -> list[str]:
    """Each label as DOT and CSV write it: bare when it is all digits (a
    Z_n element), double-quoted otherwise (a product's "(a,b,...)")."""
    return [text if text.isdigit() else f'"{text}"' for text in g.labels]


def export_dot(g: ZeroDivisorGraph) -> str:
    """Deterministic DOT text; self-annihilators get a node attribute."""
    ids = _quoted(g)
    nodes = [
        f"  {d} [selfann=true];\n" if selfann else f"  {d};\n"
        for d, selfann in zip(ids, g.self_annihilating)
    ]
    edges = _edge_lines(g, [f"  {d} -- " for d in ids], [f"{d};\n" for d in ids])
    return "".join(["graph zero_divisors {\n", *nodes, *edges, "}\n"])


def export_edges_csv(g: ZeroDivisorGraph) -> str:
    """Edge list with header u,v, one row per edge, canonical order."""
    fields = _quoted(g)
    edges = _edge_lines(g, [f"{f}," for f in fields], [f"{f}\n" for f in fields])
    return "".join(["u,v\n", *edges])


def export_vertices_csv(g: ZeroDivisorGraph) -> str:
    """Vertex table: element, annihilator size, self-annihilating flag."""
    rows = [
        f"{f},{size},{'true' if selfann else 'false'}\n"
        for f, size, selfann in zip(_quoted(g), g.ann_sizes, g.self_annihilating)
    ]
    return "".join(["element,ann_size,self_annihilating\n", *rows])
