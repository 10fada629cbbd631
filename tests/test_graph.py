import csv
import io
from collections import Counter

import pytest

import zeroprod.graph
from zeroprod import rings
from zeroprod.errors import ResourceLimitError
from zeroprod.graph import (
    build_graph,
    export_dot,
    export_edges_csv,
    export_vertices_csv,
    graph_stats,
)
from zeroprod.rings import (
    Caps,
    Product,
    Zn,
    ann_size,
    element_mul,
    element_str,
    parse_ring,
    zero_divisor_set,
    zero_element,
)


class TestBuild:
    def test_zn6(self):
        g = build_graph(Zn(6))
        assert g.vertices == (2, 3, 4)
        assert g.edges == ((2, 3), (3, 4))
        assert g.self_annihilators == frozenset()

    def test_zn8(self):
        # 2*4 = 0, 4*6 = 0, 4*4 = 0, but 2*6 = 4 != 0
        g = build_graph(Zn(8))
        assert g.vertices == (2, 4, 6)
        assert g.edges == ((2, 4), (4, 6))
        assert g.self_annihilators == frozenset({4})

    def test_field_gives_empty_graph(self):
        g = build_graph(Zn(5))
        assert g.vertices == ()
        assert g.edges == ()
        assert g.self_annihilators == frozenset()

    def test_product_ring(self):
        g = build_graph(Product((Zn(2), Zn(2))))
        assert g.vertices == ((0, 1), (1, 0))
        assert g.edges == (((0, 1), (1, 0)),)
        assert g.self_annihilators == frozenset()

    @pytest.mark.parametrize(
        "spec",
        [
            Product((Zn(4), Zn(6))),
            Product((Zn(2), Zn(3), Zn(4))),
            Product((Zn(4), Product((Zn(2), Zn(3))))),
            Product((Product((Zn(2), Zn(2))), Zn(6))),
            Product((Product((Zn(3), Zn(2))), Product((Zn(2), Zn(4))))),
        ],
        ids=str,
    )
    def test_product_edges_against_pair_loop(self, spec):
        g = build_graph(spec)
        zero = zero_element(spec)
        verts = sorted(zero_divisor_set(spec))
        assert g.vertices == tuple(verts)
        assert g.edges == tuple(
            sorted(
                (u, v)
                for i, u in enumerate(verts)
                for v in verts[i + 1 :]
                if element_mul(spec, u, v) == zero
            )
        )

    def test_no_loops_and_endpoints_are_vertices(self):
        for n in (6, 8, 12, 16, 30, 72):
            g = build_graph(Zn(n))
            vset = set(g.vertices)
            for u, v in g.edges:
                assert u != v
                assert u in vset and v in vset

    def test_cap_is_the_pairwise_cap(self):
        with pytest.raises(ResourceLimitError):
            build_graph(Zn(5000))
        assert build_graph(Zn(5000), Caps(single=5000, pairwise=5000)).vertices


class TestStats:
    def test_zn8(self):
        s = graph_stats(build_graph(Zn(8)))
        assert (s.vertex_count, s.edge_count) == (3, 2)
        assert s.degree_sequence == (2, 1, 1)
        assert s.self_annihilator_count == 1

    def test_empty(self):
        s = graph_stats(build_graph(Zn(7)))
        assert (s.vertex_count, s.edge_count) == (0, 0)
        assert s.degree_sequence == ()
        assert s.self_annihilator_count == 0

    def test_zn6(self):
        s = graph_stats(build_graph(Zn(6)))
        assert (s.vertex_count, s.edge_count) == (3, 2)
        assert s.degree_sequence == (2, 1, 1)
        assert s.self_annihilator_count == 0


class TestDot:
    def test_empty_graph(self):
        assert export_dot(build_graph(Zn(5))) == "graph zero_divisors {\n}\n"

    def test_zn6_edges(self):
        dot = export_dot(build_graph(Zn(6)))
        assert "2 -- 3;" in dot
        assert "3 -- 4;" in dot
        assert dot.count("--") == 2

    def test_zn8_self_annihilator_attribute(self):
        dot = export_dot(build_graph(Zn(8)))
        assert "4 [selfann=true];" in dot
        assert "2;" in dot and "6;" in dot
        # loops never appear as edges
        assert "4 -- 4" not in dot

    def test_product_elements_are_quoted(self):
        dot = export_dot(build_graph(Product((Zn(2), Zn(2)))))
        assert '"(0,1)" -- "(1,0)";' in dot

    def test_deterministic(self):
        a = export_dot(build_graph(Zn(36)))
        b = export_dot(build_graph(Zn(36)))
        assert a == b


class TestCsv:
    def test_edges(self):
        assert export_edges_csv(build_graph(Zn(6))) == "u,v\n2,3\n3,4\n"

    def test_vertices(self):
        got = export_vertices_csv(build_graph(Zn(8)))
        assert got == (
            "element,ann_size,self_annihilating\n"
            "2,2,false\n"
            "4,4,true\n"
            "6,2,false\n"
        )

    def test_product_elements_quoted_by_csv_writer(self):
        got = export_edges_csv(build_graph(Product((Zn(2), Zn(2)))))
        assert got == 'u,v\n"(0,1)","(1,0)"\n'


@pytest.mark.parametrize("export", [export_dot, export_edges_csv, export_vertices_csv])
def test_export_renders_each_vertex_once(monkeypatch, export):
    """element_str runs once per vertex per graph, when it is built; no
    export renders a vertex or measures an annihilator again."""
    spec = parse_ring("Zn(9)xZn(10)xZn(11)")
    before = export(build_graph(spec))
    rendered, sized = [], []

    def counted_str(x):
        rendered.append(x)
        return element_str(x)

    def counted_size(*args):
        sized.append(args)
        return rings._ann_size(*args)

    monkeypatch.setattr(zeroprod.graph, "element_str", counted_str)
    g = build_graph(spec)
    assert rendered == list(g.vertices)
    monkeypatch.setattr(zeroprod.graph, "_ann_size", counted_size)
    assert export(g) == before
    for each in (export_dot, export_edges_csv, export_vertices_csv):
        each(g)
    assert rendered == list(g.vertices)
    assert sized == []


# Reference renderers: one f-string or one csv.writer row per line, each
# vertex looked up by value, its label and size computed where it is used.
def _ref_dot(g, selfann):
    def dot_id(x):
        text = element_str(x)
        return text if text.isdigit() else f'"{text}"'

    ids = {x: dot_id(x) for x in g.vertices}
    lines = ["graph zero_divisors {"]
    for x in g.vertices:
        if x in selfann:
            lines.append(f"  {ids[x]} [selfann=true];")
        else:
            lines.append(f"  {ids[x]};")
    for u, v in g.edges:
        lines.append(f"  {ids[u]} -- {ids[v]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _ref_edges_csv(g):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["u", "v"])
    for u, v in g.edges:
        writer.writerow([element_str(u), element_str(v)])
    return buf.getvalue()


def _ref_vertices_csv(g, selfann):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["element", "ann_size", "self_annihilating"])
    for x in g.vertices:
        writer.writerow(
            [element_str(x), ann_size(g.spec, x), "true" if x in selfann else "false"]
        )
    return buf.getvalue()


def _ref_stats(g, selfann):
    degrees = {x: 0 for x in g.vertices}
    for u, v in g.edges:
        degrees[u] += 1
        degrees[v] += 1
    return (
        len(g.vertices),
        len(g.edges),
        tuple(sorted(degrees.values(), reverse=True)),
        len(selfann),
    )


_BYTE_RINGS = (
    [Zn(n) for n in range(2, 401)]
    + [Zn(3960)]
    + [
        parse_ring(text)
        for text in ("Zn(2)xZn(2)", "Zn(9)xZn(10)xZn(11)", "Zn(12)xZn(10)xZn(9)", "Zn(5)xZn(7)")
    ]
    + [
        Product((Zn(4), Product((Zn(2), Zn(3))))),
        Product((Product((Zn(3), Zn(2))), Product((Zn(2), Zn(4))))),
    ]
)


def test_exports_and_stats_match_the_row_by_row_renderers():
    """Every export byte and every statistic is what the renderers that
    wrote one csv row or one f-string per line gave."""
    for spec in _BYTE_RINGS:
        g = build_graph(spec)
        zero = zero_element(spec)
        selfann = {x for x in g.vertices if element_mul(spec, x, x) == zero}
        assert g.self_annihilators == selfann, spec
        assert export_dot(g) == _ref_dot(g, selfann), spec
        assert export_edges_csv(g) == _ref_edges_csv(g), spec
        assert export_vertices_csv(g) == _ref_vertices_csv(g, selfann), spec
        s = graph_stats(g)
        got = (s.vertex_count, s.edge_count, s.degree_sequence, s.self_annihilator_count)
        assert got == _ref_stats(g, selfann), spec


_DOUBLE_LOOP_RINGS = [
    "Zn(12)",
    "Zn(360)",
    "Zn(1024)",
    "Zn(4)xZn(6)",
    "Zn(2)xZn(3)xZn(4)",
    "Zn(9)xZn(10)",
]


class TestIdentities:
    def test_handshake_with_self_annihilator_correction(self):
        # sum over Z(R) of (|Ann(x)| - 1) counts ordered pairs of nonzero
        # elements with zero product; so do 2*edges + self-annihilators
        for n in range(2, 201):
            g = build_graph(Zn(n))
            lhs = sum(ann_size(Zn(n), x) - 1 for x in g.vertices)
            assert lhs == 2 * len(g.edges) + len(g.self_annihilators)

    def test_degree_identity(self):
        for n in (6, 8, 12, 24, 36, 100):
            g = build_graph(Zn(n))
            degree = Counter(x for edge in g.edges for x in edge)
            for x in g.vertices:
                expected = ann_size(Zn(n), x) - 1 - (1 if x in g.self_annihilators else 0)
                assert degree[x] == expected

    def test_vertex_count_for_prime_powers(self):
        for p in (2, 3, 5):
            k = 1
            while p**k <= 2048:
                g = build_graph(Zn(p**k))
                assert len(g.vertices) == p ** (k - 1) - 1
                k += 1

    def test_vertices_equal_zero_divisor_set(self):
        for n in (6, 30, 210):
            assert set(build_graph(Zn(n)).vertices) == zero_divisor_set(Zn(n))
        for text in _DOUBLE_LOOP_RINGS:
            spec = parse_ring(text)
            assert build_graph(spec).vertices == tuple(sorted(zero_divisor_set(spec)))


@pytest.mark.parametrize("text", _DOUBLE_LOOP_RINGS)
def test_edges_equal_an_element_mul_double_loop(text):
    spec = parse_ring(text)
    g = build_graph(spec)
    zero = zero_element(spec)
    verts = g.vertices
    oracle = [
        (u, v)
        for i, u in enumerate(verts)
        for v in verts[i + 1 :]
        if element_mul(spec, u, v) == zero
    ]
    assert g.edges == tuple(sorted(oracle))
    # both exports write the edges in sorted order
    rows = [[element_str(u), element_str(v)] for u, v in sorted(oracle)]
    dot = export_dot(g).splitlines()
    assert [x.strip(" ;").replace('"', "").split(" -- ") for x in dot if " -- " in x] == rows
    assert list(csv.reader(io.StringIO(export_edges_csv(g))))[1:] == rows
