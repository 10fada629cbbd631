import csv
import io
from collections import Counter

import pytest

import zeroprod.graph
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
    g = build_graph(parse_ring("Zn(9)xZn(10)xZn(11)"))
    before = export(g)
    rendered = []

    def counted(x):
        rendered.append(x)
        return element_str(x)

    monkeypatch.setattr(zeroprod.graph, "element_str", counted)
    assert export(g) == before
    assert sorted(rendered) == list(g.vertices)


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


@pytest.mark.parametrize(
    "text", ["Zn(12)", "Zn(360)", "Zn(1024)", "Zn(4)xZn(6)", "Zn(2)xZn(3)xZn(4)", "Zn(9)xZn(10)"]
)
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
