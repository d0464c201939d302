from fractions import Fraction

import pytest

from phi4torus.powercount import (
    Affine,
    Edge,
    FeynmanGraph,
    GraphError,
    Triple,
    Vertex,
    enumerate_relevant_subgraphs,
    gamma_range,
    parse_graph,
    verdict,
)

from oracles import GRAPHS, reference_relevant_subgraphs


def load(name):
    return parse_graph((GRAPHS / f"{name}.fg").read_text())


class TestAffine:
    def test_str(self):
        assert str(Affine(Fraction(-28), Fraction(-2))) == "-28 - 2*gamma"
        assert str(Affine(Fraction(5))) == "5"
        assert str(Affine(Fraction(0), Fraction(1))) == "gamma"


class TestParser:
    def test_roundtrip_small(self):
        g = load("b_subamplitude")
        assert len(g.triples) == 1
        assert len(g.edges) == 2
        assert g.triples[0].members == ("ys", "y1", "y2")

    def test_comments_and_blanks(self):
        g = parse_graph("# hi\n\nvertex a\nvertex b\nedge L a b\n")
        assert len(g.edges) == 1

    def test_pinned_vertex(self):
        g = parse_graph("vertex a time=t\nvertex b\nedge L a b\n")
        assert g.vertices[0].pinned

    def test_error_carries_line(self):
        cases = [
            ("vertex a\nedge L a a\n", 2),
            ("vertex a\nvertex b\nedge L a b\nedge G1 a b\n", 4),  # the duplicate
            ("vertex a\nvertex b\nedge XX a b\n", 3),
            ("vertex a time=t\nvertex b\nvertex c\nedge L a c\nedge Q a b\n", 5),
            ("vertex a time=t\nvertex b time=t\nvertex c time=t\n"
             "edge Q a b\nedge L a c\nedge Q b c\n", 6),
        ]
        for src, line in cases:
            with pytest.raises(GraphError) as err:
                parse_graph(src)
            assert err.value.line == line, src
            assert str(err.value).startswith(f"line {line}: ")

    @pytest.mark.parametrize("triples", [
        [("T", "a", "a1", "a2"), ("T", "b", "b1", "b2")],  # a triple name twice
        [("T", "a", "a", "b")],  # a point twice in one triple
    ])
    def test_repeated_names_refused(self, triples):
        src = "".join(f"triple {t} = ({s}, {l1}, {l2})\n" for t, s, l1, l2 in triples)
        with pytest.raises(GraphError, match="declared twice"):
            parse_graph(src)
        with pytest.raises(GraphError, match="declared twice"):
            FeynmanGraph(vertices=(), triples=tuple(Triple(*t) for t in triples), edges=())

    def test_unknown_kernel(self):
        with pytest.raises(GraphError, match="kernel"):
            parse_graph("vertex a\nvertex b\nedge XX a b\n")

    def test_dangling_endpoint(self):
        with pytest.raises(GraphError):
            parse_graph("vertex a\nedge L a ghost\n")

    def test_parallel_edges_rejected(self):
        with pytest.raises(GraphError):
            parse_graph("vertex a\nvertex b\nedge L a b\nedge G2 b a\n")

    def test_edge_inside_triple_rejected(self):
        with pytest.raises(GraphError):
            parse_graph("triple T = (s, l1, l2)\nedge L l1 l2\n")

    def test_at_most_one_q(self):
        src = (
            "triple T1 = (a, a1, a2)\ntriple T2 = (b, b1, b2)\n"
            "triple T3 = (c, c1, c2)\n"
            "edge Q a b mark\nedge Q b c mark\n"
        )
        with pytest.raises(GraphError):
            parse_graph(src)

    def test_q_endpoints_must_be_stars(self):
        src = "triple T1 = (a, a1, a2)\nvertex x\nedge Q a1 x mark\n"
        with pytest.raises(GraphError):
            parse_graph(src)


class TestEnumeration:
    @pytest.mark.parametrize("name", ["g14", "g24", "g22", "g12", "g41", "b_subamplitude",
                                      "g32", "g34", "g43", "g45"])
    def test_matches_independent_enumerator(self, name):
        g = load(name)
        got = {frozenset(s) for s in enumerate_relevant_subgraphs(g)}
        want = set(reference_relevant_subgraphs(g))
        assert got == want

    def test_vertex_cap_refusal(self):
        names = [f"v{i}" for i in range(15)]
        src = "\n".join(f"vertex {n}" for n in names) + "\n"
        src += "\n".join(
            f"edge L v{i} v{(i + 1) % 15}" for i in range(15)
        )
        with pytest.raises(GraphError, match="cap"):
            enumerate_relevant_subgraphs(parse_graph(src))


class TestVerdicts:
    def test_full_g24_amplitude(self):
        g = load("g24")
        full = verdict(g, g.edges)
        assert full.a2 is not None
        assert str(full.a2) == "-28 - 2*gamma"
        assert full.codim_marked == 28
        assert full.gamma_upper == 0
        assert full.verdict == "gamma-dependent"

    def test_g24_shielded_subgraph(self):
        """{Q, G2(time0)} dangles both distinguished z-legs: exempt."""
        g = load("g24")
        sub = [e for e in g.edges if e.kind == "Q" or (e.kind == "G2" and e.time0)]
        v = verdict(g, sub)
        assert v.shielded
        assert v.verdict == "shielded-exempt"

    def test_b_subamplitude_case_b(self):
        g = load("b_subamplitude")
        full = verdict(g, g.edges)
        assert full.a1 == -11
        assert full.codim_unmarked == 11
        assert full.case_b
        assert full.verdict == "renormalizable"

    @pytest.mark.parametrize(
        "name,want",
        [
            ("g14", Fraction(0)),
            ("g12", Fraction(0)),
            ("g24", Fraction(0)),
            ("g22", Fraction(1, 2)),
            ("g34", Fraction(0)),
            ("g32", Fraction(0)),
            ("g45", Fraction(-1, 2)),
            ("g43", Fraction(-1, 2)),
            ("g41", Fraction(-1, 2)),
        ],
    )
    def test_gamma_max_per_graph(self, name, want):
        rep = gamma_range(load(name))
        assert rep.admissible
        assert rep.gamma_max == want

    def test_family_maxima(self):
        """Worst member per chaos family: tau_1..tau_3 force gamma < 0,
        tau_4 forces gamma < -1/2."""
        families = [["g14", "g12"], ["g24", "g22"], ["g34", "g32"]]
        for names in families:
            assert min(gamma_range(load(n)).gamma_max for n in names) == 0
        assert min(
            gamma_range(load(n)).gamma_max for n in ("g45", "g43", "g41")
        ) == Fraction(-1, 2)

    def test_b_subamplitude_unconstrained_but_flagged(self):
        rep = gamma_range(load("b_subamplitude"))
        assert rep.admissible
        assert rep.gamma_max is None
        assert len(rep.case_b_subgraphs) == 1
        assert "case (b)" not in str(rep)  # the summary string stays terse

    def test_boundary_and_superdivergent_triangles(self):
        """Triangles of heavy kernels probe the verdict boundaries:
        a + codim = 0 is renormalizable (case b), a + codim < -1 is not."""
        boundary = parse_graph(
            "vertex a\nvertex b\nvertex c\n"
            "edge DL a b\nedge DL b c\nedge G2 c a\n"
        )
        v = verdict(boundary, boundary.edges)
        assert v.a1 == -12
        assert v.codim_unmarked == 12
        assert v.case_b and v.verdict == "renormalizable"
        assert gamma_range(boundary).admissible

        heavy = parse_graph(
            "vertex a\nvertex b\nvertex c\n"
            "edge DL a b\nedge DL b c\nedge DL c a\n"
        )
        v = verdict(heavy, heavy.edges)
        assert v.a1 == -15 and v.verdict == "superdivergent"
        assert not gamma_range(heavy).admissible

    def test_describe_mentions_power_counting(self):
        g = load("g24")
        text = verdict(g, g.edges).describe()
        assert "a = -28 - 2*gamma" in text
        assert "codim = 28" in text


class TestDataTypes:
    def test_edge_str(self):
        e = Edge(kind="G2", a="x", b="y", time0=True, marked=False)
        assert str(e) == "G2 x y time0"

    def test_graph_validation_runs_on_construction(self):
        with pytest.raises(GraphError):
            FeynmanGraph(
                vertices=(Vertex("a"),),
                triples=(),
                edges=(Edge("L", "a", "a"),),
            )

    def test_triple_members(self):
        t = Triple(name="T", star="s", leg1="l1", leg2="l2")
        assert t.members == ("s", "l1", "l2")
