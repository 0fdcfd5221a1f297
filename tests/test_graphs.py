"""Unit tests for graphs, theta levels, dissimilarity and graph homologies."""

import itertools
import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uberhom import (
    Colouring,
    ComplexError,
    ParseError,
    SimpleGraph,
    closed_form_signature,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    delta_lower_bounds,
    dissimilarity,
    encode_graph6,
    girth,
    graph_as_complex,
    grid_graph,
    h0_graph,
    h1_0,
    h1_1,
    h2_graph,
    horizontal_homology,
    hypercube_graph,
    matching_complex,
    matching_complex_of_edges,
    maximal_spacious_trees,
    min_vertex_cover_size,
    parse_graph6,
    path_graph,
    prism_graph,
    spacious_trees,
    theta,
    theta_profile,
    uber_homology,
    vertex_cover_bijection_check,
    vertices_of,
)

from oracles import (
    all_matchings,
    is_tree,
    naive_girth,
    naive_graph_h0,
    naive_horizontal,
    naive_min_cover,
)

BULL = SimpleGraph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)])


def random_connected(rng, n) -> SimpleGraph:
    """Random spanning tree plus extra edges."""
    edges = set()
    for v in range(1, n):
        u = rng.randrange(v)
        edges.add((u, v))
    extra = rng.randrange(0, n)
    for _ in range(extra):
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return SimpleGraph.from_edges(n, edges)


def test_simple_graph_validation():
    with pytest.raises(ComplexError):
        SimpleGraph(3, ((0, 0),))
    with pytest.raises(ComplexError):
        SimpleGraph(3, ((1, 0),))  # not normalized
    with pytest.raises(ComplexError):
        SimpleGraph(3, ((0, 1), (0, 1)))
    with pytest.raises(ComplexError):
        SimpleGraph(3, ((0, 2), (0, 1)))  # not sorted
    with pytest.raises(ComplexError):
        SimpleGraph(2, ((0, 2),))
    G = SimpleGraph.from_edges(3, [(2, 0), (1, 0), (0, 2)])
    assert G.edges == ((0, 1), (0, 2))


def test_graph_accessors():
    G = BULL
    assert G.edge_count == 5
    assert G.degree_sequence == (3, 3, 2, 1, 1)
    assert G.neighbours(0) == (1, 2, 3)
    assert G.has_edge(1, 4) and not G.has_edge(3, 4)
    assert G.is_connected
    assert not SimpleGraph.from_edges(3, [(0, 1)]).is_connected
    H = G.permuted([4, 3, 2, 1, 0])
    assert H.degree_sequence == G.degree_sequence
    assert H.has_edge(4, 3)  # image of edge (0, 1)


def test_graph_builders():
    assert complete_graph(4).edge_count == 6
    assert cycle_graph(5).degree_sequence == (2,) * 5
    assert path_graph(3).edge_count == 3 and path_graph(3).vertex_count == 4
    assert complete_bipartite_graph(2, 3).degree_sequence == (3, 3, 2, 2, 2)
    assert grid_graph(3, 3).edge_count == 12
    assert hypercube_graph(3).degree_sequence == (3,) * 8
    assert prism_graph(3).edge_count == 9
    assert prism_graph(4).edge_count == 12
    assert prism_graph(4).degree_sequence == hypercube_graph(3).degree_sequence
    with pytest.raises(ComplexError):
        cycle_graph(2)
    with pytest.raises(ComplexError):
        path_graph(0)


def test_graph6_frozen_strings():
    assert encode_graph6(prism_graph(3)) == "E{Sw"
    assert encode_graph6(complete_bipartite_graph(3, 3)) == "EFz_"
    assert encode_graph6(complete_graph(4)) == "C~"
    assert parse_graph6(">>graph6<<C~") == complete_graph(4)


def test_graph6_roundtrip_against_networkx():
    rng = random.Random(61)
    graphs = [complete_graph(5), cycle_graph(7), BULL, grid_graph(2, 4)]
    graphs += [random_connected(rng, rng.randrange(2, 12)) for _ in range(20)]
    for G in graphs:
        s = encode_graph6(G)
        assert parse_graph6(s) == G
        H = nx.from_graph6_bytes(s.encode())
        assert sorted(H.edges()) == list(G.edges)
        assert nx.to_graph6_bytes(H, header=False).strip().decode() == s


def test_parse_graph6_errors():
    for bad in ["", "C~~", "C", " \x19"]:
        with pytest.raises(ParseError):
            parse_graph6(bad)


def test_graph_as_complex():
    X = graph_as_complex(BULL)
    assert X.dim == 1
    assert X.f_vector == (5, 5)
    with pytest.raises(ComplexError):
        graph_as_complex(SimpleGraph.from_edges(3, [(0, 1)]))


def test_matching_complex_against_bruteforce():
    graphs = [complete_graph(4), complete_graph(5), cycle_graph(6),
              complete_bipartite_graph(2, 3), BULL, path_graph(4)]
    for G in graphs:
        M = matching_complex(G)
        expected = {frozenset(m) for m in all_matchings(G.edges) if m}
        got = {frozenset(vertices_of(s)) for s in M.simplices}
        assert got == expected
    with pytest.raises(ComplexError):
        matching_complex(SimpleGraph(2, ()))


def test_matching_complex_of_edges_with_parallels():
    # two parallel edges block each other: two isolated points
    M = matching_complex_of_edges([("a", "b"), ("a", "b")])
    assert {vertices_of(s) for s in M.simplices} == {(0,), (1,)}
    # an empty edge list gives the void complex
    assert matching_complex_of_edges([]).is_void


def test_closed_form_signature_is_exact():
    """The counting formulas agree with the matrix-rank homology for every
    colouring, not only the levels where theta uses them."""
    graphs = [path_graph(3), cycle_graph(4), cycle_graph(5),
              complete_graph(4), complete_bipartite_graph(2, 3), BULL]
    for G in graphs:
        X = graph_as_complex(G)
        m = G.vertex_count
        for bits in range(1 << m):
            ranks = horizontal_homology(X, Colouring(bits, m))
            expected = tuple(sorted(
                ((i, k, r) for (i, k), r in ranks.items()), reverse=True))
            assert closed_form_signature(G, bits) == expected, (G.edges, bits)


@st.composite
def ordered_graphs(draw):
    """A graph on at most 8 vertices, connected or not, and a vertex order;
    the first j vertices of the order are the black set of weight j."""
    m = draw(st.integers(1, 8))
    pairs = list(itertools.combinations(range(m), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    G = SimpleGraph.from_edges(m, [p for p, k in zip(pairs, keep) if k])
    return G, draw(st.permutations(range(m)))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(ordered_graphs())
def test_closed_form_signature_matches_oracle(case):
    """theta rests on the counting formulas at every level; check them against
    the brute-force horizontal homology, one colouring of every weight."""
    G, order = case
    facets = [{v} for v in range(G.vertex_count)] + [set(e) for e in G.edges]
    for j in range(G.vertex_count + 1):
        black = order[:j]
        ranks = naive_horizontal(facets, black)
        expected = tuple(sorted(((i, k, r) for (i, k), r in ranks.items()),
                                reverse=True))
        bits = sum(1 << v for v in black)
        assert closed_form_signature(G, bits) == expected, (G.edges, bits)


def test_theta_structure():
    G = prism_graph(3)
    level0 = theta(G, 0)
    assert level0.entries == ((0, 1, 2, 9), (0, 0, 1, 6))
    assert level0.signature_counts == ((((1, 2, 9), (0, 1, 6)), 1),)
    level1 = theta(G, 1)
    assert level1.entries == tuple(
        sorted([(1, 1, 2, 6)] * 6 + [(1, 0, 1, 2)] * 6 + [(1, 0, 0, 1)] * 6,
               reverse=True))
    # signature_counts sum to the number of colourings at the level
    for j in range(G.vertex_count + 1):
        lvl = theta(G, j)
        total = sum(c for _, c in lvl.signature_counts)
        assert total == len(list(itertools.combinations(range(6), j)))
        # entries pool the signatures
        pooled = sorted(((j, i, k, r) for sig, c in lvl.signature_counts
                         for _ in range(c) for (i, k, r) in sig), reverse=True)
        assert list(lvl.entries) == pooled
    with pytest.raises(ComplexError):
        theta(G, 7)
    with pytest.raises(ComplexError):
        theta(G, -1)


def test_theta_aggregated():
    lvl = theta(prism_graph(3), 2)
    assert lvl.aggregated == ((2, 1, 2, 54), (2, 1, 1, 18),
                              (2, 0, 1, 6), (2, 0, 0, 21))
    # aggregation sums the multiset
    totals: dict = {}
    for j, i, k, r in lvl.entries:
        totals[(j, i, k)] = totals.get((j, i, k), 0) + r
    assert dict(((j, i, k), r) for j, i, k, r in lvl.aggregated) == totals


def test_theta_profile_clamps():
    G = path_graph(2)
    assert theta_profile(G, 99) == tuple(theta(G, j).entries for j in range(4))


def test_dissimilarity_basics():
    G1, G2 = prism_graph(3), complete_bipartite_graph(3, 3)
    d = dissimilarity(G1, G2)
    assert d.value == Fraction(2, 3)
    assert d.first_differing_level == 2
    assert not d.theta_equivalent and not d.infinite
    # symmetric
    back = dissimilarity(G2, G1)
    assert (back.value, back.first_differing_level) == (d.value, 2)
    # relabelled copies are theta-equivalent
    same = dissimilarity(G1, G1.permuted([3, 4, 5, 0, 1, 2]))
    assert same.value == 0 and same.theta_equivalent
    assert same.first_differing_level is None
    # vertex count mismatch is the infinite marker
    inf = dissimilarity(G1, complete_graph(4))
    assert inf.infinite and inf.value is None
    assert inf.first_differing_level is None


def test_dissimilarity_triangle_inequality_sample():
    rng = random.Random(67)
    graphs = [random_connected(rng, 5) for _ in range(6)]
    for a, b, c in itertools.combinations(graphs, 3):
        dab = dissimilarity(a, b).value
        dbc = dissimilarity(b, c).value
        dac = dissimilarity(a, c).value
        assert dac <= dab + dbc


def test_delta_lower_bounds():
    G1, G2 = prism_graph(3), complete_bipartite_graph(3, 3)
    bounds = delta_lower_bounds(G1, G2)
    assert bounds["degree_seq"] is None  # both 3-regular
    assert bounds["girth"] == Fraction(1, 2)  # girths 3 vs 4
    assert bounds["vertex_cover"] == Fraction(1, 2)  # covers 4 vs 3
    actual = dissimilarity(G1, G2).value
    for bound in bounds.values():
        if bound is not None:
            assert bound <= actual
    with pytest.raises(ComplexError):
        delta_lower_bounds(G1, complete_graph(4))


def test_delta_lower_bounds_validity_random():
    rng = random.Random(71)
    for _ in range(10):
        n = rng.randrange(4, 7)
        G1, G2 = random_connected(rng, n), random_connected(rng, n)
        actual = dissimilarity(G1, G2).value
        for name, bound in delta_lower_bounds(G1, G2).items():
            if bound is not None:
                assert bound <= actual, (name, G1.edges, G2.edges)


def test_girth_and_cover_against_oracles():
    assert girth(cycle_graph(5)) == 5
    assert girth(path_graph(4)) is None
    assert girth(complete_graph(4)) == 3
    assert min_vertex_cover_size(path_graph(3)) == 2
    assert min_vertex_cover_size(complete_graph(4)) == 3
    rng = random.Random(73)
    for _ in range(15):
        G = random_connected(rng, rng.randrange(3, 8))
        assert girth(G) == naive_girth(G.vertex_count, G.edges)
        assert min_vertex_cover_size(G) == naive_min_cover(G.vertex_count, G.edges)


def test_spacious_trees_match_definition():
    rng = random.Random(79)
    graphs = [BULL, cycle_graph(4), complete_graph(4)]
    graphs += [random_connected(rng, rng.randrange(3, 7)) for _ in range(8)]
    for G in graphs:
        listed = {c.bits for c in spacious_trees(G)}
        expected = set()
        for bits in range(1, 1 << G.vertex_count):
            if is_tree(frozenset(vertices_of(bits)), G.edges):
                expected.add(bits)
        assert listed == expected


def test_maximal_spacious_trees_bull():
    got = {c.black_vertices() for c in maximal_spacious_trees(BULL)}
    assert got == {(0, 1, 3, 4), (0, 2, 3), (1, 2, 4)}
    assert len(got) == 3


def test_vertex_cover_bijection_samples():
    rng = random.Random(83)
    for G in [BULL, cycle_graph(5), complete_bipartite_graph(2, 3)]:
        assert vertex_cover_bijection_check(G)
    for _ in range(5):
        assert vertex_cover_bijection_check(random_connected(rng, 6))


def test_h0_graph_against_oracle_and_cube():
    rng = random.Random(89)
    graphs = [path_graph(2), cycle_graph(4), complete_graph(4),
              complete_bipartite_graph(2, 2), BULL]
    graphs += [random_connected(rng, rng.randrange(3, 7)) for _ in range(6)]
    for G in graphs:
        fast = h0_graph(G)
        assert fast == naive_graph_h0(G.vertex_count, G.edges)
        cube = uber_homology(graph_as_complex(G), bidegrees=[(0, 0)])
        assert fast == {j: r for (j, _, _), r in cube.items()}


def test_specialised_homologies_are_cube_slices():
    for G in [cycle_graph(4), BULL, complete_graph(4)]:
        X = graph_as_complex(G)
        full = uber_homology(X)
        assert h1_0(G) == {j: r for (j, i, k), r in full.items() if (i, k) == (0, 1)}
        assert h1_1(G) == {j: r for (j, i, k), r in full.items() if (i, k) == (1, 1)}
        assert h2_graph(G) == {j: r for (j, i, k), r in full.items() if (i, k) == (1, 2)}


def test_specialised_homologies_require_connected():
    broken = SimpleGraph.from_edges(3, [(0, 1)])
    for fn in (h0_graph, h1_0, h1_1, h2_graph):
        with pytest.raises(ComplexError):
            fn(broken)


def test_frozen_graph_homology_values():
    assert h0_graph(complete_graph(4)) == {1: 1}
    assert h0_graph(cycle_graph(5)) == {3: 1}
    assert h1_0(complete_graph(4)) == {0: 4}
    assert h1_1(cycle_graph(4)) == {}
