"""Unit tests for graphs, theta levels, dissimilarity and graph homologies."""

import itertools
import random
import time
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uberhom import f2, planar, uber
from uberhom import graphs as graphs_module
from uberhom import (
    CapExceeded,
    Colouring,
    ComplexError,
    ParseError,
    SimpleGraph,
    closed_form_signature,
    dissimilarity,
    encode_graph6,
    graph_as_complex,
    h0_graph,
    h1_0,
    h1_1,
    h2_graph,
    horizontal_homology,
    matching_complex,
    matching_complex_of_edges,
    mask_of,
    parse_graph6,
    first_differing_level,
    theta,
    theta_classes,
    vertices_of,
)
from uberhom.complexes import MAX_INPUT_FACES

from oracles import (
    all_matchings,
    is_tree,
    naive_girth,
    naive_graph_h0,
    naive_horizontal,
    naive_dissimilarity,
    naive_min_cover,
    unquotiented_chain_ranks,
)
from paper import (check_vertex_cover_bijection, checked_complex, degree_sequence,
                   delta_lower_bounds, dimension, f_vector, girth, graph, maximal_spacious_trees,
                   min_vertex_cover_size, prism_graph, spacious_trees)

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
    assert degree_sequence(G) == (3, 3, 2, 1, 1)
    assert G.neighbours(0) == (1, 2, 3)
    assert G.has_edge(1, 4) and not G.has_edge(3, 4)
    assert G.is_connected
    assert not SimpleGraph.from_edges(3, [(0, 1)]).is_connected
    H = G.permuted([4, 3, 2, 1, 0])
    assert degree_sequence(H) == degree_sequence(G)
    assert H.has_edge(4, 3)  # image of edge (0, 1)


def test_graph_builders():
    assert graph("complete", 4).edge_count == 6
    assert degree_sequence(graph("cycle", 5)) == (2,) * 5
    assert graph("path", 3).edge_count == 3 and graph("path", 3).vertex_count == 4
    assert degree_sequence(graph("complete_bipartite", 2, 3)) == (3, 3, 2, 2, 2)
    assert graph("grid", 3, 3).edge_count == 12
    assert degree_sequence(graph("cube", 3)) == (3,) * 8
    assert prism_graph(3).edge_count == 9
    assert prism_graph(4).edge_count == 12
    assert degree_sequence(prism_graph(4)) == degree_sequence(graph("cube", 3))
    with pytest.raises(ComplexError):
        graph("cycle", 2)
    with pytest.raises(ComplexError):
        graph("path", 0)


def test_graph6_frozen_strings():
    assert encode_graph6(prism_graph(3)) == "E{Sw"
    assert encode_graph6(graph("complete_bipartite", 3, 3)) == "EFz_"
    assert encode_graph6(graph("complete", 4)) == "C~"
    assert parse_graph6(">>graph6<<C~") == graph("complete", 4)


def test_graph6_roundtrip_against_networkx():
    rng = random.Random(61)
    graphs = [graph("complete", 5), graph("cycle", 7), BULL, graph("grid", 2, 4)]
    graphs += [random_connected(rng, rng.randrange(2, 12)) for _ in range(20)]
    # the header grows from one byte to four past 62 vertices; 64 is the cap
    graphs += [random_connected(rng, n) for n in (62, 63, 64)]
    for G in graphs:
        s = encode_graph6(G)
        n = G.vertex_count
        assert len(s) == (1 if n <= 62 else 4) + (n * (n - 1) // 2 + 5) // 6
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
    assert dimension(X) == 1
    assert f_vector(X) == (5, 5)
    with pytest.raises(ComplexError):
        graph_as_complex(SimpleGraph.from_edges(3, [(0, 1)]))


def test_matching_complex_against_bruteforce():
    graphs = [graph("complete", 4), graph("complete", 5), graph("cycle", 6),
              graph("complete_bipartite", 2, 3), BULL, graph("path", 4)]
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


def check_relative_chain(edges, free: int, near: int, levels):
    """One free set's chain as `matching_blocks` yields it, against the
    brute-force matchings: near is b, the edge of free with the fewest
    clashes inside it (the lowest on a tie), and the edges of free that
    clash with it, or 0 for an empty set.  Every matching of free lies
    exactly once in the levels or in the star of b (those that miss near
    but for b); level d holds matchings of d + 1 edges, no level is empty,
    and each is in the order of one ascending search from a cell's lowest
    edge in near."""
    inside = [i for i in range(len(edges)) if free >> i & 1]
    clashes = {i: {j for j in inside if set(edges[i]) & set(edges[j])} for i in inside}
    b = min(inside, key=lambda i: (len(clashes[i]), i), default=None)
    assert near == (mask_of(clashes[b]) if inside else 0)
    star = near & ~(1 << b) if inside else 0
    matchings = [mask_of(m) for m in all_matchings(edges) if not mask_of(m) & ~free]
    cells = [s for found in levels for s in found]
    assert sorted(cells + [s for s in matchings if not s & star]) == sorted(matchings)
    lowest = lambda s: s & star & -(s & star)
    for d, found in enumerate(levels):
        assert found and all(s.bit_count() == d + 1 for s in found)
        assert found == sorted(found, key=lambda s: (lowest(s), vertices_of(s ^ lowest(s))))
    return b


@settings(max_examples=300)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7))
                .filter(lambda e: e[0] != e[1]), max_size=12),
       st.one_of(st.just(0), st.just(-1), st.integers(0, (1 << 12) - 1)))
def test_matching_complex_of_edges_against_oracle(edges, part):
    """The builder enumerates exactly the matchings (parallel edges
    included) and its output passes checked_complex unchanged.  Split by a
    part (none, every edge as with ~eps.bits, or a random mask), every
    white matching W (a matching inside part, 0 included) lies in the one
    group of its free set, the edges outside part that clash with none of
    W, and each group's chain is that set's relative to the star of one of
    its edges (check_relative_chain).  With part -1 there is one group,
    whose whites are every matching.  The count searched is the exact
    limit: each nonempty W once, and a free set's cells once per W."""
    M = matching_complex_of_edges(edges)
    expected = {mask_of(m) for m in all_matchings(edges) if m}
    assert M.simplices == expected
    assert checked_complex(M.vertex_count, M.simplices) == M
    groups = list(graphs_module.matching_blocks(edges, part))
    outside = mask_of(i for i in range(len(edges)) if not part >> i & 1)
    whites = [W for W in {0} | expected if not W & outside]
    assert sorted(W for group, _, _ in groups for W in group) == sorted(whites)
    free_sets, searched = set(), len(whites) - 1
    for group, near, levels in groups:
        touched = [{v for j in vertices_of(W) for v in edges[j]} for W in group]
        [free] = {mask_of(i for i in vertices_of(outside) if not set(edges[i]) & seen)
                  for seen in touched}
        check_relative_chain(edges, free, near, levels)
        free_sets.add(free)
        searched += len(group) * sum(map(len, levels))
    assert len(free_sets) == len(groups)
    if part & ((1 << len(edges)) - 1) == (1 << len(edges)) - 1:
        assert [(group[0], near, levels) for group, near, levels in groups] == [(0, 0, [])]
    assert list(graphs_module.matching_blocks(edges, part, searched)) == groups
    if searched:
        with pytest.raises(CapExceeded):
            list(graphs_module.matching_blocks(edges, part, searched - 1))


@settings(max_examples=300)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5))
                .filter(lambda e: e[0] != e[1]), max_size=10))
@example([])  # no edge: the void complex
@example([(0, 1)])  # a lone edge: b's star is everything
@example([(0, 1), (1, 0), (2, 3), (3, 2)])  # parallel edges, as a bridge gives
@example([(0, 1), (1, 2), (2, 3), (3, 4)])  # a path: b clashes at one end only
@example([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])  # a cycle: one clash at each end
@example([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])  # K4: two at each end
def test_relative_matching_chain_against_full_chain(edges):
    """The chain of all of an edge list's matchings relative to the star of
    b (check_relative_chain) has the homology of the full matching chain:
    unreduced, with b's H_0 = 1 added back at degree 0, and reduced, the
    empty matching's H_-1 = 1 for no edge, both at the weight their white
    matchings give, against the brute-force matchings reduced with no
    quotient."""
    [(whites, near, levels)] = graphs_module.matching_blocks(edges, 0)
    assert whites == [0]
    check_relative_chain(edges, (1 << len(edges)) - 1, near, levels)
    full: dict[int, list[int]] = {}
    for m in all_matchings(edges):
        full.setdefault(len(m) - 1, []).append(mask_of(m))
    for k, chain in ((0, {d: found for d, found in full.items() if d >= 0}), (2, full)):
        expected = {(d + k, k): 3 * r for d, r in
                    unquotiented_chain_ranks(chain, lambda d: d - 1, -1).items()}
        ranks: dict = {}
        planar._add_matching_ranks(ranks, near, levels, {k: 3})
        assert ranks == expected, k


@pytest.mark.parametrize("limit", [1 << 12, MAX_INPUT_FACES])
def test_matching_blocks_bound_with_a_part(limit):
    """16 disjoint white edges and 8 disjoint paths of two free edges: the
    2^16 white matchings leave one free set, whose chain relative to the
    star of its first edge has 3^7 cells, charged once per white matching,
    2^16 * 3^7 in all.  The search refuses as soon as it reaches the limit:
    inside the white search, or in the first steps of the free set's
    search."""
    edges = [(2 * i, 2 * i + 1) for i in range(16)]
    edges += [(100 + 3 * i + j, 101 + 3 * i + j) for i in range(8) for j in range(2)]
    part = (1 << 16) - 1
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match=f"more than {limit} matchings"):
        list(graphs_module.matching_blocks(edges, part, limit))
    assert time.perf_counter() - start < 1


def test_closed_form_signature_is_exact():
    """The counting formulas agree with the matrix-rank homology for every
    colouring, not only the levels where theta uses them."""
    graphs = [graph("path", 3), graph("cycle", 4), graph("cycle", 5),
              graph("complete", 4), graph("complete_bipartite", 2, 3), BULL]
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


@settings(max_examples=300)
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


@settings(max_examples=300)
@given(ordered_graphs(), st.integers(0, (1 << 8) - 1))
def test_closed_form_signature_is_in_descending_order(case, bits):
    """The entries come out in descending order, each (i, k) once with a
    nonzero rank, for any graph and colouring: theta counts and compares
    the tuples as they are."""
    G, _ = case
    signature = closed_form_signature(G, bits & (1 << G.vertex_count) - 1)
    assert list(signature) == sorted(signature, reverse=True)
    assert len({(i, k) for i, k, _ in signature}) == len(signature)
    assert all(r > 0 for _, _, r in signature)


def test_first_differing_level_edge_cases():
    assert first_differing_level([], []) is None
    assert first_differing_level([0, 1], [0, 1, 2]) is None  # a prefix
    assert first_differing_level([0, 1, 2], [0, 1]) is None
    assert first_differing_level([1, 0], [0, 0]) == 0
    assert first_differing_level([0, 0, 1], [0, 0, 2]) == 2
    assert first_differing_level([3, 1, 4], [3, 1, 4]) is None  # agree to the end


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


def test_dissimilarity_basics():
    G1, G2 = prism_graph(3), graph("complete_bipartite", 3, 3)
    # the first differing level is 2 of 6, in either order
    assert first_differing_level(*theta_classes([G1, G2])) == 2
    assert dissimilarity(G1, G2) == dissimilarity(G2, G1) == Fraction(2, 3)
    # relabelled copies are theta-equivalent
    same = dissimilarity(G1, G1.permuted([3, 4, 5, 0, 1, 2]))
    assert same == 0 and isinstance(same, Fraction)
    # vertex count mismatch is the infinite marker
    assert dissimilarity(G1, graph("complete", 4)) is None


def test_dissimilarity_triangle_inequality_sample():
    rng = random.Random(67)
    graphs = [random_connected(rng, 5) for _ in range(6)]
    for a, b, c in itertools.combinations(graphs, 3):
        dab = dissimilarity(a, b)
        dbc = dissimilarity(b, c)
        dac = dissimilarity(a, c)
        assert dac <= dab + dbc


@st.composite
def connected_graphs(draw):
    """A connected graph on 1 to 7 vertices: a random tree plus random edges."""
    n = draw(st.integers(1, 7))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = list(itertools.combinations(range(n), 2))
    if pairs:
        edges.update(draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))))
    return SimpleGraph.from_edges(n, edges)


@st.composite
def corpora(draw):
    """Relabelled copies (the identity included, so duplicates too) of a few
    connected graphs of mixed vertex counts, each a separate object."""
    base = draw(st.lists(connected_graphs(), min_size=1, max_size=5))
    picks = draw(st.lists(st.sampled_from(base), min_size=1, max_size=8))
    return [G.permuted(draw(st.permutations(range(G.vertex_count)))) for G in picks]


@settings(max_examples=200)
@given(corpora())
def test_theta_classes_match_pairwise_oracle(corpus):
    real_theta = graphs_module.theta
    calls: list = []

    def counted(G, j):
        calls.append((id(G), j))
        return real_theta(G, j)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graphs_module, "theta", counted)
        classes = theta_classes(corpus)
        refined = list(calls)
        calls.clear()
        expected = {(a, b): naive_dissimilarity(corpus[a], corpus[b])
                    for a, b in itertools.combinations(range(len(corpus)), 2)}
    # each (graph, level) at most once, and exactly those the pairs compare
    assert len(refined) == len(set(refined))
    assert set(refined) == set(calls)
    for G, ids in zip(corpus, classes):
        assert len(ids) <= G.vertex_count + 1
    for (a, b), (value, level, equivalent) in expected.items():
        m1, m2 = corpus[a].vertex_count, corpus[b].vertex_count
        if m1 == m2:
            assert first_differing_level(classes[a], classes[b]) == level
            if equivalent:  # every level 0..m was compared
                assert len(classes[a]) == len(classes[b]) == m1 + 1
        else:
            assert value is None
        assert dissimilarity(corpus[a], corpus[b]) == value


def test_delta_lower_bounds():
    G1, G2 = prism_graph(3), graph("complete_bipartite", 3, 3)
    bounds = delta_lower_bounds(G1, G2)
    assert bounds["degree_seq"] is None  # both 3-regular
    assert bounds["girth"] == Fraction(1, 2)  # girths 3 vs 4
    assert bounds["vertex_cover"] == Fraction(1, 2)  # covers 4 vs 3
    actual = dissimilarity(G1, G2)
    for bound in bounds.values():
        if bound is not None:
            assert bound <= actual
    with pytest.raises(AssertionError):
        delta_lower_bounds(G1, graph("complete", 4))


def test_delta_lower_bounds_validity_random():
    rng = random.Random(71)
    for _ in range(10):
        n = rng.randrange(4, 7)
        G1, G2 = random_connected(rng, n), random_connected(rng, n)
        actual = dissimilarity(G1, G2)
        for name, bound in delta_lower_bounds(G1, G2).items():
            if bound is not None:
                assert bound <= actual, (name, G1.edges, G2.edges)


def test_girth_and_cover_against_oracles():
    assert girth(graph("cycle", 5)) == 5
    assert girth(graph("path", 4)) is None
    assert girth(graph("complete", 4)) == 3
    assert min_vertex_cover_size(graph("path", 3)) == 2
    assert min_vertex_cover_size(graph("complete", 4)) == 3
    rng = random.Random(73)
    for _ in range(15):
        G = random_connected(rng, rng.randrange(3, 8))
        assert girth(G) == naive_girth(G.vertex_count, G.edges)
        assert min_vertex_cover_size(G) == naive_min_cover(G.vertex_count, G.edges)


def test_spacious_trees_match_definition():
    rng = random.Random(79)
    graphs = [BULL, graph("cycle", 4), graph("complete", 4)]
    graphs += [random_connected(rng, rng.randrange(3, 7)) for _ in range(8)]
    for G in graphs:
        listed = set(spacious_trees(G))
        expected = set()
        for bits in range(1, 1 << G.vertex_count):
            if is_tree(frozenset(vertices_of(bits)), G.edges):
                expected.add(bits)
        assert listed == expected


def test_maximal_spacious_trees_bull():
    got = {vertices_of(t) for t in maximal_spacious_trees(BULL)}
    assert got == {(0, 1, 3, 4), (0, 2, 3), (1, 2, 4)}
    assert len(got) == 3


def test_vertex_cover_bijection_samples():
    rng = random.Random(83)
    for G in [BULL, graph("cycle", 5), graph("complete_bipartite", 2, 3)]:
        check_vertex_cover_bijection(G)
    for _ in range(5):
        check_vertex_cover_bijection(random_connected(rng, 6))


def test_h0_graph_against_oracle_and_cube():
    rng = random.Random(89)
    graphs = [graph("path", 2), graph("cycle", 4), graph("complete", 4),
              graph("complete_bipartite", 2, 2), BULL]
    graphs += [random_connected(rng, rng.randrange(3, 7)) for _ in range(6)]
    for G in graphs:
        fast = h0_graph(G)
        assert fast == naive_graph_h0(G.vertex_count, G.edges)
        cube = uber._engine_cube(graph_as_complex(G))
        assert fast == {j: r for (j, i, k), r in cube.items() if (i, k) == (0, 0)}


def test_h0_graph_clears_through_the_engine_reducer(monkeypatch):
    """h0 goes through the engine's reducer, whose clearing hands f2.rank_of
    fewer columns than the classes on levels 0 to m-1; on the 12-vertex
    grid it agrees with the engine's (0, 0) slice."""
    seen = []
    rank_of = f2.rank_of

    def recorder(columns, **kwargs):
        columns = list(columns)
        seen.append(len(columns))
        return rank_of(columns, **kwargs)

    monkeypatch.setattr(f2, "rank_of", recorder)
    G = graph("cycle", 10)
    m = G.vertex_count
    classes = sum(r for mask in range((1 << m) - 1)
                  for i, k, r in closed_form_signature(G, mask) if (i, k) == (0, 0))
    assert h0_graph(G) == {8: 1}
    assert 0 < sum(seen) < classes
    monkeypatch.undo()
    grid = graph("grid", 3, 4)
    cube = uber._engine_cube(graph_as_complex(grid))
    assert h0_graph(grid) == {j: r for (j, i, k), r in cube.items()
                              if (i, k) == (0, 0)} == {8: 1}


def test_specialised_homologies_are_cube_slices():
    graphs = [SimpleGraph(1, ()), graph("path", 1), graph("cycle", 4), BULL,
              graph("complete", 4)]
    for G in graphs:
        X = graph_as_complex(G)
        full = uber._engine_cube(X)
        assert h1_0(G) == {j: r for (j, i, k), r in full.items() if (i, k) == (0, 1)}
        assert h1_1(G) == {j: r for (j, i, k), r in full.items() if (i, k) == (1, 1)}
        assert h2_graph(G) == {j: r for (j, i, k), r in full.items() if (i, k) == (1, 2)}


def test_specialised_homologies_require_connected():
    broken = SimpleGraph.from_edges(3, [(0, 1)])
    for fn in (h0_graph, h1_0, h1_1, h2_graph):
        with pytest.raises(ComplexError):
            fn(broken)


def test_frozen_graph_homology_values():
    assert h0_graph(graph("complete", 4)) == {1: 1}
    assert h0_graph(graph("cycle", 5)) == {3: 1}
    assert h1_0(graph("complete", 4)) == {0: 4}
    assert h1_1(graph("cycle", 4)) == {}
