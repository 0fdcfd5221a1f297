"""Acceptance battery: one test per shipped guarantee.

Each test pins exact GF(2) ranks (zero tolerance) and, where the guarantee
includes a budget, a wall-clock bound.  A per-criterion PASS/FAIL summary is
printed by the conftest terminal hook.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from fractions import Fraction
from math import comb

import networkx as nx

from conftest import best_of
from oracles import check_split_boundaries, is_tree
from paper import (barycentric_subdivision, check_cone_suspension, check_top_degree,
                   check_vertex_cover_bijection, dalmatian_closed_form, diameter,
                   f_vector, graph, induced_subgraph, is_dalmatian, iterated_dalmatian,
                   maximal_spacious_trees, prism_graph, spacious_trees, weight)
from uberhom import (
    Colouring,
    SimpleGraph,
    closed_form_signature,
    diagonal_homology,
    dim_of,
    dissimilarity,
    elementary_decomposition,
    graph_as_complex,
    h0_graph,
    h1_0,
    h1_1,
    h2_graph,
    horizontal_homology,
    simplicial_homology,
    standard_complex,
    theorem42_verify,
    theta,
    uber_degree0_fast,
    uber_homology,
    uber_top_level,
    verify_morse,
    vertices_of,
)

# Frozen signature multisets for the two cubic 6-vertex graphs at level 2.
# Each item is (signature, multiplicity); a signature is the descending tuple
# of nonzero (dimension, filtration, rank) entries of one colouring.
PRISM_LEVEL2_SIGNATURES = (
    (((1, 2, 4), (1, 1, 1), (0, 1, 1), (0, 0, 1)), 6),
    (((1, 2, 4), (0, 0, 1)), 3),
    (((1, 2, 3), (1, 1, 2), (0, 0, 2)), 6),
)
K33_LEVEL2_SIGNATURES = (
    (((1, 2, 4), (0, 0, 1)), 9),
    (((1, 2, 3), (1, 1, 3), (0, 1, 1), (0, 0, 2)), 6),
)
# Aggregated (level, dimension, filtration, total rank) rows; identical for
# the two graphs, which is why the signature multisets above are what tells
# them apart.
CUBIC6_LEVEL2_AGGREGATED = (
    (2, 1, 2, 54), (2, 1, 1, 18), (2, 0, 1, 6), (2, 0, 0, 21))

BULL_EDGES = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)]


def to_simple(g: nx.Graph) -> SimpleGraph:
    nodes = sorted(g.nodes())
    index = {v: i for i, v in enumerate(nodes)}
    return SimpleGraph.from_edges(
        len(nodes), [(index[u], index[v]) for u, v in g.edges()])


def connected_atlas() -> list[SimpleGraph]:
    """All connected graphs with at most 7 vertices, one per isomorphism type."""
    out = [to_simple(g) for g in nx.graph_atlas_g()
           if g.number_of_nodes() >= 1 and nx.is_connected(g)]
    assert len(out) == 996
    return out


def profile_key(G: SimpleGraph):
    levels = range(min(3, G.vertex_count) + 1)
    return (G.vertex_count,) + tuple(theta(G, j).entries for j in levels)


def random_connected(rng: random.Random, n: int) -> SimpleGraph:
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[rng.randrange(i)])))
             for i in range(1, n)}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.3:
                edges.add((u, v))
    return SimpleGraph.from_edges(n, sorted(edges))


def test_criterion_01():
    X = standard_complex("simplex", 2)
    eps = Colouring.from_string("100")
    assert horizontal_homology(X, eps) == {(0, 0): 1}
    assert diagonal_homology(X, eps) == {(0, 1): 1}
    assert best_of(lambda: horizontal_homology(X, eps)) < 0.001
    assert best_of(lambda: diagonal_homology(X, eps)) < 0.001


def test_criterion_02():
    X = standard_complex("simplex", 3)
    eps = Colouring.from_string("1010")
    assert horizontal_homology(X, eps) == {(0, 0): 1}
    assert best_of(lambda: horizontal_homology(X, eps)) < 0.001


def test_criterion_03(suite):
    for name, X in suite:
        m = X.vertex_count
        for bits in range(1 << m):
            # both differentials square to zero and anticommute
            check_split_boundaries(map(vertices_of, X.simplices),
                                   Colouring(bits, m).black_vertices())
        black = horizontal_homology(X, Colouring((1 << m) - 1, m))
        assert black == {(d, 0): r for d, r in simplicial_homology(X).items()}
        white = horizontal_homology(X, Colouring(0, m))
        assert white == {(d, d + 1): f for d, f in enumerate(f_vector(X))}


def test_criterion_04(suite):
    dalmatian_cases = 0
    for name, X in suite:
        m = X.vertex_count
        for bits in range(1 << m):
            eps = Colouring(bits, m)
            report = verify_morse(X, eps)
            if bits == 0:
                # the empty colouring is excluded by definition even though
                # its (empty) matching is vacuously acyclic
                assert not is_dalmatian(X, eps)
                continue
            assert is_dalmatian(X, eps) == (report.is_matching
                                            and report.is_acyclic)
            if not is_dalmatian(X, eps):
                continue
            dalmatian_cases += 1
            hh = horizontal_homology(X, eps)
            assert dalmatian_closed_form(X, eps).ranks == hh
            profile = Counter(
                (dim_of(c), weight(c, eps)) for c in report.critical_cells)
            assert dict(profile) == hh
    assert dalmatian_cases > 50


def test_criterion_05(suite):
    for name, X in suite:
        m = X.vertex_count
        for bits in range(1 << m):
            eps = Colouring(bits, m)
            parts = elementary_decomposition(X, eps)
            union: set = set()
            for v, part in parts.items():
                assert all(s ^ t == 1 << v for s, t in part)
                assert not (union & part)
                union |= part
            assert union == set(induced_subgraph(X, eps))
    for reg, want, by_dim in [
            ("torus_min", {(0, 0): 1, (1, 2): 9, (2, 3): 8}, (1, 9, 8)),
            ("rp2_min", {(0, 0): 1, (1, 2): 5, (2, 3): 5}, (1, 5, 5))]:
        X = standard_complex(reg)
        for v in range(X.vertex_count):
            eps = Colouring.elementary(X.vertex_count, v)
            form = dalmatian_closed_form(X, eps)
            assert form.ranks == want
            counts: Counter = Counter()
            for (i, k), r in form.ranks.items():
                counts[i] += r
            assert tuple(counts[i] for i in range(3)) == by_dim


def test_criterion_06(suite):
    fig8 = dict(suite)["fig8"]
    report = iterated_dalmatian(fig8, [{1}, {3}])
    cells = sorted(vertices_of(c) for c in report.critical_cells)
    assert cells == [(0, 4), (1,), (2, 3), (2, 3, 5), (3,), (3, 5)]
    by_dim = Counter(len(c) - 1 for c in cells)
    assert dict(by_dim) == {0: 2, 1: 3, 2: 1}


def test_criterion_07(planes):
    t0 = time.perf_counter()
    small = ["triangle", "square", "path2", "star3", "diamond"]
    assert all(planes[name].graph.edge_count <= 5 for name in small)
    for name in small:
        out = theorem42_verify(planes[name])
        assert out["all_equal"] is True, name
        assert out["level0_matches_subdivision"] is True, name
    tri = theorem42_verify(planes["triangle"])
    assert tri["partition"] == (3, 2, 3)
    assert tri["levels"][0]["lhs"] == {0: 1, 1: 2}
    assert tri["levels"][2]["lhs"] == {2: 6}
    assert time.perf_counter() - t0 < 60


def test_criterion_08():
    t0 = time.perf_counter()
    prism = prism_graph(3)
    k33 = graph("complete_bipartite", 3, 3)
    tp, tk = theta(prism, 2), theta(k33, 2)
    assert tp.signature_counts == PRISM_LEVEL2_SIGNATURES
    assert tk.signature_counts == K33_LEVEL2_SIGNATURES
    for level in (tp, tk):
        assert sum(count for _, count in level.signature_counts) == comb(6, 2)
        assert level.aggregated == CUBIC6_LEVEL2_AGGREGATED
        # every colouring preserves the chain-level Euler characteristic
        # V - E = -3, so the 15 colourings must total -45
        assert sum((-1) ** i * r for _, i, _, r in level.entries) == -45
    assert dissimilarity(prism, k33) == Fraction(2, 3)  # first differing at level 2 of 6
    assert time.perf_counter() - t0 < 5


def test_criterion_09():
    t0 = time.perf_counter()
    assert uber_homology(standard_complex("simplex", 1)) == {
        (0, 0, 1): 2, (0, 1, 2): 1, (1, 0, 0): 1}
    for n in (2, 3, 4):
        want = {(0, k, k + 1): comb(n + 1, k + 1) for k in range(n + 1)}
        want[(1, 0, 0)] = 1
        assert uber_homology(standard_complex("simplex", n)) == want
    assert uber_homology(standard_complex("boundary", 2)) == {
        (0, 0, 1): 3, (1, 0, 0): 1, (2, 1, 1): 3, (3, 1, 0): 1}
    assert uber_homology(standard_complex("boundary", 3)) == {
        (0, 0, 1): 4, (0, 1, 2): 6, (1, 0, 0): 1,
        (2, 2, 2): 6, (3, 2, 1): 4, (4, 2, 0): 1}
    # the level-1 class of a sphere sits at bigrading (0, 0); putting it at
    # (n-1, n+1-1) instead is ruled out by the chain-level Euler count of
    # that bigraded tower, computed here without the cube machinery
    X = standard_complex("boundary", 3)
    m = X.vertex_count
    tower: Counter = Counter()
    for bits in range(1 << m):
        eps = Colouring(bits, m)
        r = horizontal_homology(X, eps).get((2, 3), 0)
        if r:
            tower[bits.bit_count()] += r
    assert dict(tower) == {0: 4, 1: 4}
    assert sum((-1) ** j * r for j, r in tower.items()) == 0
    # cycles: degree 0 vanishes for length > 3, top level is F at (1, 0)
    assert uber_homology(standard_complex("cycle", 3)) == {
        (0, 0, 1): 3, (1, 0, 0): 1, (2, 1, 1): 3, (3, 1, 0): 1}
    assert uber_homology(standard_complex("cycle", 4)) == {
        (2, 0, 0): 1, (4, 1, 0): 1}
    assert uber_homology(standard_complex("cycle", 5)) == {
        (3, 0, 0): 1, (5, 1, 0): 1}
    assert uber_homology(standard_complex("cycle", 6)) == {
        (4, 0, 0): 1, (6, 1, 0): 1}
    assert time.perf_counter() - t0 < 120


def test_criterion_10(suite):
    for name, X in suite:
        cube = uber_homology(X)
        slice0 = {(i, k): r for (j, i, k), r in cube.items() if j == 0}
        assert uber_degree0_fast(X) == slice0, name
        sub = barycentric_subdivision(X)
        want = {(0, 1): 1} if name.startswith("simplex") else {}
        assert uber_degree0_fast(sub) == want, name
        for Y in (X, sub):
            if diameter(Y) >= 3:
                assert uber_degree0_fast(Y) == {}, name


def test_criterion_11():
    for X in (standard_complex("boundary", 3), standard_complex("rp2_min")):
        assert uber_top_level(X) == {(2, 0): 1}
        check_top_degree(X)
    # agree with the generic cube on the 4-vertex sphere
    cube = uber_homology(standard_complex("boundary", 3))
    assert {(i, k): r for (j, i, k), r in cube.items() if j == 4} == {(2, 0): 1}
    t0 = time.perf_counter()
    assert uber_top_level(standard_complex("torus_min")) == {(2, 0): 1}
    assert time.perf_counter() - t0 < 120


def test_criterion_12():
    for X in (standard_complex("boundary", 2), standard_complex("cycle", 4)):
        check_cone_suspension(X)
        assert uber_top_level(X) == {(1, 0): 1}
        assert uber_top_level(X.suspension()) == {(2, 0): 1}


def test_criterion_13():
    for m in range(3, 7):
        assert h0_graph(graph("complete", m)) == {1: 1}
        assert h1_0(graph("complete", m)) == {0: m}
    assert h0_graph(graph("path", 2)) == {}
    assert h0_graph(graph("cube", 2)) == {2: 1}
    assert h0_graph(graph("cube", 3)) == {4: 3}
    # the 2x2 grid is the 4-cycle, i.e. the square hypercube, so its class
    # sits at level 2; the published grid column is shifted down by one
    assert dissimilarity(graph("grid", 2, 2), graph("cube", 2)) == 0
    assert h0_graph(graph("grid", 2, 2)) == {2: 1}
    assert h0_graph(graph("grid", 3, 3)) == {6: 1}
    # the square's degree-1 filtration-1 tower has chain ranks 4 and 4 at
    # levels 2 and 3 and nothing else; its homology vanishes (a lone rank-4
    # block at level 2 would break the alternating-sum count below)
    C4 = graph("cycle", 4)
    tower: Counter = Counter()
    for bits in range(16):
        sig = {(i, k): r for i, k, r in closed_form_signature(C4, bits)}
        if sig.get((1, 1)):
            tower[bits.bit_count()] += sig[(1, 1)]
    assert dict(tower) == {2: 4, 3: 4}
    assert sum((-1) ** j * r for j, r in tower.items()) == 0
    assert h1_1(C4) == {}
    cube = uber_homology(graph_as_complex(C4))
    assert {j: r for (j, i, k), r in cube.items() if (i, k) == (1, 1)} == {}


def test_criterion_14():
    for n in range(3, 10):
        for t in nx.nonisomorphic_trees(n):
            assert h0_graph(to_simple(t)) == {}
    # the single-edge graph is the one degenerate exception in both sweeps:
    # its class survives at level 1 (degree 0) and level 0 (degree 2)
    single_edge = graph("path", 1)
    assert h0_graph(single_edge) == {1: 1}
    assert h2_graph(single_edge) == {0: 1}
    cube = uber_homology(graph_as_complex(single_edge))
    assert {j: r for (j, i, k), r in cube.items() if (i, k) == (1, 2)} == {0: 1}
    for m in (2, 3):
        for n in (2, 3):
            assert h0_graph(graph("complete_bipartite", m, n)) == {2: 1}
    # the closed forms of the (0, 1), (1, 1) and (1, 2) towers against the
    # cube engine
    for G in connected_atlas():
        if G.vertex_count >= 3:
            ranks = uber_homology(graph_as_complex(G),
                                  bidegrees={(0, 1), (1, 1), (1, 2)})
            for bidegree, closed_form in (((0, 1), h1_0(G)), ((1, 1), h1_1(G)),
                                          ((1, 2), h2_graph(G))):
                tower = {j: r for (j, i, k), r in ranks.items() if (i, k) == bidegree}
                assert tower == closed_form
            assert h2_graph(G) == {}


def test_criterion_15():
    t0 = time.perf_counter()
    graphs = connected_atlas()
    profiles = {profile_key(G) for G in graphs}
    assert len(profiles) == len(graphs) == 996
    tree_profiles = set()
    tree_count = 0
    for n in range(2, 11):
        for t in nx.nonisomorphic_trees(n):
            tree_profiles.add(profile_key(to_simple(t)))
            tree_count += 1
    assert tree_count == 200
    assert len(tree_profiles) == 200
    assert time.perf_counter() - t0 < 300


def test_criterion_16(suite):
    rng = random.Random(0xACCE97)
    for _ in range(500):
        n = rng.randint(3, 6)
        a, b, c = (random_connected(rng, n) for _ in range(3))
        dab = dissimilarity(a, b)
        dbc = dissimilarity(b, c)
        dac = dissimilarity(a, c)
        assert dac <= dab + dbc
    for _ in range(50):
        G = random_connected(rng, rng.randint(2, 10))
        check_vertex_cover_bijection(G)
    bull = SimpleGraph.from_edges(5, BULL_EDGES)
    maximal = {vertices_of(bits) for bits in maximal_spacious_trees(bull)}
    assert maximal == {(0, 1, 3, 4), (0, 2, 3), (1, 2, 4)}
    for G in (bull, graph("cycle", 5), graph("complete", 4)):
        got = set(spacious_trees(G))
        want = {bits for bits in range(1, 1 << G.vertex_count)
                if is_tree(frozenset(vertices_of(bits)), G.edges)}
        assert got == want
    # relabeling invariance of the theta multisets ...
    for G in (bull, prism_graph(3), random_connected(rng, 7)):
        perm = tuple(rng.sample(range(G.vertex_count), G.vertex_count))
        H = G.permuted(perm)
        for j in range(4):
            assert theta(G, j).entries == theta(H, j).entries
            assert (sorted(theta(G, j).signature_counts)
                    == sorted(theta(H, j).signature_counts))
    # ... and of the trigraded rank dictionary
    for name in ("rp2_min",):
        X = standard_complex(name)
        perm = tuple(rng.sample(range(X.vertex_count), X.vertex_count))
        assert uber_homology(X) == uber_homology(X.permuted(perm))
    fig8 = dict(suite)["fig8"]
    perm = tuple(rng.sample(range(6), 6))
    assert uber_homology(fig8) == uber_homology(fig8.permuted(perm))
