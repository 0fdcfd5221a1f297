"""Unit tests for the colour-cube homology."""

import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from math import comb
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uberhom import (
    CapExceeded,
    Colouring,
    ParseError,
    from_facets,
    graph_as_complex,
    h0_graph,
    horizontal_homology,
    mask_of,
    standard_complex,
    uber_degree0_fast,
    uber_homology,
    uber_top_level,
    vertices_of,
    SimpleGraph,
    SimplicialComplex,
)
from uberhom import f2, uber
from uberhom.coloured import BlockHomology, horizontal_homology_with_bases
from uberhom.uber import cube_cap, d_eta_matrix, level_masks, star_intersection

import oracles
from conftest import small_complexes
from oracles import naive_graph_h0
from paper import (check_cone_suspension, check_top_degree, checked_complex, cone, graph, link,
                   shape)

ROOT = Path(__file__).resolve().parent.parent


def small(suite, limit=5):
    return [(name, X) for name, X in suite if X.vertex_count <= limit]


def test_cube_cap_resolution(monkeypatch):
    monkeypatch.delenv("UBERHOM_CAP", raising=False)
    assert cube_cap() == 20
    assert cube_cap(7) == 7
    monkeypatch.setenv("UBERHOM_CAP", "9")
    assert cube_cap() == 9
    assert cube_cap(4) == 4  # explicit override wins
    monkeypatch.setenv("UBERHOM_CAP", "many")
    with pytest.raises(ParseError):
        cube_cap()
    monkeypatch.setenv("UBERHOM_CAP", "-1")
    with pytest.raises(ParseError, match="at least 0"):
        cube_cap()
    assert cube_cap(0) == 0
    with pytest.raises(ParseError, match="at least 0"):
        cube_cap(-3)


def test_cap_enforced(monkeypatch):
    X = standard_complex("simplex", 4)
    with pytest.raises(CapExceeded):
        uber_homology(X, cap=3)
    monkeypatch.setenv("UBERHOM_CAP", "3")
    with pytest.raises(CapExceeded):
        uber_homology(X)
    assert uber_homology(X, cap=10)  # override unblocks


def frozen(mask) -> frozenset:
    return frozenset(vertices_of(mask))


@settings(max_examples=100)
@given(small_complexes())
def test_edge_maps_match_oracle(X):
    """For every colouring, white vertex v and bidegree: deleting v commutes
    with the horizontal boundary on every source basis simplex, and each
    d_eta_matrix column is the class of the chain the oracle keeps, i.e. the
    kept chain is a target cycle that differs from the column's combination
    of target representatives by a target boundary."""
    m = X.vertex_count
    simplices = [frozen(s) for s in X.simplices]
    blocks = {bits: horizontal_homology_with_bases(X, Colouring(bits, m))
              for bits in range(1 << m)}
    boundaries: dict = {}  # (colouring, (i, k)) -> boundary chains into (i, k)

    def is_boundary(chain, bits, bg):
        key = (bits, bg)
        if key not in boundaries:
            black = frozen(bits)
            boundaries[key] = [oracles.horizontal_boundary({t}, black)
                               for t in simplices
                               if len(t) == bg[0] + 2 and len(t - black) == bg[1]]
        gens = boundaries[key]
        coords = sorted(set(chain).union(*gens), key=sorted)
        rows = [[int(c in g) for c in coords] for g in gens]
        return (oracles.gf2_rank(rows + [[int(c in chain) for c in coords]])
                == oracles.gf2_rank(rows))

    for bits, source_blocks in blocks.items():
        black = frozen(bits)
        for v in vertices_of(~bits & ((1 << m) - 1)):
            tbits = bits | 1 << v
            tblack = frozen(tbits)
            for bg, source in source_blocks.items():
                for s in source.basis:
                    chain = {frozen(s)}
                    assert oracles.horizontal_boundary(
                        oracles.d_eta_chain(chain, v), tblack) == \
                        oracles.d_eta_chain(oracles.horizontal_boundary(chain, black), v)
                target = blocks[tbits].get(bg)
                mat = d_eta_matrix(source, target, v)
                assert mat.cols == source.hom.rank
                assert mat.rows == (target.hom.rank if target is not None else 0)
                for rep, col in zip(source.hom.representatives, mat.columns):
                    kept = oracles.d_eta_chain(
                        {frozen(source.basis[p]) for p in vertices_of(rep)}, v)
                    assert not oracles.horizontal_boundary(kept, tblack)
                    image: set = set()
                    for b in vertices_of(col):
                        image ^= {frozen(target.basis[p])
                                  for p in vertices_of(target.hom.representatives[b])}
                    assert is_boundary(kept ^ image, tbits, bg)


def test_edge_map_rejects_a_non_cycle_representative():
    """A representative that is not a cycle keeps a chain that is not a
    target cycle, or one outside an absent target block; either way the edge
    map raises the named engine error, not a bare ValueError or KeyError."""
    X = standard_complex("simplex", 2)
    source = horizontal_homology_with_bases(X, Colouring(0b001, 3))[(1, 1)]
    target = horizontal_homology_with_bases(X, Colouring(0b101, 3))[(1, 1)]
    edge01 = 1 << source.basis.index(0b011)  # its boundary is vertex 1
    forged = BlockHomology(source.basis,
                           f2.homology_at([edge01], [], len(source.basis)))
    for block in (target, None):
        with pytest.raises(AssertionError, match="chain-map law"):
            d_eta_matrix(forged, block, 2)


@settings(max_examples=100)
@given(small_complexes())
def test_representatives_lie_in_one_white_part(X):
    """Every representative lies in one white-part summand: the horizontal
    boundary keeps the white part, so each block is a direct sum over it,
    and the reduced echelon cycle rows never mix summands."""
    m = X.vertex_count
    for bits in range(1 << m):
        for bg, blk in horizontal_homology_with_bases(X, Colouring(bits, m)).items():
            for rep in blk.hom.representatives:
                parts = {blk.basis[p] & ~bits for p in vertices_of(rep)}
                assert len(parts) == 1, (bits, bg, rep)


MIXED_TARGET = from_facets(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 4)])


@pytest.mark.parametrize("X", [
    MIXED_TARGET, standard_complex("cycle", 5), standard_complex("torus_min"),
], ids=["mixed_target", "cycle5", "torus_min"])
def test_each_colouring_gets_its_core_subcomplex(monkeypatch, X):
    """The engine makes one horizontal_homology_with_bases call per
    colouring.  It hands in the simplices of X whose white part W is empty,
    or a face of the star intersection whose summand has at most one black
    cone point, each summand whole.  Every W it leaves out has two, so its
    summand is acyclic there and one level down.  The set is closed under
    dropping a black vertex, all the block homology reads, though it need
    not be face-closed."""
    m = X.vertex_count
    core = {0, *star_intersection(X)}
    calls = record_block_inputs(monkeypatch)
    uber._engine_cube(X)
    assert sorted(bits for bits, _ in calls) == list(range(1 << m))
    for bits, kept in calls:
        summands: dict = {}
        for s in X.simplices:
            if s & ~bits in core:
                summands.setdefault(s & ~bits, set()).add(s)
        assert kept <= set().union(*summands.values()), bits
        for w, summand in summands.items():
            apexes = black_cone_points(X, bits, summand)
            if summand <= kept:
                assert not w or len(apexes) <= 1, (bits, w)
            else:
                assert w and not summand & kept and len(apexes) >= 2, (bits, w)
        for s in kept:
            for b in vertices_of(s & bits):
                assert s == 1 << b or s ^ 1 << b in kept, (bits, s)


def record_block_inputs(monkeypatch) -> list:
    """Patch the engine's block homology to record (colouring mask, simplex
    set) of each call, in the returned list."""
    original = uber.horizontal_homology_with_bases
    calls = []

    def recorder(Y, eps):
        calls.append((eps.bits, Y.simplices))
        return original(Y, eps)

    monkeypatch.setattr(uber, "horizontal_homology_with_bases", recorder)
    return calls


def black_cone_points(X, bits, summand) -> set:
    """Black vertices b with s + b in X for every simplex s of the summand,
    on vertex sets."""
    simplices = {frozen(s) for s in X.simplices}
    return {b for b in frozen(bits) if all(frozen(s) | {b} in simplices for s in summand)}


def test_uber_on_boundary8_prunes_cone_summands(monkeypatch):
    """uber on the boundary of the 8-simplex, the benchmark's largest
    cube_blocks input, still makes one block homology call per colouring,
    on 42,894 simplices in all, against the 261,102 with a core white part:
    at most colourings nearly every core summand is a cone on two black
    vertices."""
    X = standard_complex("boundary", 8)
    core = {0, *star_intersection(X)}
    calls = record_block_inputs(monkeypatch)
    bottom = {(0, i, i + 1): comb(9, i + 1) for i in range(7)}
    top = {(9 - k, 7, k): comb(9, k) for k in range(8)}
    assert uber_homology(X) == {**bottom, (1, 0, 0): 1, **top}
    assert sorted(bits for bits, _ in calls) == list(range(512))
    assert sum(len(kept) for _, kept in calls) == 42_894
    assert sum(1 for bits in range(512) for s in X.simplices if s & ~bits in core) == 261_102


@pytest.mark.parametrize("name, params, handed", [
    ("torus_min", (), 28_288),
    ("boundary", (6,), 36_800),
], ids=["susp_torus_min", "susp_boundary6"])
def test_uber_on_suspensions_prunes_cone_summands(monkeypatch, name, params, handed):
    """On suspensions, the other cube_blocks shape, uber still makes one
    block homology call per colouring, on a pinned number of simplices.
    The simpler rule "leave out W when W ∪ eps is in X" keeps the boundary 8
    count but hands on 29,800 and 70,232 simplices here."""
    X = standard_complex(name, *params).suspension()
    calls = record_block_inputs(monkeypatch)
    uber_homology(X)
    assert sorted(bits for bits, _ in calls) == list(range(512))
    assert sum(len(kept) for _, kept in calls) == handed


@st.composite
def relabelled_complexes(draw):
    """A complex on at most 8 vertices from a drawn seed: up to 5 random
    facets on 1 to 6 vertices, coned one time in three and suspended one
    time in three where that stays within 8 vertices, then relabelled."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    m = rng.randint(1, 6)
    X = from_facets(m, [rng.sample(range(m), rng.randint(1, m))
                        for _ in range(rng.randint(1, 5))])
    if rng.random() < 1 / 3 and X.vertex_count < 8:
        X = cone(X)
    if rng.random() < 1 / 3 and X.vertex_count <= 6:
        X = X.suspension()
    return X.permuted(rng.sample(range(X.vertex_count), X.vertex_count))


@settings(max_examples=40)
@given(relabelled_complexes())
def test_uber_homology_matches_unpruned_engine(X):
    """Leaving out the summands with two black cone points keeps every rank
    of the engine that takes each colouring's homology on all core white
    parts."""
    assert uber_homology(X) == oracles.core_engine_cube(X)


@st.composite
def large_complexes(draw):
    """A complex on 9 to 12 vertices from a drawn seed: 2 to 5 random facets
    of 1 to 4 vertices, coned one time in two, so that its core is not
    empty."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    coned = rng.random() < 0.5
    m = rng.randint(8, 11) if coned else rng.randint(9, 12)
    X = from_facets(m, [rng.sample(range(m), rng.randint(1, 4))
                        for _ in range(rng.randint(2, 5))])
    return cone(X) if coned else X


@settings(max_examples=6)
@given(large_complexes())
def test_identity_checks_on_nine_to_twelve_vertices(X):
    """Above the brute-force oracle's reach, uber_homology's own checks hold,
    and so do both identities recomputed here: the j = 0 slice from the star
    intersection on vertex sets, and for each k the sum of (-1)^(i+j) U_(j,i,k)
    as the sum over colourings of (-1)^j times the signed weight-k simplex
    count (Euler-Poincare per colouring)."""
    m = X.vertex_count
    ranks = uber_homology(X)
    simplices = {frozen(s) for s in X.simplices}
    star = [s for s in simplices if all(s | {v} in simplices for v in range(m))]
    degree0 = Counter((len(s) - 1, len(s)) for s in star)
    assert {(i, k): r for (j, i, k), r in ranks.items() if j == 0} == degree0
    euler = [0] * (m + 1)
    for (j, i, k), r in ranks.items():
        euler[k] += (-1) ** (i + j) * r
    direct = [0] * (m + 1)
    for bits in range(1 << m):
        for s in X.simplices:
            direct[(s & ~bits).bit_count()] += (-1) ** (bits.bit_count() + s.bit_count() - 1)
    assert euler == direct


@settings(max_examples=100)
@given(small_complexes())
def test_uber_homology_matches_naive_oracle(X):
    assert uber_homology(X) == oracles.naive_uber(
        X.vertex_count, [vertices_of(s) for s in X.simplices])


@pytest.mark.parametrize("X, core_sizes", [
    (standard_complex("simplex", 3), {1, 2, 3, 4}),
    (standard_complex("boundary", 4), {1, 2, 3}),
    (cone(standard_complex("cycle", 4)), {1}),
    (standard_complex("torus_min"), {1}),
    (MIXED_TARGET, {1}),
], ids=["simplex3", "boundary4", "cone_cycle4", "torus_min", "mixed_target"])
def test_uber_homology_matches_naive_oracle_on_core_faces(X, core_sizes):
    """Fixed complexes whose nonempty core faces have the given sizes.  In
    mixed_target only vertex 1 is core, and at black set {2, 3, 4} the (1, 1)
    block of X has classes of white parts {0}, {1}, {1}; only the two of
    part {1} lie in the core subcomplex."""
    assert {s.bit_count() for s in star_intersection(X)} == core_sizes
    naive = oracles.naive_uber(X.vertex_count, [vertices_of(s) for s in X.simplices])
    assert uber_homology(X) == uber._engine_cube(X) == naive


def is_graph_route(X) -> bool:
    """uber_homology's test for the black-component route."""
    return (not X.is_void and (1 << X.vertex_count) - 1 not in X.simplices
            and all(s.bit_count() <= 2 for s in X.simplices))


@st.composite
def one_dimensional_complexes(draw):
    """(X, perm) from a drawn seed: a complex of dimension at most 1 on 1 to
    9 vertices, one time in four with one or two of them outside X, whose
    edges are kept at a rate of 0, 1/4, 1/2 or 3/4 (so edgeless,
    disconnected and dense graphs all occur), and a relabelling."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    m = rng.randint(1, 9)
    outside = (set(rng.sample(range(m), rng.randint(1, min(2, m - 1))))
               if m > 1 and rng.random() < 0.25 else set())
    inside = [v for v in range(m) if v not in outside]
    rate = rng.choice((0, 0.25, 0.5, 0.75))
    edges = {1 << u | 1 << v for u in inside for v in inside
             if u < v and rng.random() < rate}
    return checked_complex(m, {1 << v for v in inside} | edges), rng.sample(range(m), m)


@settings(max_examples=80)
@given(one_dimensional_complexes())
def test_graph_route_matches_engine_and_naive_oracle(case):
    """Every nonvoid 1-dimensional X that is not a simplex takes the
    black-component route, with no per-colouring homology; it equals the
    engine, the brute-force oracle (up to 7 vertices, where the oracle is
    fast) and itself under relabelling."""
    X, perm = case
    engine = uber._engine_cube(X)

    def unreachable(Y, eps):
        raise AssertionError("per-colouring homology on the graph route")

    with pytest.MonkeyPatch.context() as patch:
        if is_graph_route(X):
            patch.setattr(uber, "horizontal_homology_with_bases", unreachable)
        route = uber_homology(X)
        assert uber_homology(X.permuted(perm)) == route
    assert route == engine
    if X.vertex_count <= 7:
        assert route == oracles.naive_uber(
            X.vertex_count, [vertices_of(s) for s in X.simplices])


def test_graph_route_on_nine_vertices_matches_naive_oracle():
    """The relabelled wheel on 9 vertices, a hub and an 8-cycle, carries all
    four towers, at the largest size the property test draws."""
    X = from_facets(9, [(0, v) for v in range(1, 9)] + [(v, v % 8 + 1) for v in range(1, 9)])
    X = X.permuted(random.Random(97).sample(range(9), 9))
    assert is_graph_route(X)
    naive = oracles.naive_uber(9, [vertices_of(s) for s in X.simplices])
    assert uber_homology(X) == uber._engine_cube(X) == naive
    assert {(i, k) for _, i, k in naive} == {(0, 0), (1, 0), (0, 1), (1, 1)}


@st.composite
def masked_graphs(draw):
    """(m, edges, bits): a graph on 1 to 10 vertices, its edges kept at a
    drawn rate so that sparse graphs with isolated vertices occur, and a
    vertex mask, 0 included."""
    m = draw(st.integers(1, 10))
    rate = draw(st.sampled_from((0, 0.25, 0.5, 0.75)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    edges = [e for e in itertools.combinations(range(m), 2) if rng.random() < rate]
    return m, edges, draw(st.integers(0, (1 << m) - 1))


@settings(max_examples=300)
@given(masked_graphs())
@example((1, [], 0))
@example((4, [(0, 1), (2, 3)], 0b1101))
def test_components_match_networkx(case):
    """uber._components gives the components of the subgraph induced on bits
    as vertex masks, by lowest vertex, and blackening a white vertex only
    merges them: each component of bits meets exactly one of bits + v."""
    m, edges, bits = case
    adj = SimpleGraph.from_edges(m, edges).adjacency
    g = nx.Graph(edges)
    g.add_nodes_from(range(m))
    expected = [mask_of(c) for c in nx.connected_components(g.subgraph(vertices_of(bits)))]
    comps = uber._components(adj, bits)
    assert comps == sorted(expected, key=lambda c: c & -c)
    for v in vertices_of(~bits & ((1 << m) - 1)):
        grown = uber._components(adj, bits | 1 << v)
        assert all(sum(1 for t in grown if t & s) == 1 for s in comps), v


GRAPH_ROUTE_CASES = {
    "cycle5": standard_complex("cycle", 5),
    "k4": graph_as_complex(graph("complete", 4)),
    "wheel5": from_facets(6, [(0, v) for v in range(1, 6)]
                          + [(v, v % 5 + 1) for v in range(1, 6)]),
    "two_paths": from_facets(6, [(0, 1), (1, 2), (3, 4), (4, 5)]),
    "outside": SimplicialComplex(3, frozenset({0b001, 0b010, 0b011})),
}


@pytest.mark.parametrize("name", sorted(GRAPH_ROUTE_CASES))
def test_graph_route_bidegree_restriction_is_exact(name):
    """For every subset of the four towers a 1-dimensional X can carry,
    restricting uber_homology equals filtering the full result, which the
    engine matches."""
    X = GRAPH_ROUTE_CASES[name]
    assert is_graph_route(X)
    full = uber_homology(X)
    assert full == uber._engine_cube(X)
    towers = [(0, 0), (1, 0), (0, 1), (1, 1)]
    for n in range(len(towers) + 1):
        for subset in itertools.combinations(towers, n):
            expected = {key: r for key, r in full.items() if key[1:] in subset}
            assert uber_homology(X, bidegrees=set(subset)) == expected, subset


def test_uber_on_cycle12_makes_no_block_homology(monkeypatch):
    """uber on the 12-cycle, the benchmark's largest cube_rank input, builds
    no per-colouring homology and no edge-map matrix."""
    def unreachable(*args):
        raise AssertionError("block homology or edge-map matrix on a graph")

    monkeypatch.setattr(uber, "horizontal_homology_with_bases", unreachable)
    monkeypatch.setattr(uber, "d_eta_matrix", unreachable)
    assert uber_homology(standard_complex("cycle", 12)) == {(10, 0, 0): 1, (12, 1, 0): 1}


def test_benchmark_harness_selftest():
    """The benchmark's tracing wraps uber.d_eta_matrix and expects one
    horizontal_homology_with_bases call per colouring; its self-test runs the
    CLI under that tracing, so a change here that breaks it fails."""
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_level_masks():
    assert level_masks(3, 0) == [0]
    assert level_masks(3, 1) == [0b001, 0b010, 0b100]
    assert level_masks(3, 2) == [0b011, 0b101, 0b110]
    assert level_masks(3, 4) == []


def tower_dimensions(X):
    """Level dimensions of every (i, k) tower, computed without the cube
    differential: just per-colouring horizontal homology ranks."""
    m = X.vertex_count
    dims: dict = {}
    for bits in range(1 << m):
        j = bits.bit_count()
        for bg, r in horizontal_homology(X, Colouring(bits, m)).items():
            key = dims.setdefault(bg, {})
            key[j] = key.get(j, 0) + r
    return dims


def assert_tower_euler_identity(X, name=""):
    """Each tower is a finite complex, so its Euler characteristic matches
    the alternating sum of cube homology ranks level by level."""
    uber = uber_homology(X)
    dims = tower_dimensions(X)
    towers = set(dims) | {(i, k) for (_, i, k) in uber}
    for (i, k) in towers:
        lhs = sum((-1) ** j * d for j, d in dims.get((i, k), {}).items())
        rhs = sum((-1) ** j * r for (j, i2, k2), r in uber.items()
                  if (i2, k2) == (i, k))
        assert lhs == rhs, (name, i, k)


def test_tower_euler_identity(suite):
    for name, X in small(suite):
        assert_tower_euler_identity(X, name)


@settings(max_examples=100)
@given(small_complexes())
def test_tower_euler_identity_on_random_complexes(X):
    assert_tower_euler_identity(X)


def test_degree0_fast_path_equals_cube_slice(suite):
    for name, X in small(suite):
        full = uber_homology(X)
        slice0 = {(i, k): r for (j, i, k), r in full.items() if j == 0}
        assert slice0 == uber_degree0_fast(X), name


def test_top_level_equals_cube_slice(suite):
    for name, X in small(suite):
        m = X.vertex_count
        full = uber_homology(X)
        top = {(i, k): r for (j, i, k), r in full.items() if j == m}
        assert top == uber_top_level(X), name


def test_degree0_fast_path_reads_star_intersection():
    X = standard_complex("simplex", 2)
    assert star_intersection(X) == tuple(sorted(X.simplices))
    assert uber_degree0_fast(X) == {(0, 1): 3, (1, 2): 3, (2, 3): 1}
    Y = standard_complex("cycle", 4)
    assert star_intersection(Y) == ()
    assert uber_degree0_fast(Y) == {}


def test_bidegree_restriction_is_exact(suite):
    rng = random.Random(53)
    for name, X in small(suite)[:8]:
        full = uber_homology(X)
        towers = sorted({(i, k) for (_, i, k) in full})
        if not towers:
            continue
        pick = rng.choice(towers)
        restricted = uber_homology(X, bidegrees=[pick])
        assert restricted == {key: r for key, r in full.items()
                              if (key[1], key[2]) == pick}, name


def test_relabeling_invariance(suite):
    rng = random.Random(59)
    for name, X in small(suite)[:10]:
        perm = list(range(X.vertex_count))
        rng.shuffle(perm)
        assert uber_homology(X.permuted(perm)) == uber_homology(X), name


def test_graph_degree0_tower_three_routes():
    """Engine cube slice, the graph-side fast implementation, and the naive
    component-cube oracle must agree on the (0, 0) tower."""
    graphs = [
        graph("path", 3),
        graph("cycle", 4),
        graph("cycle", 5),
        graph("complete", 4),
        graph("complete_bipartite", 2, 3),
        # bull: triangle with two horns
        SimpleGraph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)]),
    ]
    for G in graphs:
        X = graph_as_complex(G)
        cube = uber._engine_cube(X)
        slice00 = {j: r for (j, i, k), r in cube.items() if (i, k) == (0, 0)}
        assert slice00 == h0_graph(G)
        assert slice00 == naive_graph_h0(G.vertex_count, G.edges)


def test_void_complex_has_empty_cube():
    X = standard_complex("simplex", 1)
    void = link(link(X, 0), 1)  # link of a vertex inside the link: void
    assert void.is_void
    assert uber_homology(void) == {}
    assert uber_top_level(void) == {}


def test_topdegree_check_on_spheres():
    for X in (standard_complex("boundary", 2), standard_complex("boundary", 3)):
        check_top_degree(X)


def test_topdegree_check_rejects_nonmanifolds():
    with pytest.raises(AssertionError):
        check_top_degree(standard_complex("simplex", 2))  # links contractible
    two_circles = from_facets(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(AssertionError):
        check_top_degree(two_circles)  # disconnected
    isolated = from_facets(1, [])
    with pytest.raises(AssertionError):
        check_top_degree(isolated)  # dimension 0


def test_cone_suspension_checks_flags(suite):
    for X in (standard_complex("boundary", 2), shape("path", 2),
              standard_complex("simplex", 2)):
        check_cone_suspension(X)


def test_frozen_small_closed_forms():
    # interval: one class at every level of the cube
    assert uber_homology(standard_complex("simplex", 1)) == {
        (0, 0, 1): 2, (0, 1, 2): 1, (1, 0, 0): 1}
    # hollow triangle
    assert uber_homology(standard_complex("boundary", 2)) == {
        (0, 0, 1): 3, (1, 0, 0): 1, (2, 1, 1): 3, (3, 1, 0): 1}
