"""The paper's claims as checks, and the constructions only they use.

None of this is needed by the command line or the benchmark.  Each
`check_*` function asserts its claim directly; the rest are the small
complex and graph constructions the checks and the tests build on, and
the Morse oracles (the induced pairs, the dalmatian test and the paper's
closed form) that `verify_morse`'s one scan is compared against.
Complex operations are functions of X here, not methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import networkx as nx

from uberhom import (MAX_VERTICES, Colouring, ColouringMismatch, ComplexError, PlaneGraph,
                     SimpleGraph, SimplicialComplex, dim_of, from_facets, graph_as_complex,
                     horizontal_homology, mask_of, matching_complex_of_edges,
                     simplicial_homology, standard_complex, tait_colouring,
                     uber_degree0_fast, uber_top_level, vertices_of)
from uberhom.morse import Edge, MorseReport
from uberhom.planar import TaitGraph
from uberhom.uber import star_intersection

# ---------------------------------------------------------------------------
# complexes


def checked_complex(m: int, simplices) -> SimplicialComplex:
    """The complex on vertices 0..m-1 with these simplices, asserting what
    every builder guarantees by construction: 1 <= m <= 64, no empty
    simplex, no vertex outside the universe, and closure under faces (which
    need only be checked one codimension down)."""
    simplices = frozenset(simplices)
    assert 1 <= m <= MAX_VERTICES, f"vertex count {m} outside 1..{MAX_VERTICES}"
    for s in simplices:
        assert s, "the empty simplex is not stored"
        assert not s >> m, f"simplex {s:#b} uses a vertex outside the universe"
        for v in vertices_of(s):
            face = s ^ 1 << v
            assert not face or face in simplices, f"simplex {s:#b} misses its face {face:#b}"
    return SimplicialComplex(m, simplices)


def _path(n: int) -> SimplicialComplex:
    if n < 1:
        raise ComplexError("path needs at least 1 edge")
    return from_facets(n + 1, [(i, i + 1) for i in range(n)])


def _grid(rows: int, cols: int) -> SimplicialComplex:
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ComplexError("grid needs at least 2 vertices")
    edges = []
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                edges.append((i * cols + j, i * cols + j + 1))
            if i + 1 < rows:
                edges.append((i * cols + j, (i + 1) * cols + j))
    return from_facets(rows * cols, edges)


def _cube(n: int) -> SimplicialComplex:
    if n < 1:
        raise ComplexError("cube needs dimension at least 1")
    edges = [(x, x | (1 << b)) for x in range(1 << n)
             for b in range(n) if not x >> b & 1]
    return from_facets(1 << n, edges)


def _complete(m: int) -> SimplicialComplex:
    if m < 2:
        raise ComplexError("complete graph needs at least 2 vertices")
    return from_facets(m, combinations(range(m), 2))


def _complete_bipartite(a: int, b: int) -> SimplicialComplex:
    if a < 1 or b < 1:
        raise ComplexError("bipartite parts must be nonempty")
    return from_facets(a + b, [(i, a + j) for i in range(a) for j in range(b)])


_TEST_SHAPES = {"path": _path, "grid": _grid, "cube": _cube, "complete": _complete,
                "complete_bipartite": _complete_bipartite}


def shape(name: str, *params: int) -> SimplicialComplex:
    """`standard_complex(name, *params)`, or one of the graph shapes only the
    tests build: path, grid, cube, complete or complete_bipartite."""
    if name in _TEST_SHAPES:
        return _TEST_SHAPES[name](*params)
    return standard_complex(name, *params)


def by_dim(X: SimplicialComplex) -> dict[int, tuple[int, ...]]:
    """Simplices grouped by dimension ascending, masks ascending in a group."""
    groups: dict[int, list[int]] = {}
    for s in sorted(X.simplices):
        groups.setdefault(dim_of(s), []).append(s)
    return {d: tuple(groups[d]) for d in sorted(groups)}


def dimension(X: SimplicialComplex) -> int:
    """Largest simplex dimension; -1 for the void complex."""
    return max((dim_of(s) for s in X.simplices), default=-1)


def f_vector(X: SimplicialComplex) -> tuple[int, ...]:
    groups = by_dim(X)
    return tuple(len(groups.get(d, ())) for d in range(dimension(X) + 1))


def euler_characteristic(X: SimplicialComplex) -> int:
    return sum((-1) ** d * n for d, n in enumerate(f_vector(X)))


def star(X: SimplicialComplex, v: int) -> frozenset[int]:
    """Simplices containing v (not a subcomplex)."""
    assert 0 <= v < X.vertex_count, f"vertex {v} outside the universe"
    return frozenset(s for s in X.simplices if s >> v & 1)


def reduced_homology(X: SimplicialComplex) -> dict[int, int]:
    """Reduced simplicial homology ranks: H~_0 = H_0 - 1, and the void
    complex has rank 1 in degree -1."""
    ranks = simplicial_homology(X)
    if not ranks:
        return {-1: 1}
    ranks[0] -= 1
    return {d: r for d, r in ranks.items() if r}


def closed_star(X: SimplicialComplex, v: int) -> SimplicialComplex:
    """Face closure of the star of v: every s with s + v in X."""
    return checked_complex(X.vertex_count,
                           (s for s in X.simplices if s | 1 << v in X.simplices))


def link(X: SimplicialComplex, v: int) -> SimplicialComplex:
    """The closed star without the star; may be void, keeps the universe."""
    return checked_complex(X.vertex_count, closed_star(X, v).simplices - star(X, v))


def delete_star(X: SimplicialComplex, v: int) -> SimplicialComplex:
    """The simplices avoiding v, with the vertices above v shifted down."""
    assert X.vertex_count > 1, "cannot delete the only vertex"
    low = (1 << v) - 1
    return checked_complex(X.vertex_count - 1, (
        s & low | s >> 1 & ~low for s in X.simplices if not s >> v & 1))


def cone(X: SimplicialComplex) -> SimplicialComplex:
    """Join with one new apex, the highest index."""
    apex = 1 << X.vertex_count
    return checked_complex(X.vertex_count + 1,
                           X.simplices | {apex} | {s | apex for s in X.simplices})


def barycentric_subdivision(X: SimplicialComplex) -> SimplicialComplex:
    """New vertices are the simplices of X in (dimension, vertex list) order;
    new simplices are the chains under inclusion."""
    order = sorted(X.simplices, key=lambda s: (dim_of(s), vertices_of(s)))
    chains: dict[int, list[int]] = {}  # s -> the chains whose top is s
    for i, s in enumerate(order):
        chains[s] = [1 << i]
        t = (s - 1) & s
        while t:
            if t in X.simplices:
                chains[s] += [c | 1 << i for c in chains[t]]
            t = (t - 1) & s
    return checked_complex(len(order), (c for cs in chains.values() for c in cs))


def skeleton(X: SimplicialComplex) -> SimpleGraph:
    """The 1-skeleton of X, on its whole vertex universe."""
    return SimpleGraph.from_edges(X.vertex_count, map(vertices_of, by_dim(X).get(1, ())))


def is_connected(X: SimplicialComplex) -> bool:
    return skeleton(X).is_connected


def diameter(X: SimplicialComplex) -> int:
    """Largest distance between two vertices of the 1-skeleton."""
    assert is_connected(X), "diameter needs a connected complex"
    return nx.diameter(to_networkx(skeleton(X)))


# ---------------------------------------------------------------------------
# colourings


def weight(sigma: int, eps: Colouring) -> int:
    """White-vertex count of the simplex: its filtration degree."""
    if sigma >> eps.length:
        raise ColouringMismatch("simplex uses vertices beyond the colouring")
    return (sigma & ~eps.bits).bit_count()


def black_subcomplex(X: SimplicialComplex, eps: Colouring):
    """The simplices whose vertices are all black, or None when there are none."""
    kept = frozenset(s for s in X.simplices if not s & ~eps.bits)
    return checked_complex(X.vertex_count, kept) if kept else None


def flatten(ranks: dict) -> dict[int, int]:
    """Forget the weight grading: sum ranks over k at each dimension."""
    out: dict[int, int] = {}
    for (i, _k), r in ranks.items():
        out[i] = out.get(i, 0) + r
    return out


# ---------------------------------------------------------------------------
# graphs


def graph(name: str, *params: int) -> SimpleGraph:
    """The 1-skeleton of `shape(name, *params)`: complete, cycle, path,
    complete_bipartite, grid or cube."""
    return skeleton(shape(name, *params))


def prism_graph(m: int) -> SimpleGraph:
    """Two m-cycles joined by a perfect matching."""
    return SimpleGraph.from_edges(2 * m, [
        e for i in range(m)
        for e in ((i, (i + 1) % m), (m + i, m + (i + 1) % m), (i, m + i))])


def degree_sequence(G: SimpleGraph) -> tuple[int, ...]:
    """Degrees in decreasing order."""
    return tuple(sorted((a.bit_count() for a in G.adjacency), reverse=True))


def to_networkx(G: SimpleGraph) -> nx.Graph:
    H = nx.empty_graph(G.vertex_count)
    H.add_edges_from(G.edges)
    return H


def girth(G: SimpleGraph) -> int | None:
    """Length of a shortest cycle, or None for a forest."""
    g = nx.girth(to_networkx(G))
    return None if g == float("inf") else g


def min_vertex_cover_size(G: SimpleGraph) -> int:
    """The vertices outside a largest independent set, which is a largest
    clique of the complement."""
    return G.vertex_count - nx.max_weight_clique(nx.complement(to_networkx(G)),
                                                 weight=None)[1]


def delta_lower_bounds(G1: SimpleGraph, G2: SimpleGraph) -> dict:
    """Lower bounds on the dissimilarity, each a Fraction or None: differing
    degree sequences force a difference by level 1, differing girths by the
    smaller girth, differing vertex cover numbers by the smaller cover."""
    assert G1.vertex_count == G2.vertex_count, "lower bounds need equal vertex counts"
    m = G1.vertex_count

    def by_level(a, b, level):
        return None if a == b else Fraction(m - level, m)

    g = (girth(G1), girth(G2))
    c = (min_vertex_cover_size(G1), min_vertex_cover_size(G2))
    return {"degree_seq": by_level(degree_sequence(G1), degree_sequence(G2), 1),
            "girth": by_level(*g, min((x for x in g if x is not None), default=0)),
            "vertex_cover": by_level(*c, min(c))}


def spacious_trees(G: SimpleGraph) -> list[int]:
    """Black sets, ascending, whose horizontal homology has rank 1 at (0, 0)
    and none at (1, 0): the black sets inducing a tree."""
    X, m = graph_as_complex(G), G.vertex_count
    return [bits for bits in range(1 << m)
            if (r := horizontal_homology(X, Colouring(bits, m))).get((0, 0)) == 1
            and (1, 0) not in r]


def maximal_spacious_trees(G: SimpleGraph) -> list[int]:
    """Spacious trees in no larger one."""
    trees = spacious_trees(G)
    return [t for t in trees if not any(u != t and u & t == t for u in trees)]


def dual_graph(P: PlaneGraph) -> PlaneGraph:
    """Plane dual: one vertex per face, one edge per primal edge.  A bridge
    makes a loop and two faces sharing two edges a repeated neighbour, which
    SimpleGraph and PlaneGraph reject."""
    edges = [P.edge_sides(u, v) for u, v in P.graph.edges]
    rotations = tuple(tuple(P.face_of_dart[(v, u)] for u, v in cycle) for cycle in P.faces)
    return PlaneGraph(SimpleGraph.from_edges(P.face_count, edges), rotations)


def tait_matching_complex(T: TaitGraph) -> tuple[SimplicialComplex, Colouring]:
    """Matching complex of the whole overlay, built in full, with its
    half-edge colouring."""
    return matching_complex_of_edges(list(T.overlay_edges)), tait_colouring(T)


# ---------------------------------------------------------------------------
# the paper's checks


def check_top_degree(X: SimplicialComplex):
    """A closed-manifold triangulation: every vertex link has the homology of
    a sphere of dimension dim X - 1, each one-white-vertex colouring splits
    into the link and the deleted star, and the top cube level is a single
    class in bidegree (dim X, 0)."""
    n, m = dimension(X), X.vertex_count
    assert n >= 1 and is_connected(X), "needs a connected complex of dimension >= 1"
    for v in range(m):
        reduced = reduced_homology(link(X, v))
        assert reduced == {n - 1: 1}, f"link of {v} is not a sphere: {reduced}"
        deleted = simplicial_homology(delete_star(X, v))
        assert horizontal_homology(X, Colouring(((1 << m) - 1) ^ 1 << v, m)) == \
            {(n, 1): 1, **{(i, 0): r for i, r in deleted.items()}}, v
    assert uber_top_level(X) == {(n, 0): 1}


def check_cone_suspension(X: SimplicialComplex):
    """The cone kills the top cube level and cones the star intersection; the
    suspension keeps the degree-0 ranks and shifts the top level up one
    dimension."""
    C, S = cone(X), X.suspension()
    apex = 1 << X.vertex_count
    core = star_intersection(X)
    assert uber_top_level(C) == {}
    assert star_intersection(C) == tuple(sorted((*core, *(s | apex for s in core), apex)))
    assert uber_degree0_fast(S) == uber_degree0_fast(X)
    assert uber_top_level(S) == {(i + 1, k): r for (i, k), r in uber_top_level(X).items()}


def check_vertex_cover_bijection(G: SimpleGraph):
    """The weight-2 horizontal homology of a colouring vanishes exactly when
    its black vertices cover every edge."""
    X, m = graph_as_complex(G), G.vertex_count
    for bits in range(1 << m):
        trivial = all(k != 2 for _, k in horizontal_homology(X, Colouring(bits, m)))
        assert trivial == all(bits & mask_of(e) for e in G.edges), bits


def induced_subgraph(X: SimplicialComplex, eps: Colouring) -> frozenset[Edge]:
    """Edges (s, s minus v) for every black vertex v of s, facet nonempty."""
    eps.check_length(X.vertex_count)
    edges = set()
    for s in X.simplices:
        for v in vertices_of(s & eps.bits):
            face = s ^ (1 << v)
            if face:
                edges.add((s, face))
    return frozenset(edges)


def is_dalmatian(X: SimplicialComplex, eps: Colouring) -> bool:
    """Nonzero colouring whose black closed stars are pairwise disjoint."""
    eps.check_length(X.vertex_count)
    if eps.bits == 0:
        return False
    black = eps.black_vertices()
    for s in X.simplices:
        owners = 0
        for v in black:
            if (s | (1 << v)) in X.simplices:
                owners += 1
                if owners > 1:
                    return False
    return True


@dataclass(frozen=True)
class DalmatianForm:
    """Closed-form horizontal homology of a dalmatian colouring."""

    ranks: dict
    generators: tuple[tuple[int, tuple[int, int]], ...]  # (simplex, (i, k))


def dalmatian_closed_form(X: SimplicialComplex, eps: Colouring) -> DalmatianForm:
    """The paper's closed form: one (0,0) generator per black vertex, one
    (d, d+1) generator per simplex outside every black closed star."""
    assert is_dalmatian(X, eps), "colouring is not dalmatian"
    black = eps.black_vertices()
    generators = [(1 << v, (0, 0)) for v in black]
    for s in X.simplices:
        if any((s | (1 << v)) in X.simplices for v in black):
            continue
        d = dim_of(s)
        generators.append((s, (d, d + 1)))
    generators.sort(key=lambda g: (g[1], g[0]))
    ranks: dict = {}
    for _s, bigrading in generators:
        ranks[bigrading] = ranks.get(bigrading, 0) + 1
    return DalmatianForm(ranks, tuple(generators))


def is_matching(edges) -> bool:
    """No simplex lies in two of the (simplex, facet) pairs."""
    seen = set()
    for s, t in edges:
        if s in seen or t in seen:
            return False
        seen.add(s)
        seen.add(t)
    return True


def matching_is_acyclic(X: SimplicialComplex, matching) -> bool:
    """Cycle check on the face poset with matched edges reversed.

    Directed cycles alternate between consecutive dimensions, so each
    (n, n-1) layer is checked independently by topological sort.
    """
    matched = set(matching)
    groups = by_dim(X)
    for n in range(1, dimension(X) + 1):
        upper = groups.get(n, ())
        adjacency: dict[int, list[int]] = {}
        indegree: dict[int, int] = {}
        for node in upper:
            adjacency.setdefault(node, [])
            indegree.setdefault(node, 0)
        for node in groups.get(n - 1, ()):
            adjacency.setdefault(node, [])
            indegree.setdefault(node, 0)
        for s in upper:
            for v in vertices_of(s):
                t = s ^ (1 << v)
                if not t:
                    continue
                if (s, t) in matched:
                    adjacency[t].append(s)
                    indegree[s] += 1
                else:
                    adjacency[s].append(t)
                    indegree[t] += 1
        queue = [node for node, deg in indegree.items() if deg == 0]
        visited = 0
        while queue:
            node = queue.pop()
            visited += 1
            for nxt in adjacency[node]:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    queue.append(nxt)
        if visited != len(indegree):
            return False
    return True


class IteratedMorse(MorseReport):
    """A Morse report that also keeps its matched pairs."""

    def __init__(self, is_matching: bool, is_acyclic: bool,
                 critical_cells: tuple[int, ...], edges: frozenset[Edge]):
        super().__init__(is_matching, is_acyclic, critical_cells)
        self.__dict__.update(edges=edges)


def iterated_dalmatian(X: SimplicialComplex, stages) -> IteratedMorse:
    """Union of stage-wise matchings: a stage pairs each cell with its facet
    dropping a black vertex of the stage, when both are still unmatched.
    Each stage must be dalmatian and avoid the earlier stages' closed stars,
    and together the closed stars must cover every vertex."""
    alive = set(X.simplices)
    edges: set = set()
    earlier = covered = 0
    one_simplices = by_dim(X).get(1, ())
    for stage in stages:
        eps = Colouring(mask_of(stage), X.vertex_count)
        assert is_dalmatian(X, eps), f"stage {stage} is not dalmatian"
        reach = eps.bits
        for e in one_simplices:
            if e & eps.bits:
                reach |= e
        assert not reach & earlier, f"stage {stage} meets an earlier closed star"
        covered |= reach
        matched = {(s, s ^ 1 << v) for s in alive for v in vertices_of(s & eps.bits)
                   if s ^ 1 << v in alive}
        assert is_matching(matched), f"stage {stage}: the pairs are not a matching"
        alive -= {c for pair in matched for c in pair}
        edges |= matched
        earlier |= eps.bits
    assert covered == (1 << X.vertex_count) - 1, "the closed stars miss a vertex"
    criticals = tuple(sorted(alive, key=lambda s: (dim_of(s), s)))
    return IteratedMorse(True, matching_is_acyclic(X, edges), criticals, frozenset(edges))
