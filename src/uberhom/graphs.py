"""Simple graphs and their colouring invariants.

Graphs are treated as 1-dimensional complexes for everything homological; the
module adds the graph-only layers on top: the per-level Theta invariant (the
multiset of nonzero horizontal ranks over all colourings with j black
vertices), the dissimilarity measure built from it, matching complexes, and
the four specialised graph homologies with their closed-form shortcuts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from . import f2
from .coloured import Colouring, horizontal_homology
from .complexes import MAX_VERTICES, SimplicialComplex, vertices_of
from .errors import ComplexError, ParseError
from .uber import level_masks, uber_homology


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph on vertices 0..vertex_count-1.

    Edges are stored sorted as (u, v) with u < v; use from_edges to build
    from unnormalized input.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not 1 <= self.vertex_count <= MAX_VERTICES:
            raise ComplexError(f"vertex count {self.vertex_count} out of range")
        seen = set()
        for e in self.edges:
            u, v = e
            if u == v:
                raise ComplexError(f"loop at vertex {u}")
            if not 0 <= u < v < self.vertex_count:
                raise ComplexError(f"edge {e} out of range or not normalized")
            if e in seen:
                raise ComplexError(f"duplicate edge {e}")
            seen.add(e)
        if list(self.edges) != sorted(self.edges):
            raise ComplexError("edges must be listed in sorted order")

    @classmethod
    def from_edges(cls, vertex_count: int, edges) -> "SimpleGraph":
        norm = sorted({(min(u, v), max(u, v)) for u, v in edges})
        return cls(vertex_count, tuple(norm))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """Neighbour bitmask per vertex."""
        adj = [0] * self.vertex_count
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return tuple(adj)

    def neighbours(self, v: int) -> tuple[int, ...]:
        return tuple(vertices_of(self.adjacency[v]))

    def degree(self, v: int) -> int:
        return self.adjacency[v].bit_count()

    @cached_property
    def degree_sequence(self) -> tuple[int, ...]:
        """Degrees in decreasing order."""
        return tuple(sorted((self.degree(v) for v in range(self.vertex_count)),
                            reverse=True))

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adjacency[u] >> v) & 1)

    @cached_property
    def is_connected(self) -> bool:
        full = (1 << self.vertex_count) - 1
        return len(_black_components_with_roots(self.adjacency, full)[0]) == 1

    def permuted(self, perm) -> "SimpleGraph":
        """Relabelled copy; perm maps old vertex ids to new ones."""
        return SimpleGraph.from_edges(
            self.vertex_count, ((perm[u], perm[v]) for u, v in self.edges))


# ---------------------------------------------------------------------------
# graph6 text format


def parse_graph6(text: str) -> SimpleGraph:
    """Decode one graph6 string (optional >>graph6<< header allowed)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ParseError("graph6: empty input")
    data = [ord(c) - 63 for c in s]
    if any(not 0 <= b <= 63 for b in data):
        raise ParseError("graph6: byte out of range")
    if data[0] != 63:
        n, body = data[0], data[1:]
    elif len(data) >= 4 and data[1] != 63:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    elif len(data) >= 8:
        n = 0
        for b in data[2:8]:
            n = (n << 6) | b
        body = data[8:]
    else:
        raise ParseError("graph6: truncated vertex count")
    if n < 1:
        raise ParseError("graph6: graphs need at least one vertex here")
    if n > MAX_VERTICES:
        raise ParseError(f"graph6: {n} vertices exceeds the supported maximum")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise ParseError(f"graph6: expected {need} data bytes, got {len(body)}")
    edges = []
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if (body[pos // 6] >> (5 - pos % 6)) & 1:
                edges.append((i, j))
            pos += 1
    return SimpleGraph.from_edges(n, edges)


def encode_graph6(G: SimpleGraph) -> str:
    """Canonical graph6 encoding of the graph as labelled."""
    n = G.vertex_count
    if n <= 62:
        head = [n]
    elif n <= 258047:
        head = [63, n >> 12, (n >> 6) & 63, n & 63]
    else:
        raise ParseError("graph6: vertex count too large to encode")
    nbits = n * (n - 1) // 2
    body = [0] * ((nbits + 5) // 6)
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if G.has_edge(i, j):
                body[pos // 6] |= 1 << (5 - pos % 6)
            pos += 1
    return "".join(chr(b + 63) for b in head + body)


def graph_as_complex(G: SimpleGraph) -> SimplicialComplex:
    """The graph as a 1-dimensional simplicial complex."""
    if not G.is_connected:
        raise ComplexError("graph must be connected to convert to a complex")
    simplices = {1 << v for v in range(G.vertex_count)}
    simplices.update((1 << u) | (1 << v) for u, v in G.edges)
    return SimplicialComplex(G.vertex_count, frozenset(simplices))


# ---------------------------------------------------------------------------
# matching complexes


def matching_complex_of_edges(endpoints) -> SimplicialComplex:
    """Matching complex of an explicit edge list.

    Vertices are edge indices; a simplex is a set of edges sharing no
    endpoint.  Endpoint labels can be anything hashable, and parallel edges
    are allowed (they simply exclude one another).  The result may be
    disconnected or void; that is fine for the homology machinery.
    """
    n = len(endpoints)
    if n > MAX_VERTICES:
        raise ComplexError(f"{n} edges exceed the supported maximum")
    if n == 0:
        return SimplicialComplex(1, frozenset())
    simplices: list[int] = []
    used: set = set()

    def extend(mask: int, start: int):
        for idx in range(start, n):
            a, b = endpoints[idx]
            if a in used or b in used:
                continue
            grown = mask | (1 << idx)
            simplices.append(grown)
            used.add(a)
            used.add(b)
            extend(grown, idx + 1)
            used.discard(a)
            used.discard(b)

    extend(0, 0)
    return SimplicialComplex(n, frozenset(simplices))


def matching_complex(G: SimpleGraph) -> SimplicialComplex:
    """Matching complex of a simple graph; vertex i is the i-th sorted edge."""
    if not G.edges:
        raise ComplexError("matching complex needs at least one edge")
    return matching_complex_of_edges(list(G.edges))


# ---------------------------------------------------------------------------
# Theta levels and dissimilarity


def _black_components_with_roots(adj, bits: int):
    """Component roots (minimum vertex, ascending) of the subgraph induced on
    bits, and the per-vertex root lookup."""
    roots: list[int] = []
    root: dict[int, int] = {}
    for v in vertices_of(bits):
        if v in root:
            continue
        roots.append(v)
        root[v] = v
        frontier = 1 << v
        seen = frontier
        while frontier:
            nxt = 0
            for u in vertices_of(frontier):
                nxt |= adj[u] & bits
            frontier = nxt & ~seen
            seen |= frontier
            for w in vertices_of(frontier):
                root[w] = v
    return roots, root


def closed_form_signature(G: SimpleGraph, bits: int) -> tuple:
    """Nonzero (i, k, rank) entries of the horizontal homology of a graph,
    computed from counts alone, sorted descending.

    Ranks: (0,0) black components; (1,0) black cyclomatic number; (0,1) white
    vertices with no black neighbour; (1,1) mixed edges minus their distinct
    white endpoints; (1,2) all-white edges.  The counts are exact for every
    graph, connected or not, and every colouring: tests/test_graphs.py checks
    them against the matrix homology on whole cubes
    (test_closed_form_signature_is_exact) and against the brute-force oracle
    on random graphs (test_closed_form_signature_matches_oracle).
    """
    adj = G.adjacency
    comps = len(_black_components_with_roots(adj, bits)[0])
    bb = bw = ww = 0
    for u, v in G.edges:
        black_ends = ((bits >> u) & 1) + ((bits >> v) & 1)
        if black_ends == 2:
            bb += 1
        elif black_ends == 1:
            bw += 1
        else:
            ww += 1
    white = ~bits & ((1 << G.vertex_count) - 1)
    v_wb = sum(1 for w in vertices_of(white) if adj[w] & bits)
    v_ww = white.bit_count() - v_wb
    cyclomatic = bb - (bits.bit_count() - comps)
    entries = [(1, 2, ww), (1, 1, bw - v_wb), (1, 0, cyclomatic),
               (0, 1, v_ww), (0, 0, comps)]
    return tuple(sorted(((i, k, r) for i, k, r in entries if r), reverse=True))


@dataclass(frozen=True)
class ThetaLevel:
    """Level-j Theta invariant of a graph.

    entries pools the nonzero (j, i, k, rank) tuples of every weight-j
    colouring, with repetition, in descending lexicographic order; this
    multiset is the invariant that dissimilarity compares.  signature_counts
    retains the per-colouring grouping for reporting and does not take part
    in equality.
    """

    j: int
    entries: tuple[tuple[int, int, int, int], ...]
    signature_counts: tuple = field(compare=False)

    @property
    def aggregated(self) -> tuple[tuple[int, int, int, int], ...]:
        """One tuple per (j, i, k) with the ranks summed over colourings."""
        totals: dict = {}
        for j, i, k, r in self.entries:
            totals[(j, i, k)] = totals.get((j, i, k), 0) + r
        return tuple(sorted((key + (r,) for key, r in totals.items()),
                            reverse=True))


def theta(G: SimpleGraph, j: int) -> ThetaLevel:
    """Theta invariant at level j (j black vertices).

    Every colouring's signature comes from closed_form_signature, so no
    homology is computed.  Levels 2 and up keep graph_as_complex's contract
    and raise ComplexError on a disconnected graph, although the counts hold
    for disconnected graphs too.
    """
    m = G.vertex_count
    if not 0 <= j <= m:
        raise ComplexError(f"level {j} out of range for {m} vertices")
    if j >= 2 and not G.is_connected:
        raise ComplexError("graph must be connected to convert to a complex")
    signatures = [closed_form_signature(G, mask) for mask in level_masks(m, j)]
    entries = tuple(sorted(
        ((j, i, k, r) for sig in signatures for i, k, r in sig), reverse=True))
    counts = Counter(signatures)
    return ThetaLevel(j, entries, tuple(sorted(counts.items(), reverse=True)))


def theta_profile(G: SimpleGraph, max_level: int) -> tuple:
    """entries of every Theta level up to max_level (clamped to the vertex
    count); a cheap fingerprint for census work."""
    top = min(max_level, G.vertex_count)
    return tuple(theta(G, j).entries for j in range(top + 1))


@dataclass(frozen=True)
class Dissimilarity:
    """Result of comparing two graphs level by level.

    value is 1 - j*/m for the first differing level j*, 0 when every level
    agrees (theta_equivalent set), and None when the vertex counts differ
    (the infinite marker).
    """

    value: Fraction | None
    first_differing_level: int | None
    theta_equivalent: bool

    @property
    def infinite(self) -> bool:
        return self.value is None


def dissimilarity(G1: SimpleGraph, G2: SimpleGraph) -> Dissimilarity:
    """Compare Theta levels lazily, stopping at the first difference."""
    if G1.vertex_count != G2.vertex_count:
        return Dissimilarity(None, None, False)
    m = G1.vertex_count
    for j in range(m + 1):
        if theta(G1, j).entries != theta(G2, j).entries:
            return Dissimilarity(Fraction(m - j, m), j, False)
    return Dissimilarity(Fraction(0), None, True)


def girth(G: SimpleGraph) -> int | None:
    """Length of a shortest cycle, or None for a forest."""
    best = None
    for start in range(G.vertex_count):
        dist = {start: 0}
        parent = {start: -1}
        queue = [start]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for w in vertices_of(G.adjacency[u]):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    length = dist[u] + dist[w] + 1
                    if best is None or length < best:
                        best = length
    return best


def min_vertex_cover_size(G: SimpleGraph) -> int:
    """Minimum vertex cover size by exhaustive search (small graphs only)."""
    for size in range(G.vertex_count + 1):
        for combo in combinations(range(G.vertex_count), size):
            bits = 0
            for v in combo:
                bits |= 1 << v
            if all(bits & ((1 << u) | (1 << v)) for u, v in G.edges):
                return size
    raise AssertionError("unreachable: the full vertex set covers everything")


def delta_lower_bounds(G1: SimpleGraph, G2: SimpleGraph) -> dict:
    """Applicable dissimilarity lower bounds, each a Fraction or None.

    Degree sequences differing force a difference by level 1; differing
    girths force one by the smaller girth; differing vertex cover numbers by
    the smaller cover size.
    """
    if G1.vertex_count != G2.vertex_count:
        raise ComplexError("lower bounds need equal vertex counts")
    m = G1.vertex_count
    bounds: dict = {"degree_seq": None, "girth": None, "vertex_cover": None}
    if G1.degree_sequence != G2.degree_sequence:
        bounds["degree_seq"] = Fraction(m - 1, m)
    g1, g2 = girth(G1), girth(G2)
    if g1 != g2:
        smaller = min(g for g in (g1, g2) if g is not None)
        bounds["girth"] = Fraction(m - smaller, m)
    c1, c2 = min_vertex_cover_size(G1), min_vertex_cover_size(G2)
    if c1 != c2:
        bounds["vertex_cover"] = Fraction(m - min(c1, c2), m)
    return bounds


def vertex_cover_bijection_check(G: SimpleGraph) -> bool:
    """Exhaustively check: the weight-2 horizontal homology vanishes exactly
    when the black vertices cover every edge."""
    m = G.vertex_count
    if m > 16:
        raise ComplexError("exhaustive cover check is limited to 16 vertices")
    X = graph_as_complex(G)
    for bits in range(1 << m):
        ranks = horizontal_homology(X, Colouring(bits, m))
        weight2_trivial = not any(k == 2 for (_, k) in ranks)
        is_cover = all(bits & ((1 << u) | (1 << v)) for u, v in G.edges)
        if weight2_trivial != is_cover:
            return False
    return True


def _black_is_tree(G: SimpleGraph, bits: int) -> bool:
    if not bits:
        return False
    adj = G.adjacency
    roots, _ = _black_components_with_roots(adj, bits)
    bb_edges = sum((adj[v] & bits).bit_count() for v in vertices_of(bits)) // 2
    return len(roots) == 1 and bb_edges == bits.bit_count() - 1


def spacious_trees(G: SimpleGraph) -> list[Colouring]:
    """Colourings whose induced black subgraph is a tree.

    Enumerated two ways: directly on the graph side, and through the
    homology conditions rank(0,0) = 1 and rank(1,0) = 0; the routes must
    agree, and the matched colourings are returned in ascending bit order.
    """
    m = G.vertex_count
    if m > 16:
        raise ComplexError("tree enumeration is limited to 16 vertices")
    X = graph_as_complex(G)
    out = []
    for bits in range(1 << m):
        ranks = horizontal_homology(X, Colouring(bits, m))
        hom_side = ranks.get((0, 0), 0) == 1 and ranks.get((1, 0), 0) == 0
        if hom_side != _black_is_tree(G, bits):
            raise AssertionError("tree/homology bijection failed")
        if hom_side:
            out.append(Colouring(bits, m))
    return out


def maximal_spacious_trees(G: SimpleGraph) -> list[Colouring]:
    """Spacious trees not contained in a larger one (by vertex set)."""
    all_trees = spacious_trees(G)
    masks = [c.bits for c in all_trees]
    return [c for c in all_trees
            if not any(other != c.bits and other & c.bits == c.bits
                       for other in masks)]


# ---------------------------------------------------------------------------
# specialised graph homologies


def h0_graph(G: SimpleGraph) -> dict[int, int]:
    """Degree-(0,0) cube homology {j: rank} via black components.

    The weight-0 horizontal homology of a colouring is spanned by the
    components of the black subgraph, and the cube maps send a component to
    the component swallowing it one level up; no matrices over simplices are
    ever formed.
    """
    if not G.is_connected:
        raise ComplexError("graph homologies need a connected graph")
    m = G.vertex_count
    adj = G.adjacency
    result: dict[int, int] = {}
    prev_rank = 0
    cur = {mask: _black_components_with_roots(adj, mask)
           for mask in level_masks(m, 0)}
    for j in range(m + 1):
        nxt = ({mask: _black_components_with_roots(adj, mask)
                for mask in level_masks(m, j + 1)} if j < m else {})
        offsets = {}
        total = 0
        for mask in sorted(nxt):
            offsets[mask] = total
            total += len(nxt[mask][0])
        columns = []
        full = (1 << m) - 1
        for mask in sorted(cur):
            roots, _ = cur[mask]
            for r in roots:
                col = 0
                for v in vertices_of(~mask & full):
                    tmask = mask | (1 << v)
                    troots, troot = nxt[tmask]
                    col ^= 1 << (offsets[tmask] + troots.index(troot[r]))
                columns.append(col)
        dim = sum(len(roots) for roots, _ in cur.values())
        rank = f2.rank_of(columns) if j < m else 0
        h = dim - rank - prev_rank
        if h < 0:
            raise AssertionError("cube differential ranks exceed the level dimension")
        if h:
            result[j] = h
        prev_rank = rank
        cur = nxt
    return result


def _uber_bidegree(G: SimpleGraph, bidegree: tuple[int, int]) -> dict[int, int]:
    if not G.is_connected:
        raise ComplexError("graph homologies need a connected graph")
    ranks = uber_homology(graph_as_complex(G), bidegrees={bidegree})
    return {j: r for (j, _, _), r in ranks.items()}


def h1_0(G: SimpleGraph) -> dict[int, int]:
    """Cube homology restricted to bidegree (0, 1), graded by level."""
    return _uber_bidegree(G, (0, 1))


def h1_1(G: SimpleGraph) -> dict[int, int]:
    """Cube homology restricted to bidegree (1, 1), graded by level."""
    return _uber_bidegree(G, (1, 1))


def h2_graph(G: SimpleGraph) -> dict[int, int]:
    """Cube homology restricted to bidegree (1, 2), graded by level."""
    return _uber_bidegree(G, (1, 2))


# ---------------------------------------------------------------------------
# small standard graphs


def complete_graph(m: int) -> SimpleGraph:
    return SimpleGraph.from_edges(m, combinations(range(m), 2))


def cycle_graph(m: int) -> SimpleGraph:
    if m < 3:
        raise ComplexError("cycles need at least three vertices")
    return SimpleGraph.from_edges(m, ((i, (i + 1) % m) for i in range(m)))


def path_graph(edges: int) -> SimpleGraph:
    if edges < 1:
        raise ComplexError("paths need at least one edge")
    return SimpleGraph.from_edges(edges + 1, ((i, i + 1) for i in range(edges)))


def complete_bipartite_graph(a: int, b: int) -> SimpleGraph:
    return SimpleGraph.from_edges(
        a + b, ((i, a + j) for i in range(a) for j in range(b)))


def grid_graph(rows: int, cols: int) -> SimpleGraph:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return SimpleGraph.from_edges(rows * cols, edges)


def hypercube_graph(n: int) -> SimpleGraph:
    verts = 1 << n
    edges = [(v, v ^ (1 << b)) for v in range(verts) for b in range(n)
             if v < v ^ (1 << b)]
    return SimpleGraph.from_edges(verts, edges)


def prism_graph(m: int) -> SimpleGraph:
    """Two m-cycles joined by a perfect matching."""
    base = [(i, (i + 1) % m) for i in range(m)]
    top = [(m + i, m + (i + 1) % m) for i in range(m)]
    rungs = [(i, m + i) for i in range(m)]
    return SimpleGraph.from_edges(2 * m, base + top + rungs)
