"""Simple graphs and their colouring invariants.

Graphs are treated as 1-dimensional complexes for everything homological; the
module adds the graph-only layers on top: the per-level Theta invariant (the
multiset of nonzero horizontal ranks over all colourings with j black
vertices), corpus dissimilarity by level-wise refinement, matching complexes,
and the four graph homologies (h0 from `uber_homology`, the rest closed form).
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import count
from math import comb

from ._value import Value
from .complexes import (MAX_INPUT_FACES, MAX_VERTICES, SimplicialComplex, from_facets,
                        vertices_of)
from .errors import CapExceeded, ComplexError, ParseError
from .uber import _check_cap, _components, _dominating_vertices, level_masks, uber_homology


class SimpleGraph(Value):
    """Undirected simple graph on vertices 0..vertex_count-1.

    Edges are stored sorted as (u, v) with u < v; use from_edges to build
    from unnormalized input.
    """

    def __init__(self, vertex_count: int, edges: tuple[tuple[int, int], ...]):
        self.__dict__.update(vertex_count=vertex_count, edges=edges)
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

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adjacency[u] >> v) & 1)

    @cached_property
    def is_connected(self) -> bool:
        full = (1 << self.vertex_count) - 1
        return _components(self.adjacency, full) == [full]

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
    n = G.vertex_count  # at most MAX_VERTICES, so four header bytes always suffice
    head = [n] if n <= 62 else [63, n >> 12, (n >> 6) & 63, n & 63]
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
    return from_facets(G.vertex_count, G.edges)


# ---------------------------------------------------------------------------
# matching complexes


def matching_blocks(endpoints, part: int,
                    limit: int | None = None) -> dict[tuple[int, int], list[int]]:
    """The nonempty matchings of an edge list, as masks of edge indices, filed
    under (dimension, mask & part), each block in the order of an ascending
    search.  Endpoints can be any hashable labels; parallel edges simply
    exclude one another.

    A matching is W | s, with W a matching of the part edges and s one of
    the other edges that clash with none of W: W's free set.  Which s exist
    depends on that set alone, so the part edges are searched first, their
    matchings grouped by free set, and each free set is searched once; with
    part 0 that is one search of every edge.  More than limit matchings, when
    one is given, raise CapExceeded as soon as the search reaches them: a
    free set's matchings count once per W in its group."""
    n = len(endpoints)
    if n > MAX_VERTICES:
        raise ComplexError(f"{n} edges exceed the supported maximum")
    # clash[1 << i] has bit j set when edges i and j share an endpoint, and bit i
    at: dict = {}
    for idx, (a, b) in enumerate(endpoints):
        at[a] = at.get(a, 0) | 1 << idx
        at[b] = at.get(b, 0) | 1 << idx
    clash = {1 << idx: at[a] | at[b] for idx, (a, b) in enumerate(endpoints)}
    every = (1 << n) - 1
    part &= every
    budget = 1 << n if limit is None else limit  # n edges have fewer than 2^n matchings

    def search(free: int, copies: int) -> list[list[int]]:
        """The nonempty matchings inside free, by dimension, each charged
        copies times against the budget."""
        levels: list[list[int]] = []

        def extend(mask: int, free: int, depth: int):
            # free holds the edges above mask's last one that clash with none
            # of it; each of its bits files one matching
            nonlocal budget
            budget -= copies * free.bit_count()
            if budget < 0:
                raise CapExceeded(f"the graph has more than {limit} matchings; "
                                  f"{limit} is the limit for a matching complex")
            if depth == len(levels):
                levels.append([])
            files = levels[depth]
            while free:
                bit = free & -free
                free ^= bit
                grown = mask | bit
                files.append(grown)
                if rest := free & ~clash[bit]:
                    extend(grown, rest, depth + 1)

        if free:
            extend(0, free, 0)
        return levels

    # W's free set is its prefix's, less what W's highest edge clashes with
    left = {0: every ^ part}
    groups: dict[int, list[int]] = {left[0]: [0]}
    for whites in search(part, 1):
        for W in whites:
            top = 1 << W.bit_length() - 1
            left[W] = free = left[W ^ top] & ~clash[top]
            groups.setdefault(free, []).append(W)
    blocks: dict[tuple[int, int], list[int]] = {}
    for free, whites in groups.items():
        levels = search(free, len(whites))  # one group's lists at a time
        for W in whites:
            k = W.bit_count()
            if W:
                blocks[(k - 1, W)] = [W]
            for d, found in enumerate(levels):
                blocks[(k + d, W)] = [W | s for s in found] if W else found
    return blocks


def matching_complex_of_edges(endpoints) -> SimplicialComplex:
    """Matching complex of an explicit edge list (see matching_blocks), on the
    edge indices; it may be disconnected or void."""
    blocks = matching_blocks(endpoints, 0)
    # every subset of a matching is a matching, so the set is face-closed
    return SimplicialComplex(max(len(endpoints), 1), frozenset().union(*blocks.values()))


def matching_complex(G: SimpleGraph) -> SimplicialComplex:
    """Matching complex of a simple graph; vertex i is the i-th sorted edge.
    More matchings than an input complex may have faces raise CapExceeded."""
    if not G.edges:
        raise ComplexError("matching complex needs at least one edge")
    blocks = matching_blocks(list(G.edges), 0, MAX_INPUT_FACES)
    return SimplicialComplex(len(G.edges), frozenset().union(*blocks.values()))


# ---------------------------------------------------------------------------
# Theta levels and dissimilarity


def closed_form_signature(G: SimpleGraph, bits: int) -> tuple:
    """Nonzero (i, k, rank) entries of the horizontal homology of a graph,
    computed from counts alone, sorted descending.

    Ranks: (0,0) black components; (1,0) black cyclomatic number; (0,1) white
    vertices with no black neighbour; (1,1) mixed edges minus their distinct
    white endpoints; (1,2) all-white edges.  They are read off neighbour
    masks, with no pass over the edges: the components from uber._components,
    the black edges as half the black vertices' black neighbours, the mixed
    edges as the rest of their degrees, the white edges as what is left.
    The counts are exact for every graph, connected or not, and every
    colouring: tests/test_graphs.py checks them against the matrix homology
    on whole cubes (test_closed_form_signature_is_exact) and against the
    brute-force oracle on random graphs
    (test_closed_form_signature_matches_oracle).
    """
    adj = G.adjacency
    comps = len(_components(adj, bits))
    black = vertices_of(bits)
    bb = sum((adj[b] & bits).bit_count() for b in black) // 2
    bw = sum(adj[b].bit_count() for b in black) - 2 * bb
    ww = G.edge_count - bb - bw
    white = ~bits & ((1 << G.vertex_count) - 1)
    v_wb = sum(1 for w in vertices_of(white) if adj[w] & bits)
    v_ww = white.bit_count() - v_wb
    cyclomatic = bb - (bits.bit_count() - comps)
    entries = [(1, 2, ww), (1, 1, bw - v_wb), (1, 0, cyclomatic),
               (0, 1, v_ww), (0, 0, comps)]
    return tuple(sorted(((i, k, r) for i, k, r in entries if r), reverse=True))


class ThetaLevel(Value):
    """Level-j Theta invariant of a graph.

    signature_counts holds each distinct colouring signature with the number
    of weight-j colourings that have it, in descending order.  pooled is the
    multiset of their nonzero (i, k, rank) entries over every colouring, as
    frozen {entry: multiplicity} items; it is the invariant that
    dissimilarity compares, and with j it decides equality, so the grouping
    by colouring does not.
    """

    _compared = ("j", "pooled")

    def __init__(self, j: int, signature_counts: tuple):
        self.__dict__.update(j=j, signature_counts=signature_counts)

    @cached_property
    def pooled(self) -> frozenset:
        totals: Counter = Counter()
        for sig, c in self.signature_counts:
            for entry in sig:
                totals[entry] += c
        return frozenset(totals.items())

    @cached_property
    def entries(self) -> tuple[tuple[int, int, int, int], ...]:
        """The pooled (j, i, k, rank) tuples, with repetition, in descending
        lexicographic order."""
        return tuple((self.j, i, k, r) for (i, k, r), c in sorted(self.pooled, reverse=True)
                     for _ in range(c))

    @property
    def aggregated(self) -> tuple[tuple[int, int, int, int], ...]:
        """One tuple per (j, i, k) with the ranks summed over colourings."""
        totals: Counter = Counter()
        for (i, k, r), c in self.pooled:
            totals[(self.j, i, k)] += r * c
        return tuple(sorted((key + (r,) for key, r in totals.items()),
                            reverse=True))


def theta(G: SimpleGraph, j: int) -> ThetaLevel:
    """Theta invariant at level j (j black vertices).

    Every colouring's signature comes from closed_form_signature, so no
    homology is computed, and is counted as it streams, so only the distinct
    signatures are held.  Levels 2 and up keep graph_as_complex's contract
    and raise ComplexError on a disconnected graph, although the counts hold
    for disconnected graphs too.
    uber._check_cap refuses a level of C(m, j) > 2^cap colourings, more than
    the largest cube the cube cap allows, before any colouring is built.
    """
    m = G.vertex_count
    if not 0 <= j <= m:
        raise ComplexError(f"level {j} out of range for {m} vertices")
    if j >= 2 and not G.is_connected:
        raise ComplexError("graph must be connected to convert to a complex")
    size = comb(m, j)
    _check_cap(size, f"level {j} has C({m}, {j}) = {size} colourings")
    counts = Counter(closed_form_signature(G, mask) for mask in level_masks(m, j))
    return ThetaLevel(j, tuple(sorted(counts.items(), reverse=True)))


def theta_classes(graphs) -> list[list[int]]:
    """Theta levels of a corpus as per-bucket class ids, by partition
    refinement (Paige-Tarjan): level j is computed once for each graph whose
    bucket (vertex count and ids below j) holds two or more, exactly when a
    pairwise comparison would."""
    keys = [[G.vertex_count] for G in graphs]  # then one class id per level
    todo = range(len(graphs))
    for j in count():
        sizes = Counter(tuple(keys[i]) for i in todo)
        todo = [i for i in todo
                if sizes[tuple(keys[i])] > 1 and j <= graphs[i].vertex_count]
        if not todo:
            return [key[1:] for key in keys]
        interned: dict[tuple, dict] = {}
        for i in todo:
            ids = interned.setdefault(tuple(keys[i]), {})
            keys[i].append(ids.setdefault(theta(graphs[i], j).pooled, len(ids)))


def first_differing_level(ids1, ids2) -> int | None:
    """First index at which two lists of one theta_classes call differ."""
    return next((j for j, (a, b) in enumerate(zip(ids1, ids2)) if a != b), None)


def dissimilarity(G1: SimpleGraph, G2: SimpleGraph):
    """Delta(G1, G2) as a Fraction: 1 - j/m for m-vertex graphs whose first
    differing level is j, 0 when every level agrees, and None (the infinite
    marker) when the vertex counts differ.  theta_classes stops at the first
    differing level."""
    if G1.vertex_count != G2.vertex_count:
        return None
    from fractions import Fraction  # here, so only a Delta value pays for it
    m = G1.vertex_count
    j = first_differing_level(*theta_classes([G1, G2]))
    return Fraction(0 if j is None else m - j, m)


# ---------------------------------------------------------------------------
# specialised graph homologies


def h0_graph(G: SimpleGraph) -> dict[int, int]:
    """Bidegree-(0, 0) cube homology {j: rank}: the (0, 0) tower of
    `uber_homology` on the graph as a complex, which is the cube of black
    components (refused, like `uber`, above the cube cap)."""
    if not G.is_connected:
        raise ComplexError("graph homologies need a connected graph")
    ranks = uber_homology(graph_as_complex(G), bidegrees={(0, 0)})
    return {j: r for (j, _, _), r in ranks.items()}


def h1_0(G: SimpleGraph) -> dict[int, int]:
    """Bidegree-(0, 1) cube homology, {0: number of dominating vertices}: the
    tower is a direct sum over white vertices w of full cubes on V - N[w] (w
    is a class while it has no black neighbour), acyclic unless N[w] = V."""
    if not G.is_connected:
        raise ComplexError("graph homologies need a connected graph")
    dominating = _dominating_vertices(G.adjacency)
    return {0: dominating} if dominating else {}


def h1_1(G: SimpleGraph) -> dict[int, int]:
    """Bidegree-(1, 1) cube homology, {2: number of dominating vertices} for
    m >= 3, else {}: the tower is a direct sum over white vertices w of
    H~_0(black neighbours of w), a full cube on V - N[w] tensored with the
    rest, so acyclic unless N[w] = V.  Then it is the kernel of the
    augmentation from the sum over b of the cubes of sets containing b
    (acyclic once m - 1 >= 2) onto the cube of nonempty sets (one class, at
    level 1), so it has one class, at level 2."""
    dominating = h1_0(G).get(0, 0)
    return {2: dominating} if dominating and G.vertex_count >= 3 else {}


def h2_graph(G: SimpleGraph) -> dict[int, int]:
    """Bidegree-(1, 2) cube homology, {0: 1} for the single edge, else {}: the
    tower is a direct sum over edges e of full cubes on V - e (e is a class
    while both ends are white), acyclic unless e = V."""
    if not G.is_connected:
        raise ComplexError("graph homologies need a connected graph")
    return {0: 1} if G.vertex_count == 2 else {}

