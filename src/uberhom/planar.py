"""Plane graphs and the overlaid Tait construction.

A plane graph is a simple connected graph plus a rotation system (the cyclic
order of neighbours at each vertex); faces come from dart tracing and the
embedding must satisfy V - E + F = 2.  Overlaying the graph with its dual
puts one crossing vertex on every edge; the matching complex of the overlay,
with half-edges coloured by which side they touch, decomposes level by level
into matching complexes of edge-deleted subgraphs (Theorem 4.2).
overlay_ranks reads the horizontal ranks off that decomposition, once per
orbit of the map automorphisms, without building the overlay;
theorem42_verify checks it rank by rank against the horizontal homology of
every overlay matching.  Each matching complex is one `matching_blocks`
call, never a complex: the search reaches only the matchings outside the
star of one edge b, a cone, and `coloured._reduce` reduces that relative
chain, whose homology is the complex's reduced homology.  On the overlay
that call groups the white matchings by the black edges they leave free,
and theorem42_verify reduces each such set's chain once, not once per
white matching: a white matching's summand is that chain, shifted (its
docstring says why, and why this is not Theorem 4.2).
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

from ._value import Value
from .coloured import Colouring, _reduce
from .complexes import vertices_of
from .errors import CapExceeded, ComplexError, EngineError, ParseError
from .graphs import SimpleGraph, matching_blocks

Dart = tuple[int, int]
MAX_OVERLAY_EDGES = 12  # the overlay matching complex grows exponentially


class PlaneGraph(Value):
    """Simple connected graph embedded in the sphere via a rotation system."""

    def __init__(self, graph: SimpleGraph, rotations: tuple[tuple[int, ...], ...]):
        self.__dict__.update(graph=graph, rotations=rotations)
        G = self.graph
        if not G.is_connected:
            raise ComplexError("plane graphs must be connected")
        if len(self.rotations) != G.vertex_count:
            raise ComplexError("one rotation per vertex required")
        for v, rot in enumerate(self.rotations):
            if len(rot) != len(set(rot)):
                raise ComplexError(f"rotation at vertex {v} repeats a neighbour")
            if set(rot) != set(G.neighbours(v)):
                raise ComplexError(f"rotation at vertex {v} does not match its "
                                   f"neighbours")
        if self.graph.vertex_count - self.graph.edge_count + self.face_count != 2:
            raise ComplexError("rotation system is not a sphere embedding "
                               "(Euler check failed)")

    @cached_property
    def faces(self) -> tuple[tuple[Dart, ...], ...]:
        """Faces as dart cycles: the dart after (u, v) leaves v towards the
        neighbour following u in the rotation at v.  A lone vertex has no
        darts and one face."""
        succ: dict[Dart, Dart] = {}
        for v, rot in enumerate(self.rotations):
            deg = len(rot)
            for pos, u in enumerate(rot):
                succ[(u, v)] = (v, rot[(pos + 1) % deg])
        remaining = dict.fromkeys(sorted(succ))
        out = []
        while remaining:
            start = next(iter(remaining))
            cycle = []
            dart = start
            while True:
                cycle.append(dart)
                del remaining[dart]
                dart = succ[dart]
                if dart == start:
                    break
            out.append(tuple(cycle))
        return tuple(out) or ((),)

    @property
    def face_count(self) -> int:
        return len(self.faces)

    @cached_property
    def face_of_dart(self) -> dict[Dart, int]:
        return {dart: f for f, cycle in enumerate(self.faces) for dart in cycle}

    def edge_sides(self, u: int, v: int) -> tuple[int, int]:
        """Faces on the two sides of edge (u, v): the face of dart (u, v) and
        of dart (v, u).  Equal faces mean the edge is a bridge."""
        return self.face_of_dart[(u, v)], self.face_of_dart[(v, u)]


def parse_plane_graph(text: str) -> PlaneGraph:
    """Parse the 'v <id>: <cyclic neighbour list>' line format."""
    rotations: dict[int, tuple[int, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not line.startswith("v"):
            raise ParseError(f"line {lineno}: expected 'v <id>: <neighbours>'")
        head, _, tail = line[1:].partition(":")
        if not _:
            raise ParseError(f"line {lineno}: missing ':'")
        try:
            v = int(head.strip())
            nbrs = tuple(int(t) for t in tail.split())
        except ValueError:
            raise ParseError(f"line {lineno}: vertex ids must be integers") from None
        if v in rotations:
            raise ParseError(f"line {lineno}: duplicate vertex {v}")
        rotations[v] = nbrs
    if not rotations:
        raise ParseError("empty plane-graph description")
    n = len(rotations)
    if sorted(rotations) != list(range(n)):
        raise ParseError("vertex ids must be exactly 0..n-1")
    edges = {(min(v, w), max(v, w)) for v, rot in rotations.items() for w in rot}
    try:
        graph = SimpleGraph.from_edges(n, edges)
        return PlaneGraph(graph, tuple(rotations[v] for v in range(n)))
    except ComplexError as exc:
        raise ParseError(str(exc)) from None


def format_plane_graph(P: PlaneGraph) -> str:
    lines = [f"v {v}: " + " ".join(str(w) for w in rot)
             for v, rot in enumerate(P.rotations)]
    return "\n".join(lines) + "\n"


class TaitGraph(Value):
    """Overlay of a plane graph with its dual.

    Vertices are tri-partite: primal vertices, then faces, then one crossing
    per primal edge.  Each crossing carries four overlay edges in a fixed
    order: to the two primal endpoints, then to the two side faces (repeated
    when the edge is a bridge, giving parallel overlay edges).  The first two
    are black, the last two white.
    """

    def __init__(self, plane: PlaneGraph,
                 crossings: tuple[tuple[int, int, int, int], ...]):
        self.__dict__.update(plane=plane, crossings=crossings)

    @property
    def primal_count(self) -> int:
        return self.plane.graph.vertex_count

    @property
    def face_count(self) -> int:
        return self.plane.face_count

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    @property
    def partition_sizes(self) -> tuple[int, int, int]:
        return (self.primal_count, self.face_count, self.crossing_count)

    def crossing_node(self, e: int) -> int:
        return self.primal_count + self.face_count + e

    def face_node(self, f: int) -> int:
        return self.primal_count + f

    @cached_property
    def overlay_edges(self) -> tuple[tuple[int, int], ...]:
        """All overlay edges, four per crossing, in the canonical order."""
        out = []
        for e, (u, v, f1, f2) in enumerate(self.crossings):
            x = self.crossing_node(e)
            out.extend(((x, u), (x, v),
                        (x, self.face_node(f1)), (x, self.face_node(f2))))
        return tuple(out)

    def black_edges(self) -> list[tuple[int, int]]:
        return [e for pos, e in enumerate(self.overlay_edges) if pos % 4 < 2]

    def white_edges(self) -> list[tuple[int, int]]:
        return [e for pos, e in enumerate(self.overlay_edges) if pos % 4 >= 2]


def tait_graph(P: PlaneGraph) -> TaitGraph:
    crossings = []
    for u, v in P.graph.edges:
        f1, f2 = P.edge_sides(u, v)
        crossings.append((u, v, f1, f2))
    return TaitGraph(P, tuple(crossings))


def tait_colouring(T: TaitGraph) -> Colouring:
    """Colouring of the overlay matching complex: vertex 4e+slot is the
    slot-th overlay edge of crossing e, black for the primal half-edges
    (slots 0 and 1)."""
    bits = sum(0b0011 << 4 * e for e in range(T.crossing_count))
    return Colouring(bits, 4 * T.crossing_count)


def _check_overlay(T: TaitGraph):
    if not T.crossings:
        raise ComplexError("overlay needs at least one edge")
    if T.crossing_count > MAX_OVERLAY_EDGES:
        raise CapExceeded(f"overlay is limited to {MAX_OVERLAY_EDGES} edges, "
                          f"got {T.crossing_count}")


def _map_automorphisms(P: PlaneGraph) -> set[tuple[int, ...]]:
    """Vertex maps of the map automorphisms of a plane graph with an edge.
    One is fixed by the image of the dart (0, rotations[0][0]) and by keeping
    (step 1) or reversing (step -1) orientation; each candidate is propagated
    through the rotations in O(|E|) and dropped at its first clash.  One with
    no clash is bijective on each vertex's neighbours, so it is an
    automorphism of the connected graph."""
    rot = P.rotations

    def propagate(x: int, y: int, step: int):
        perm = [x] + [-1] * (len(rot) - 1)
        queue = [(0, rot[0][0], y)]  # placed vertex, a neighbour, its image
        for u, w, z in queue:
            here, there = rot[u], rot[perm[u]]
            if len(here) != len(there):
                return None
            i, j, d = here.index(w), there.index(z), len(here)
            for t in range(d):
                a, b = here[(i + t) % d], there[(j + step * t) % d]
                if perm[a] < 0:
                    perm[a] = b
                    queue.append((a, u, perm[u]))
                elif perm[a] != b:
                    return None
        return tuple(perm)

    return {propagate(x, y, step) for x, r in enumerate(rot) for y in r
            for step in (1, -1)} - {None}


def _add_matching_ranks(ranks: dict, near: int, levels, weights: dict[int, int]):
    """Add weights[k] copies of the homology of a free set's matching complex,
    shifted to (d + k, k), to ranks: unreduced for k = 0 and reduced for
    k > 0.  near and levels are one free set's, as matching_blocks yields
    them.  The complex's reduced homology is that of levels relative to the
    star of b, which is a cone; unreduced, the star's H_0 = 1 is added back
    at degree 0.  An empty free set (near 0) has the void complex, whose
    reduced homology is H_-1 = 1.  The relative chain is reduced once,
    through coloured._reduce, whatever the number of weights that read it."""
    relative = _reduce(dict(enumerate(levels)), lambda d: d - 1, -1, near)
    for k, weight in weights.items():
        shifted = Counter({d + k: r for d, r in relative.items()})
        if k == 0 and near:
            shifted[0] += 1
        elif k > 0 and not near:
            shifted[k - 1] += 1
        for i, r in shifted.items():
            ranks[(i, k)] = ranks.get((i, k), 0) + weight * r


def overlay_ranks(T: TaitGraph) -> dict[tuple[int, int], int]:
    """Horizontal ranks of the coloured overlay matching complex, keyed by
    (i, k), from Theorem 4.2's split without building the overlay: level 0
    is the homology of the primal half-edges' matching complex; level k
    adds, per matching of k dual half-edges, the reduced homology (shifted
    by k) of the primal half-edges at the crossings it does not use.  The
    white matchings are counted per set R of crossings used, and the sets
    grouped into orbits of the map automorphisms.  A graph automorphism g
    maps the survivors of R isomorphically onto those of g(R), so the
    survivor homology is computed once per orbit, weighted by the orbit's
    summed count.  Raises for no edge, over MAX_OVERLAY_EDGES edges or a
    forged automorphism, before any matching is enumerated."""
    _check_overlay(T)
    G = T.plane.graph
    index = {e: i for i, e in enumerate(G.edges)}
    group = []  # as permutations of the edge indices
    for perm in _map_automorphisms(T.plane):
        group.append([index.get((min(perm[u], perm[v]), max(perm[u], perm[v])))
                      for u, v in G.edges])
        if sorted(perm) != list(range(G.vertex_count)) or None in group[-1]:
            raise EngineError(f"{perm} is not an automorphism of the plane graph")
    black = T.black_edges()
    ranks: dict[tuple[int, int], int] = {}
    [(_, near, levels)] = matching_blocks(black, 0)
    _add_matching_ranks(ranks, near, levels, {0: 1})
    [(whites, _, _)] = matching_blocks(T.white_edges(), -1)
    # half-edge idx is at crossing idx // 2; a matching uses each at most once
    uses = Counter(sum(1 << idx // 2 for idx in vertices_of(W)) for W in whites if W)
    seen: set[int] = set()
    for removed in uses:
        if removed in seen:
            continue
        orbit = {sum(1 << g[e] for e in vertices_of(removed)) for g in group}
        seen |= orbit
        survivors = [be for idx, be in enumerate(black) if not removed >> idx // 2 & 1]
        [(_, near, levels)] = matching_blocks(survivors, 0)
        _add_matching_ranks(ranks, near, levels,
                            {removed.bit_count(): sum(uses[R] for R in orbit)})
    return ranks


def theorem42_verify(P: PlaneGraph) -> dict:
    """Check the level-by-level decomposition of the overlay homology.

    Left side: horizontal homology of the coloured overlay matching complex.
    The summand of a white matching W is W | s over the matchings s of the
    black edges that clash with none of W, its free set, plus W itself when
    W is not 0.  The horizontal boundary drops only black edges, so
    s -> W | s is an isomorphism of chain complexes onto the matching chain
    of the free set, shifted by |W|: reduced when W is not 0, unreduced for
    W = 0.  `matching_blocks` searches the 4|E| overlay edges once and gives
    each free set's chain with the white matchings that leave it (the
    prism's 1,214 leave 367).  The chain holds only the matchings outside
    the star of the set's black edge b with the fewest clashes, which is a
    cone, so it has the set's reduced homology, plus H_0 = 1 for the
    unreduced W = 0 (the prism's 80,236 free-set matchings are searched as
    22,641 cells).  Each chain is reduced once, whatever W reads it, and
    its ranks are added at (d + |W|, |W|) once per W.  The left side still
    enumerates every white matching and reads its free set off the
    overlay's own clashes, not off the surviving primal half-edges, so it
    uses neither Theorem 4.2 nor the map automorphisms; the star argument
    holds for the matching complex of any edge set.  Right side:
    overlay_ranks.  The two sides reduce independent complexes through
    `coloured._reduce`, as `horizontal_homology` does after relativizing
    its own; the tests check both against brute-force oracles on the
    overlays of small graphs, and the left side against reducing every W's
    copy of its full chain on its own.
    """
    T = tait_graph(P)
    rhs = overlay_ranks(T)  # raises before any enumeration
    eps = tait_colouring(T)
    lhs: dict[tuple[int, int], int] = {}
    for whites, near, levels in matching_blocks(T.overlay_edges, ~eps.bits):
        _add_matching_ranks(lhs, near, levels, Counter(W.bit_count() for W in whites))
    levels = {}
    for k in sorted({k for _, k in lhs.keys() | rhs.keys()}):
        left, right = ({d: r for (d, j), r in side.items() if j == k} for side in (lhs, rhs))
        levels[k] = {"lhs": left, "rhs": right, "equal": left == right}
    return {
        "partition": T.partition_sizes,
        "levels": levels,
        "all_equal": all(level["equal"] for level in levels.values()),
        "level0_matches_subdivision": 0 not in levels or levels[0]["equal"],
    }
