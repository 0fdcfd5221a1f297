"""Colour-cube homology assembled from per-colouring horizontal homologies.

For a fixed bidegree (i, k) the horizontal homology groups of all 2^m
colourings of X form a cochain complex shaped like a hypercube: level j
collects the colourings with j black vertices, and each cube edge flips one
vertex from white to black.  The edge map deletes every simplex containing
the flipped vertex.  The flipped vertex is white, so the horizontal boundary
never drops it and the deletion is a chain map; on a cycle it is a
projection onto the target block's basis, read off basis positions.  A
level is {colouring mask: blocks}, laid out once as a direct sum per
bidegree.  Levels are reduced in a streaming fashion (only two adjacent
levels are ever held); a closed form for the bottom of the cube and a
two-level shortcut for its top are provided alongside the full computation.
"""

from __future__ import annotations

import os
from itertools import combinations

from . import f2
from .coloured import (BlockHomology, Colouring, horizontal_homology,
                       horizontal_homology_with_bases, simplicial_homology)
from .complexes import SimplicialComplex, dim_of, vertices_of
from .errors import CapExceeded, ComplexError, EngineError, ParseError

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
    return sorted(sum(1 << v for v in combo) for combo in combinations(range(m), j))


def _level(X: SimplicialComplex, j: int) -> dict:
    """{colouring mask: per-bidegree blocks} over the colourings of weight j."""
    m = X.vertex_count
    return {mask: horizontal_homology_with_bases(X, Colouring(mask, m))
            for mask in level_masks(m, j)}


def _layout(level: dict, bidegrees) -> tuple[dict, dict]:
    """Direct-sum layout of a level: {bidegree: {mask: offset}} and
    {bidegree: dimension}, over the wanted bidegrees of nonzero rank."""
    offsets: dict = {}
    dims: dict = {}
    for mask, blocks in level.items():
        for bg, blk in blocks.items():
            if blk.hom.rank and (bidegrees is None or bg in bidegrees):
                offsets.setdefault(bg, {})[mask] = dims.get(bg, 0)
                dims[bg] = dims.get(bg, 0) + blk.hom.rank
    return offsets, dims


def _differential_ranks(m: int, cur: dict, cur_offsets: dict, nxt: dict,
                        nxt_offsets: dict) -> dict:
    """Rank, per bidegree, of the cube differential from level cur to nxt."""
    ranks = {}
    for bg, sources in cur_offsets.items():
        targets = nxt_offsets.get(bg, {})
        columns = []
        for mask in sources:
            blk = cur[mask][bg]
            cols = [0] * blk.hom.rank
            for v in vertices_of(~mask & ((1 << m) - 1)):
                t = mask | 1 << v
                mat = d_eta_matrix(blk, nxt[t].get(bg), v)
                if mat.rows:
                    shift = targets[t]
                    for c, col in enumerate(mat.columns):
                        cols[c] ^= col << shift
            columns.extend(cols)
        ranks[bg] = f2.rank_of(columns)
    return ranks


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
    result: dict = {}
    prev_rank: dict = {}
    cur = _level(X, 0)
    cur_offsets, cur_dims = _layout(cur, bidegrees)
    for j in range(m + 1):
        nxt = _level(X, j + 1) if j < m else {}
        nxt_offsets, nxt_dims = _layout(nxt, bidegrees)
        rank = _differential_ranks(m, cur, cur_offsets, nxt, nxt_offsets)
        for bg, dim in cur_dims.items():
            r = dim - rank.get(bg, 0) - prev_rank.get(bg, 0)
            if r < 0:
                raise EngineError("cube differential ranks exceed the level dimension")
            if r:
                result[(j, bg[0], bg[1])] = r
        prev_rank = rank
        cur, cur_offsets, cur_dims = nxt, nxt_offsets, nxt_dims
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
    below, top = _level(X, m - 1), _level(X, m)
    top_offsets, top_dims = _layout(top, None)
    ranks = _differential_ranks(m, below, _layout(below, None)[0], top, top_offsets)
    return {bg: dim - ranks.get(bg, 0) for bg, dim in top_dims.items()
            if dim > ranks.get(bg, 0)}


def uber_topdegree_check(X: SimplicialComplex) -> dict:
    """Checks specific to closed-manifold triangulations.

    Verifies that every vertex link has the GF(2) homology of a sphere of
    dimension dim(X)-1 (raising otherwise), that the one-white-vertex
    colourings decompose into the link and vertex-deletion homologies, and
    that the top cube level is a single class in bidegree (dim X, 0).
    """
    if X.is_void or X.dim < 1:
        raise ComplexError("manifold checks need a complex of dimension at least 1")
    if not X.is_connected():
        raise ComplexError("manifold checks need a connected complex")
    n = X.dim
    m = X.vertex_count
    sphere = {n - 1: 1}
    blocks_match = True
    for v in range(m):
        link_reduced = simplicial_homology(X.link(v), reduced=True)
        if link_reduced != sphere:
            raise ComplexError(
                f"link of vertex {v} does not have sphere homology: {link_reduced}")
        eps = Colouring(((1 << m) - 1) ^ (1 << v), m)
        blocks = horizontal_homology(X, eps)
        expected = {(d + 1, 1): r for d, r in link_reduced.items()}
        deleted = simplicial_homology(X.delete_star(v))
        expected.update({(i, 0): r for i, r in deleted.items()})
        if blocks != expected:
            blocks_match = False
    top = uber_top_level(X)
    return {
        "dimension": n,
        "vertex_count": m,
        "links_spherical": True,
        "one_white_blocks_match": blocks_match,
        "top_level": top,
        "top_is_single_class": top == {(n, 0): 1},
    }


def cone_suspension_checks(X: SimplicialComplex, cap: int | None = None) -> dict:
    """Rank-wise checks of the four cone/suspension identities.

    The cone kills the top cube level and cones the star intersection; the
    suspension preserves degree-0 ranks and shifts the top level up by one
    dimension.
    """
    if X.is_void:
        raise ComplexError("cone/suspension checks need a nonvoid complex")
    cone = X.cone()
    susp = X.suspension()
    _check_cap(susp, cap)
    apex_bit = 1 << X.vertex_count
    core = star_intersection(X)
    coned_core = tuple(sorted(core + tuple(s | apex_bit for s in core) + (apex_bit,)))
    x_top = uber_top_level(X)
    susp_top = uber_top_level(susp)
    return {
        "cone_top_vanishes": uber_top_level(cone) == {},
        "cone_core_is_coned": star_intersection(cone) == coned_core,
        "suspension_degree0_matches": uber_degree0_fast(susp) == uber_degree0_fast(X),
        "x_top_level": x_top,
        "suspension_top_level": susp_top,
        "suspension_top_shifts": susp_top == {(i + 1, k): r
                                              for (i, k), r in x_top.items()},
    }
