"""Colour-cube homology assembled from per-colouring horizontal homologies.

For a fixed bidegree (i, k) the horizontal homology groups of all 2^m
colourings of X form a cochain complex shaped like a hypercube: level j
collects the colourings with j black vertices, and each cube edge flips one
vertex from white to black.  The edge map deletes every simplex containing
the flipped vertex; it is a chain map, so it descends to homology classes.
Levels are reduced in a streaming fashion (only two adjacent levels are ever
held); a closed form for the bottom of the cube and a two-level shortcut
for its top are provided alongside the full computation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations

from . import f2
from .coloured import (BlockHomology, Colouring, horizontal_homology,
                       horizontal_homology_with_bases, simplicial_homology)
from .complexes import SimplicialComplex, dim_of, vertices_of
from .errors import CapExceeded, ComplexError, ParseError

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


def d_eta_chain(chain, v: int) -> frozenset[int]:
    """Delete from a chain every simplex containing vertex v."""
    bit = 1 << v
    return frozenset(s for s in chain if not s & bit)


def horizontal_boundary(chain, black_bits: int) -> frozenset[int]:
    """Mod-2 horizontal boundary of a set of simplices: drop one black vertex
    at a time, discarding empty faces."""
    out: set[int] = set()
    for s in chain:
        rest = s & black_bits
        while rest:
            bit = rest & -rest
            rest ^= bit
            face = s ^ bit
            if face:
                out.symmetric_difference_update((face,))
    return frozenset(out)


def d_eta_matrix(source_eps: Colouring, source_block: BlockHomology,
                 target_eps: Colouring, target_block: BlockHomology | None,
                 v: int) -> f2.BitMatrix:
    """Matrix of one cube-edge map at one bidegree.

    Column c is the image of the c-th source representative: delete every
    simplex containing v, then read off coordinates in the target homology
    basis.  The chain-map law (boundary of the deletion equals deletion of
    the boundary) is asserted for every representative; a violation means an
    engine bug, never bad user input.
    """
    if target_eps.bits != source_eps.bits | (1 << v) or source_eps.is_black(v):
        raise ValueError("target colouring must blacken exactly the one new vertex")
    basis = source_block.basis
    index = ({mask: p for p, mask in enumerate(target_block.basis)}
             if target_block is not None else {})
    columns = []
    for rep in source_block.hom.representatives:
        chain = [basis[p] for p in vertices_of(rep)]
        kept = d_eta_chain(chain, v)
        lhs = horizontal_boundary(kept, target_eps.bits)
        rhs = d_eta_chain(horizontal_boundary(chain, source_eps.bits), v)
        if lhs != rhs:
            raise AssertionError("cube edge map failed the chain-map law")
        if target_block is None:
            if kept:
                raise AssertionError("image chain fell outside an empty target block")
            columns.append(0)
            continue
        vec = 0
        for mask in kept:
            vec |= 1 << index[mask]
        columns.append(target_block.hom.coordinates(vec))
    rows = target_block.hom.rank if target_block is not None else 0
    return f2.BitMatrix(rows, len(columns), tuple(columns))


@dataclass(frozen=True)
class LevelSummand:
    """Horizontal homology of one colouring inside a cube level."""

    eps: Colouring
    blocks: dict


def level_masks(m: int, j: int) -> list[int]:
    """Colouring bitmasks of weight j, ascending."""
    return sorted(sum(1 << v for v in combo) for combo in combinations(range(m), j))


def _level(X: SimplicialComplex, j: int) -> list[LevelSummand]:
    out = []
    for mask in level_masks(X.vertex_count, j):
        eps = Colouring(mask, X.vertex_count)
        out.append(LevelSummand(eps, horizontal_homology_with_bases(X, eps)))
    return out


def _wanted(bigrading, bidegrees) -> bool:
    return bidegrees is None or bigrading in bidegrees


def _level_dims(level, bidegrees) -> dict:
    dims: dict = {}
    for summand in level:
        for bg, blk in summand.blocks.items():
            if blk.hom.rank and _wanted(bg, bidegrees):
                dims[bg] = dims.get(bg, 0) + blk.hom.rank
    return dims


def _level_matrix_ranks(X: SimplicialComplex, cur, nxt, bidegrees) -> dict:
    """Rank, per bidegree, of the full differential from level cur to nxt."""
    by_bits = {s.eps.bits: s for s in nxt}
    offsets: dict = {}
    totals: dict = {}
    for summand in nxt:
        for bg, blk in summand.blocks.items():
            if blk.hom.rank and _wanted(bg, bidegrees):
                offsets.setdefault(bg, {})[summand.eps.bits] = totals.get(bg, 0)
                totals[bg] = totals.get(bg, 0) + blk.hom.rank
    columns: dict = {}
    for summand in cur:
        for bg, blk in summand.blocks.items():
            if not blk.hom.rank or not _wanted(bg, bidegrees):
                continue
            cols = [0] * blk.hom.rank
            for v in range(X.vertex_count):
                if summand.eps.is_black(v):
                    continue
                target = by_bits[summand.eps.bits | (1 << v)]
                mat = d_eta_matrix(summand.eps, blk, target.eps,
                                   target.blocks.get(bg), v)
                if mat.rows == 0:
                    continue
                shift = offsets[bg][target.eps.bits]
                for c, col in enumerate(mat.columns):
                    cols[c] ^= col << shift
            columns.setdefault(bg, []).extend(cols)
    return {bg: f2.rank_of(cols) for bg, cols in columns.items()}


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
    for j in range(m + 1):
        nxt = _level(X, j + 1) if j < m else []
        dims = _level_dims(cur, bidegrees)
        cur_rank = _level_matrix_ranks(X, cur, nxt, bidegrees) if j < m else {}
        for bg, dim in dims.items():
            r = dim - cur_rank.get(bg, 0) - prev_rank.get(bg, 0)
            if r < 0:
                raise AssertionError("cube differential ranks exceed the level dimension")
            if r:
                result[(j, bg[0], bg[1])] = r
        prev_rank = cur_rank
        cur = nxt
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
    top = _level(X, m)
    ranks = _level_matrix_ranks(X, _level(X, m - 1), top, None)
    out = {}
    for bg, dim in _level_dims(top, None).items():
        r = dim - ranks.get(bg, 0)
        if r:
            out[bg] = r
    return out


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
