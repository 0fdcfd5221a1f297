"""Vertex bi-colourings, the weight bigrading, and the split boundary.

The simplicial boundary of a coloured complex splits as the part removing a
black vertex (weight-preserving, the horizontal differential) plus the part
removing a white vertex (weight-dropping, the diagonal differential).  All
homology here is over GF(2).

The horizontal differential keeps a simplex's white part W, so its complex
is the direct sum over W of the black chains of the link of W (reduced for
nonempty W), shifted by |W|.  The rank-only routines group the unsorted
simplices by summand and reduce each chain of blocks relative to the closed
star of one droppable vertex b, a cone and so acyclic (Mischaikow and Nanda,
Discrete Comput. Geom. 50, 2013), adding back its H_0 = 1 on unreduced
chains.  _reduce, the one loop that eliminates such a relative chain, goes
top-down, skipping lowest bits of image rows from above, which are cycles
completing to a basis (clearing; Chen and Kerber, "Persistent homology
computation with a twist", EuroCG 2011); planar's matching chains reach it
already relative to a star, as `graphs.matching_blocks` searches them.
The diagonal differential is the horizontal one of the complementary
colouring, so diagonal homology is that, regraded.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from . import f2
from ._value import Value
from .complexes import SimplicialComplex, vertices_of
from .errors import ColouringMismatch, EngineError, InvalidColouring, ParseError


class Colouring(Value):
    """Black(1)/white(0) assignment to vertices; bit i is vertex i."""

    def __init__(self, bits: int, length: int):
        self.__dict__.update(bits=bits, length=length)
        if self.length < 1:
            raise InvalidColouring("colouring must have positive length")
        if self.bits < 0 or self.bits >> self.length:
            raise InvalidColouring("colouring bits exceed the stated length")

    @classmethod
    def from_string(cls, text: str) -> "Colouring":
        if not text or any(c not in "01" for c in text):
            raise ParseError(f"colouring must be a nonempty 0/1 string, got {text!r}")
        bits = 0
        for i, c in enumerate(text):
            if c == "1":
                bits |= 1 << i
        return cls(bits, len(text))

    @classmethod
    def elementary(cls, m: int, v: int) -> "Colouring":
        if not 0 <= v < m:
            raise InvalidColouring(f"vertex {v} outside colouring of length {m}")
        return cls(1 << v, m)

    def black_vertices(self) -> tuple[int, ...]:
        return vertices_of(self.bits)

    def complement(self) -> "Colouring":
        return Colouring(self.bits ^ ((1 << self.length) - 1), self.length)

    def check_length(self, m: int):
        if self.length != m:
            raise ColouringMismatch(
                f"colouring length {self.length} does not match vertex count {m}")

    def __str__(self) -> str:
        return "".join("1" if self.bits >> i & 1 else "0" for i in range(self.length))


def _blocks(X: SimplicialComplex, eps: Colouring) -> dict[tuple[int, int], list[int]]:
    """(dimension, weight) -> ascending simplex masks."""
    eps.check_length(X.vertex_count)
    blocks: dict[tuple[int, int], list[int]] = {}
    for s in sorted(X.simplices):
        blocks.setdefault((s.bit_count() - 1, (s & ~eps.bits).bit_count()), []).append(s)
    return blocks


def _boundary_columns(cells, target: dict[int, int], droppable: int, star: int = -1):
    """Columns of the boundary part that drops one droppable vertex, one per
    cell.  A face that misses the mask star lies in the star a chain is
    reduced relative to, and adds nothing; with star -1 that is only the
    empty face.  target maps every other face to its row plus one, or to 0
    when it adds nothing; a face it lacks breaks the closure law."""
    try:
        for s in cells:
            col = 0
            rest = s & droppable
            while rest:
                bit = rest & -rest
                rest ^= bit
                if (face := s ^ bit) & star:
                    col |= 1 << target[face]
            yield col >> 1
    except KeyError:
        raise EngineError(f"closure law broken: face {s ^ bit:#x} of {s:#x} "
                          "is missing from the block below") from None


def _reduce(cells: dict, down, droppable: int, star: int = -1,
            faces: dict | None = None) -> dict:
    """Nonzero homology ranks of a chain complex of blocks of cells, relative
    to a subcomplex, by block key.

    The differential drops one droppable vertex and maps block key to block
    down(key); a block whose target is absent maps to zero.  A face of a
    cell is a cell of the block below, or it lies in the subcomplex and adds
    nothing: it misses the mask star (with star -1 only the empty face
    does), or faces[below] maps it to 0 (that dict then becomes the block's
    index).  Any other face breaks the closure law.  Each chain is walked
    from its top down, skipping the cells at the lowest bits P of the image
    rows r_p of the block above (Chen-Kerber clearing): d^2 = 0 makes the
    r_p cycles, and with the e_q, q not in P, they form a basis, so the kept
    columns span the image.
    """
    ranks = {}
    for key in cells.keys() - {down(k) for k in cells}:
        kept, cleared, in_rank = cells[key], set(), 0
        while (below := down(key)) in cells:
            rows = cells[below]
            target = faces[below] if faces else {}
            target.update(zip(rows, range(1, len(rows) + 1)))
            pivots: dict = {}
            columns = _boundary_columns((s for p, s in enumerate(kept) if p not in cleared),
                                        target, droppable, star)
            out_rank = f2.rank_of(columns, pivots=pivots)
            ranks[key] = len(kept) - in_rank - out_rank
            kept, cleared, in_rank, key = rows, set(pivots), out_rank, below
        ranks[key] = len(kept) - in_rank
    return {key: h for key, h in ranks.items() if h}


def _chain_ranks(blocks: dict, down, droppable: int) -> dict:
    """Nonzero homology ranks of a chain complex of simplex blocks, with the
    differential of _reduce.  Each chain must be closed under it, down to
    its droppable-free cell or to points.  It is reduced relative to the
    star of b, the droppable vertex in the most top-block simplices: the
    simplices s with s | b in the chain.  The star is a cone on b (s pairs
    with s | b), so it is acyclic, except for H_0 = 1 when the chain has no
    droppable-free cell (unreduced), which the bottom key gains back.  The
    cells handed to _reduce are the simplices s without b and with s | b
    not in the block above; the other faces below are in the star.
    """
    cells, faces, gained = {}, {}, []
    for key in blocks.keys() - {down(k) for k in blocks}:
        top = blocks[key]
        b = max((1 << v for v in vertices_of(reduce(or_, top, 0) & droppable)),
                key=lambda bit: sum(map(bit.__and__, top)) // bit, default=0)
        cells[key], here = [s for s in top if not s & b], set(top)
        while (below := down(key)) in blocks:
            faces[below] = dict.fromkeys(blocks[below], 0)
            cells[below] = [t for t in blocks[below] if not (t & b or t | b in here)]
            here, key = faces[below], below
        if b and all(s & droppable for s in here):
            gained.append(key)
    ranks = _reduce(cells, down, droppable, faces=faces)
    for key in gained:
        ranks[key] = ranks.get(key, 0) + 1
    return ranks


def horizontal_ranks(blocks: dict, black: int) -> dict[tuple[int, int], int]:
    """Nonzero horizontal ranks, keyed by (i, k), of simplex masks filed
    under (dimension, white part).  With black = -1 and white parts 0 this
    is plain homology at (i, 0), reduced if block (-1, 0) is [0]."""
    ranks: dict[tuple[int, int], int] = {}
    for (d, white), h in _chain_ranks(blocks, lambda dw: (dw[0] - 1, dw[1]),
                                      black).items():
        key = (d, white.bit_count())
        ranks[key] = ranks.get(key, 0) + h
    return ranks


def horizontal_homology(X: SimplicialComplex, eps: Colouring) -> dict:
    """Nonzero ranks of the horizontal homology, keyed by (i, k)."""
    eps.check_length(X.vertex_count)
    blocks: dict[tuple[int, int], list[int]] = {}
    for s in X.simplices:
        blocks.setdefault((s.bit_count() - 1, s & ~eps.bits), []).append(s)
    return horizontal_ranks(blocks, eps.bits)


def dual_grading(graded: dict) -> dict:
    """Regrade (i, k) -> (i, i + 1 - k): a simplex of dimension i with k
    white vertices has i + 1 - k white vertices in the complement colouring."""
    return {(i, i + 1 - k): value for (i, k), value in graded.items()}


def diagonal_homology(X: SimplicialComplex, eps: Colouring) -> dict:
    """Nonzero ranks of the diagonal homology, keyed by (i, k): the
    complement's horizontal homology, regraded."""
    return dual_grading(horizontal_homology(X, eps.complement()))


class BlockHomology(Value):
    """Homology of one (i, k) block with its simplex basis, compared by value."""

    _compared = ("basis", "hom.dim", "hom.representatives", "hom.boundary_rows")

    def __init__(self, basis: tuple[int, ...], hom: f2.HomologyWithBasis):
        self.__dict__.update(basis=basis, hom=hom)


def horizontal_homology_with_bases(X: SimplicialComplex,
                                   eps: Colouring) -> dict[tuple[int, int], BlockHomology]:
    """Per-bigrading homology with representative cycles (all blocks kept,
    including rank 0, so cube assembly can look up any bigrading).  It reads
    only that X is closed under dropping a black vertex, not face closure."""
    blocks = _blocks(X, eps)
    index = {key: {s: p for p, s in enumerate(masks, 1)} for key, masks in blocks.items()}
    cycles: dict = {}
    boundaries: dict = {}
    for (i, k), masks in blocks.items():
        target = index.get((i - 1, k))
        if target is None:  # no simplex here has a black vertex to drop
            cycles[(i, k)] = [1 << p for p in range(len(masks))]
            continue
        cycles[(i, k)], boundaries[(i - 1, k)] = f2.kernel_and_image(
            _boundary_columns(masks, target, eps.bits))
    return {key: BlockHomology(tuple(masks),
                               f2.homology_at(cycles[key], boundaries.get(key, []),
                                              len(masks)))
            for key, masks in blocks.items()}


def filtered_homology(X: SimplicialComplex, eps: Colouring, k: int) -> dict[int, int]:
    """Homology of the weight-at-most-k truncation under the full boundary;
    singly graded by dimension."""
    eps.check_length(X.vertex_count)
    # a face never has more white vertices than its simplex, so the kept
    # simplices form a subcomplex
    blocks: dict[int, list[int]] = {}
    for s in X.simplices:
        if (s & ~eps.bits).bit_count() <= k:
            blocks.setdefault(s.bit_count() - 1, []).append(s)
    return _chain_ranks(blocks, lambda d: d - 1, -1)


def simplicial_homology(X: SimplicialComplex) -> dict[int, int]:
    """Plain simplicial homology ranks over GF(2), keyed by dimension: the
    weight-0 truncation of the all-black colouring, which is all of X."""
    m = X.vertex_count
    return filtered_homology(X, Colouring((1 << m) - 1, m), 0)


def graded_euler(X: SimplicialComplex, eps: Colouring) -> dict[int, int]:
    """Nonzero coefficients of the graded Euler polynomial
    sum_k (sum_i (-1)^i rank H_(i,k)) t^k, keyed by k ascending.  The
    horizontal differential keeps the weight, so by Euler-Poincare the
    coefficient at k is the signed count of the simplices of weight k."""
    eps.check_length(X.vertex_count)
    coeffs: dict[int, int] = {}
    for s in X.simplices:
        k = (s & ~eps.bits).bit_count()
        coeffs[k] = coeffs.get(k, 0) + (1 if s.bit_count() % 2 else -1)
    return {k: c for k, c in sorted(coeffs.items()) if c}
