"""Vertex bi-colourings, the weight bigrading, and the split boundary.

The simplicial boundary of a coloured complex splits as the part removing a
black vertex (weight-preserving, the horizontal differential) plus the part
removing a white vertex (weight-dropping, the diagonal differential).  All
homology here is over GF(2).

The horizontal differential keeps a simplex's white part W, so its complex
is the direct sum over W of the black chains of the link of W (reduced for
nonempty W), shifted by |W|; the diagonal one splits over black parts alike.
Ranks do not depend on basis order, so the rank-only routines eliminate one
summand at a time, grouped straight from the unsorted simplex set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import f2
from .complexes import SimplicialComplex, vertices_of
from .errors import ColouringMismatch, InvalidColouring, ParseError


@dataclass(frozen=True)
class Colouring:
    """Black(1)/white(0) assignment to vertices; bit i is vertex i."""

    bits: int
    length: int

    def __post_init__(self):
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
    def all_black(cls, m: int) -> "Colouring":
        return cls((1 << m) - 1, m)

    @classmethod
    def all_white(cls, m: int) -> "Colouring":
        return cls(0, m)

    @classmethod
    def elementary(cls, m: int, v: int) -> "Colouring":
        if not 0 <= v < m:
            raise InvalidColouring(f"vertex {v} outside colouring of length {m}")
        return cls(1 << v, m)

    @classmethod
    def from_black_set(cls, m: int, black) -> "Colouring":
        bits = 0
        for v in black:
            if not 0 <= v < m:
                raise InvalidColouring(f"vertex {v} outside colouring of length {m}")
            bits |= 1 << v
        return cls(bits, m)

    @property
    def weight_norm(self) -> int:
        """Number of black vertices."""
        return self.bits.bit_count()

    def is_black(self, v: int) -> bool:
        return bool(self.bits >> v & 1)

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


def weight(sigma: int, colouring: Colouring) -> int:
    """White-vertex count of the simplex: its filtration degree."""
    if sigma >> colouring.length:
        raise ColouringMismatch("simplex uses vertices beyond the colouring")
    return (sigma & ~colouring.bits).bit_count()


def _blocks(X: SimplicialComplex, eps: Colouring) -> dict[tuple[int, int], list[int]]:
    """(dimension, weight) -> ascending simplex masks."""
    eps.check_length(X.vertex_count)
    blocks: dict[tuple[int, int], list[int]] = {}
    for d, masks in X.by_dim.items():
        for s in masks:
            blocks.setdefault((d, (s & ~eps.bits).bit_count()), []).append(s)
    return blocks


def _index(blocks) -> dict:
    return {key: {s: p for p, s in enumerate(masks)} for key, masks in blocks.items()}


def _boundary_columns(masks, target: dict[int, int], droppable: int):
    """Columns of the boundary part that drops one droppable vertex, one per
    simplex; target indexes the faces, which must all lie in it."""
    for s in masks:
        col = 0
        rest = s & droppable
        while rest:
            bit = rest & -rest
            rest ^= bit
            col |= 1 << target[s ^ bit]
        yield col


def _chain_ranks(blocks: dict, down, droppable: int) -> dict:
    """Nonzero homology ranks of a chain complex of simplex blocks.

    The differential drops one droppable vertex and maps block key to block
    down(key); a block whose target is absent maps to zero.  Columns are
    streamed into the rank, so no block's matrix is ever held.
    """
    index = _index(blocks)
    out_rank: dict = {}
    in_rank: dict = {}
    for key, masks in blocks.items():
        below = down(key)
        if below in index:
            r = f2.rank_of(_boundary_columns(masks, index[below], droppable))
            out_rank[key] = in_rank[below] = r
    result = {}
    for key, masks in blocks.items():
        h = len(masks) - out_rank.get(key, 0) - in_rank.get(key, 0)
        if h:
            result[key] = h
    return result


def _split_ranks(X: SimplicialComplex, eps: Colouring, kept: int, droppable: int,
                 grade) -> dict:
    """(i, k) ranks from summands keyed by (dimension, kept part), whose
    weight is grade(dimension, kept part)."""
    eps.check_length(X.vertex_count)
    blocks: dict[tuple[int, int], list[int]] = {}
    for s in X.simplices:
        blocks.setdefault((s.bit_count() - 1, s & kept), []).append(s)
    ranks: dict[tuple[int, int], int] = {}
    for (d, part), h in _chain_ranks(blocks, lambda dp: (dp[0] - 1, dp[1]),
                                     droppable).items():
        key = (d, grade(d, part))
        ranks[key] = ranks.get(key, 0) + h
    return ranks


def horizontal_homology(X: SimplicialComplex, eps: Colouring) -> dict:
    """Nonzero ranks of the horizontal homology, keyed by (i, k)."""
    return _split_ranks(X, eps, ~eps.bits, eps.bits, lambda d, white: white.bit_count())


def diagonal_homology(X: SimplicialComplex, eps: Colouring) -> dict:
    """Nonzero ranks of the diagonal homology, keyed by (i, k)."""
    return _split_ranks(X, eps, eps.bits, ~eps.bits,
                        lambda d, black: d + 1 - black.bit_count())


@dataclass(frozen=True)
class BlockHomology:
    """Homology of one (i, k) block with its simplex basis."""

    basis: tuple[int, ...]
    hom: f2.HomologyWithBasis


def horizontal_homology_with_bases(X: SimplicialComplex,
                                   eps: Colouring) -> dict[tuple[int, int], BlockHomology]:
    """Per-bigrading homology with representative cycles (all blocks kept,
    including rank 0, so cube assembly can look up any bigrading)."""
    blocks = _blocks(X, eps)
    index = _index(blocks)
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
    if k < 0:
        return {}
    by_dim: dict[int, list[int]] = {}
    for d, masks in X.by_dim.items():
        kept = [s for s in masks if (s & ~eps.bits).bit_count() <= k]
        if kept:
            by_dim[d] = kept
    # a face never has more white vertices than its simplex, so the kept
    # simplices form a subcomplex
    return _chain_ranks(by_dim, lambda d: d - 1, -1)


def simplicial_homology(X: SimplicialComplex, reduced: bool = False) -> dict[int, int]:
    """Plain simplicial homology ranks over GF(2), keyed by dimension.

    With reduced=True the augmentation to a degree -1 generator is included;
    the void complex then has rank 1 in degree -1.
    """
    # the augmentation is the boundary onto the empty simplex (mask 0)
    blocks: dict[int, list[int]] = {-1: [0]} if reduced else {}
    for s in X.simplices:
        blocks.setdefault(s.bit_count() - 1, []).append(s)
    return _chain_ranks(dict(sorted(blocks.items())), lambda d: d - 1, -1)


def black_subcomplex(X: SimplicialComplex, eps: Colouring):
    """Simplices whose vertices are all black, over the same universe.
    Returns None when there are none (the void black subcomplex)."""
    eps.check_length(X.vertex_count)
    kept = frozenset(s for s in X.simplices if not s & ~eps.bits)
    if not kept:
        return None
    return SimplicialComplex(X.vertex_count, kept)


@dataclass(frozen=True)
class GradedEulerPoly:
    """Alternating-sum polynomial of horizontal ranks in the weight variable."""

    coefficients: tuple[tuple[int, int], ...]  # (power, coefficient), ascending

    @cached_property
    def _map(self) -> dict[int, int]:
        return dict(self.coefficients)

    def coefficient(self, k: int) -> int:
        return self._map.get(k, 0)

    def __call__(self, t: int) -> int:
        return sum(c * t ** k for k, c in self.coefficients)


def graded_euler(X: SimplicialComplex, eps: Colouring) -> GradedEulerPoly:
    coeffs: dict[int, int] = {}
    for (i, k), r in horizontal_homology(X, eps).items():
        coeffs[k] = coeffs.get(k, 0) + (r if i % 2 == 0 else -r)
    return GradedEulerPoly(tuple(sorted((k, c) for k, c in coeffs.items() if c)))


def flatten(ranks: dict) -> dict[int, int]:
    """Forget the weight grading: sum ranks over k at each dimension."""
    out: dict[int, int] = {}
    for (i, _k), r in ranks.items():
        out[i] = out.get(i, 0) + r
    return {i: r for i, r in sorted(out.items()) if r}
