"""Face-poset matchings induced by colourings and their critical cells.

The nonzero components of the horizontal differential pair each simplex s
with its facet s minus v, for each black vertex v of s.  For dalmatian
colourings (nonzero, pairwise disjoint closed stars of black vertices) the
pairs form an acyclic matching, and its critical cells give the horizontal
homology: one (0, 0) class per black vertex and one (d, d + 1) class per
d-simplex outside every black closed star.  `verify_morse` finds the
matching test and the critical cells in one scan of the complex.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .complexes import SimplicialComplex, dim_of, vertices_of
from .coloured import Colouring

Edge = tuple[int, int]  # (simplex, facet) with one black vertex dropped


@dataclass(frozen=True)
class MorseReport:
    is_matching: bool
    is_acyclic: bool
    critical_cells: tuple[int, ...]

    @property
    def is_morse_matching(self) -> bool:
        return self.is_matching and self.is_acyclic

    def critical_by_dim(self) -> dict[int, int]:
        return dict(Counter(map(dim_of, self.critical_cells)))


def verify_morse(X: SimplicialComplex, eps: Colouring) -> MorseReport:
    """Report on the colouring's pairs as a discrete Morse matching.

    One scan counts, for each simplex s, the black v with s + v in X.  The
    pairs form a matching exactly when no count exceeds 1: eps is zero (no
    pairs) or dalmatian.  Then every simplex of a black closed star is
    paired, with s - v or s + v, except the black vertex itself, whose facet
    is empty; a simplex of count 0 holds no black vertex and is in no pair.
    So the critical cells, listed by (dimension, mask), are the black
    vertices of X and the simplices of count 0.

    A matching is always acyclic.  In a matching every simplex holds at
    most one black vertex, so every pair is (W+v, W) with W white and v the
    pair's only black vertex.  A down-step from W+v drops a white vertex
    and reaches a simplex that holds v; no pair has such a simplex as its
    lower end, so no path turns up again and there is no cycle.
    """
    eps.check_length(X.vertex_count)
    simplices = X.simplices
    black = [1 << v for v in eps.black_vertices()]
    critical = [bit for bit in black if bit in simplices]
    for s in simplices:
        owners = sum(s | bit in simplices for bit in black)
        if owners > 1:
            return MorseReport(False, False, ())
        if not owners:
            critical.append(s)
    return MorseReport(True, True, tuple(sorted(critical, key=lambda s: (dim_of(s), s))))


def elementary_decomposition(X: SimplicialComplex,
                             eps: Colouring) -> dict[int, frozenset[Edge]]:
    """The colouring's pairs (s, s minus v), filed by the dropped black
    vertex v; a pair whose facet would be empty is left out."""
    eps.check_length(X.vertex_count)
    parts: dict[int, set[Edge]] = {v: set() for v in eps.black_vertices()}
    for s in X.simplices:
        for v in vertices_of(s & eps.bits):
            if s ^ 1 << v:
                parts[v].add((s, s ^ 1 << v))
    return {v: frozenset(es) for v, es in parts.items()}
