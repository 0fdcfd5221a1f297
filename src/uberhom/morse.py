"""Face-poset matchings induced by colourings and their critical cells.

The nonzero components of the horizontal differential form a subgraph of the
face poset; for dalmatian colourings (nonzero, pairwise disjoint closed
stars of black vertices) that subgraph is an acyclic matching, and the
horizontal homology is read off its critical cells.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import SimplicialComplex, dim_of, vertices_of
from .coloured import Colouring
from .errors import InvalidColouring

Edge = tuple[int, int]  # (simplex, facet) with one black vertex dropped


def induced_subgraph(X: SimplicialComplex, eps: Colouring) -> frozenset[Edge]:
    """Edges (σ, σ minus v) for every black vertex v of σ, facet nonempty."""
    eps.check_length(X.vertex_count)
    edges = set()
    for s in X.simplices:
        for v in vertices_of(s & eps.bits):
            face = s ^ (1 << v)
            if face:
                edges.add((s, face))
    return frozenset(edges)


def is_dalmatian(X: SimplicialComplex, eps: Colouring) -> bool:
    """Nonzero colouring whose black closed stars are pairwise disjoint."""
    eps.check_length(X.vertex_count)
    if eps.bits == 0:
        return False
    black = eps.black_vertices()
    for s in X.simplices:
        owners = 0
        for v in black:
            if (s | (1 << v)) in X.simplices:
                owners += 1
                if owners > 1:
                    return False
    return True


@dataclass(frozen=True)
class MorseReport:
    edges: frozenset[Edge]
    is_matching: bool
    is_acyclic: bool
    critical_cells: tuple[int, ...]

    @property
    def is_morse_matching(self) -> bool:
        return self.is_matching and self.is_acyclic

    def critical_by_dim(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for s in self.critical_cells:
            d = dim_of(s)
            out[d] = out.get(d, 0) + 1
        return out


def _criticals(X: SimplicialComplex, edges) -> tuple[int, ...]:
    touched = set()
    for s, t in edges:
        touched.add(s)
        touched.add(t)
    free = [s for s in X.simplices if s not in touched]
    return tuple(sorted(free, key=lambda s: (dim_of(s), s)))


def verify_morse(X: SimplicialComplex, eps: Colouring) -> MorseReport:
    """Report on the induced subgraph as a discrete Morse matching.

    The pairs form a matching exactly when eps is zero (no pairs) or
    dalmatian, and a matching is always acyclic.  In a matching every
    simplex holds at most one black vertex, so every pair is (W+v, W) with
    W white and v the pair's only black vertex.  A down-step from W+v drops
    a white vertex and reaches a simplex that holds v; no pair has such a
    simplex as its lower end, so no path turns up again and there is no
    cycle.
    """
    edges = induced_subgraph(X, eps)
    if eps.bits and not is_dalmatian(X, eps):
        return MorseReport(edges, False, False, ())
    return MorseReport(edges, True, True, _criticals(X, edges))


def elementary_decomposition(X: SimplicialComplex,
                             eps: Colouring) -> dict[int, frozenset[Edge]]:
    """Partition of the induced subgraph's edges by the dropped black vertex."""
    parts: dict[int, set[Edge]] = {v: set() for v in eps.black_vertices()}
    for s, face in induced_subgraph(X, eps):
        parts[(s ^ face).bit_length() - 1].add((s, face))
    return {v: frozenset(es) for v, es in parts.items()}


@dataclass(frozen=True)
class DalmatianForm:
    """Closed-form horizontal homology of a dalmatian colouring."""

    ranks: dict
    generators: tuple[tuple[int, tuple[int, int]], ...]  # (simplex, (i, k))


def dalmatian_closed_form(X: SimplicialComplex, eps: Colouring) -> DalmatianForm:
    """One (0,0) generator per black vertex, one (d, d+1) generator per
    simplex outside every black closed star."""
    if not is_dalmatian(X, eps):
        raise InvalidColouring("colouring is not dalmatian")
    black = eps.black_vertices()
    generators = [(1 << v, (0, 0)) for v in black]
    for s in X.simplices:
        if any((s | (1 << v)) in X.simplices for v in black):
            continue
        d = dim_of(s)
        generators.append((s, (d, d + 1)))
    generators.sort(key=lambda g: (g[1], g[0]))
    ranks: dict = {}
    for _s, bigrading in generators:
        ranks[bigrading] = ranks.get(bigrading, 0) + 1
    return DalmatianForm(ranks, tuple(generators))

