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


def _is_matching(edges) -> bool:
    seen = set()
    for s, t in edges:
        if s in seen or t in seen:
            return False
        seen.add(s)
        seen.add(t)
    return True


def _matching_is_acyclic(X: SimplicialComplex, matching) -> bool:
    """Cycle check on the face poset with matched edges reversed.

    Directed cycles alternate between consecutive dimensions, so each
    (n, n-1) layer is checked independently by topological sort.
    """
    matched = set(matching)
    for n in range(1, X.dim + 1):
        upper = X.by_dim.get(n, ())
        adjacency: dict[int, list[int]] = {}
        indegree: dict[int, int] = {}
        for node in upper:
            adjacency.setdefault(node, [])
            indegree.setdefault(node, 0)
        for node in X.by_dim.get(n - 1, ()):
            adjacency.setdefault(node, [])
            indegree.setdefault(node, 0)
        for s in upper:
            for v in vertices_of(s):
                t = s ^ (1 << v)
                if not t:
                    continue
                if (s, t) in matched:
                    adjacency[t].append(s)
                    indegree[s] += 1
                else:
                    adjacency[s].append(t)
                    indegree[t] += 1
        queue = [node for node, deg in indegree.items() if deg == 0]
        visited = 0
        while queue:
            node = queue.pop()
            visited += 1
            for nxt in adjacency[node]:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    queue.append(nxt)
        if visited != len(indegree):
            return False
    return True


def _criticals(X: SimplicialComplex, edges) -> tuple[int, ...]:
    touched = set()
    for s, t in edges:
        touched.add(s)
        touched.add(t)
    free = [s for s in X.simplices if s not in touched]
    return tuple(sorted(free, key=lambda s: (dim_of(s), s)))


def verify_morse(X: SimplicialComplex, eps: Colouring) -> MorseReport:
    edges = induced_subgraph(X, eps)
    matching = _is_matching(edges)
    if not matching:
        return MorseReport(edges, False, False, ())
    acyclic = _matching_is_acyclic(X, edges)
    return MorseReport(edges, True, acyclic, _criticals(X, edges))


def elementary_decomposition(X: SimplicialComplex,
                             eps: Colouring) -> dict[int, frozenset[Edge]]:
    """Partition of the induced subgraph's edges by the dropped black vertex."""
    eps.check_length(X.vertex_count)
    parts: dict[int, set[Edge]] = {v: set() for v in eps.black_vertices()}
    for s in X.simplices:
        for v in vertices_of(s & eps.bits):
            face = s ^ (1 << v)
            if face:
                parts[v].add((s, face))
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

