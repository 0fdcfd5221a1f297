"""Finite simplicial complexes on a fixed ordered vertex universe.

A simplex is a nonempty bitmask over vertex indices; the universe is capped
at 64 vertices so every simplex fits in one machine word.  Complexes are
immutable.  Each builder closes or filters its simplex set so that it is
face-closed, unchecked at run time, and `tests/paper.checked_complex`
asserts it for every builder; only `uber._level` builds sets closed just
under dropping a black vertex (see SimplicialComplex).  A complex may be
void (zero simplices, as for an empty matching complex) while keeping the
ambient universe.
"""

from __future__ import annotations

from itertools import combinations

from ._value import Value
from .errors import CapExceeded, ComplexError, ParseError

MAX_VERTICES = 64
MAX_INPUT_FACES = 1 << 20  # read_complex refuses more, summed over facets, before closing them


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def vertices_of(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        v = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        out.append(v)
    return tuple(out)


def dim_of(mask: int) -> int:
    return mask.bit_count() - 1


class SimplicialComplex(Value):
    """Face-closed set of simplices over vertices 0..vertex_count-1, closed
    by construction and not checked here (`tests/paper.checked_complex`).
    `uber._level` builds sets closed only under dropping a black vertex,
    which is all that `horizontal_homology_with_bases` reads."""

    def __init__(self, vertex_count: int, simplices: frozenset[int]):
        self.__dict__.update(vertex_count=vertex_count, simplices=simplices)

    @property
    def is_void(self) -> bool:
        return not self.simplices

    def facets(self) -> list[int]:
        """Maximal simplices in (dimension, mask) order."""
        out = []
        for s in self.simplices:
            if not any((s | (1 << v)) in self.simplices
                       for v in range(self.vertex_count) if not s >> v & 1):
                out.append(s)
        return sorted(out, key=lambda s: (dim_of(s), s))

    def permuted(self, perm) -> "SimplicialComplex":
        """Relabel vertices: old index v becomes perm[v]."""
        if sorted(perm) != list(range(self.vertex_count)):
            raise ComplexError("not a permutation of the vertex universe")
        return SimplicialComplex(
            self.vertex_count,
            frozenset(mask_of(perm[v] for v in vertices_of(s)) for s in self.simplices))

    def suspension(self) -> "SimplicialComplex":
        """Join with two new apexes that never share a simplex."""
        if self.vertex_count + 2 > MAX_VERTICES:
            raise ComplexError("suspension exceeds the vertex cap")
        a1 = 1 << self.vertex_count
        a2 = a1 << 1
        out = set(self.simplices)
        out.update((a1, a2))
        out.update(s | a1 for s in self.simplices)
        out.update(s | a2 for s in self.simplices)
        return SimplicialComplex(self.vertex_count + 2, frozenset(out))


def from_facets(m: int, facets) -> SimplicialComplex:
    """Face closure of the given facets, plus every singleton in [0, m)."""
    return _closure(m, _facet_masks(m, facets))


def _facet_masks(m: int, facets) -> list[int]:
    if not 1 <= m <= MAX_VERTICES:
        raise ComplexError(f"vertex count must be in 1..{MAX_VERTICES}, got {m}")
    masks = []
    for facet in facets:
        vertices = tuple(facet)
        if not vertices:
            raise ComplexError("empty facet")
        # before mask_of, so a huge or negative index never becomes a shift
        if min(vertices) < 0 or max(vertices) >= m:
            raise ComplexError("facet vertex out of range")
        masks.append(mask_of(vertices))
    return masks


def _closure(m: int, masks: list[int]) -> SimplicialComplex:
    simplices = {1 << v for v in range(m)}
    for f in masks:
        stack = [f]
        while stack:
            s = stack.pop()
            if s in simplices:
                continue
            simplices.add(s)
            m2 = s
            while m2:
                v = m2 & -m2
                m2 &= m2 - 1
                face = s ^ v
                if face and face not in simplices:
                    stack.append(face)
    return SimplicialComplex(m, frozenset(simplices))


def standard_complex(name: str, *params: int) -> SimplicialComplex:
    """Builders for the named families with canonical vertex orderings."""
    try:
        builder = _STANDARD[name]
    except KeyError:
        raise ComplexError(f"unknown standard complex {name!r}") from None
    return builder(*params)


def _simplex(n: int) -> SimplicialComplex:
    if n < 0:
        raise ComplexError("simplex dimension must be nonnegative")
    return from_facets(n + 1, [range(n + 1)])


def _boundary(n: int) -> SimplicialComplex:
    if n < 1:
        raise ComplexError("boundary needs dimension at least 1")
    return from_facets(n + 1, combinations(range(n + 1), n))


def _cycle(m: int) -> SimplicialComplex:
    if m < 3:
        raise ComplexError("cycle needs at least 3 vertices")
    return from_facets(m, [(i, (i + 1) % m) for i in range(m)])


def _torus_min() -> SimplicialComplex:
    facets = [((i) % 7, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
    facets += [((i) % 7, (i + 2) % 7, (i + 3) % 7) for i in range(7)]
    return from_facets(7, facets)


def _rp2_min() -> SimplicialComplex:
    facets = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
              (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)]
    return from_facets(6, facets)


_STANDARD = {
    "simplex": _simplex,
    "boundary": _boundary,
    "cycle": _cycle,
    "torus_min": _torus_min,
    "rp2_min": _rp2_min,
}


def read_complex(text: str) -> SimplicialComplex:
    """Facet-list format: first line the vertex count, then one facet per
    line as space-separated 0-based indices; '#' starts a comment."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ParseError("empty complex description")
    try:
        m = int(lines[0])
    except ValueError:
        raise ParseError(f"first line must be the vertex count, got {lines[0]!r}") from None
    facets = []
    for line in lines[1:]:
        try:
            facet = [int(tok) for tok in line.split()]
        except ValueError:
            raise ParseError(f"bad facet line {line!r}") from None
        if any(v < 0 for v in facet):
            raise ParseError(f"negative vertex in facet line {line!r}")
        facets.append(facet)
    try:
        masks = _facet_masks(m, facets)
    except ComplexError as exc:
        raise ParseError(str(exc)) from None
    faces = sum((1 << f.bit_count()) - 1 for f in masks)
    if faces > MAX_INPUT_FACES:
        raise CapExceeded(f"the facets have {faces} faces counted with repeats; "
                          f"{MAX_INPUT_FACES} is the limit for an input complex")
    return _closure(m, masks)


def format_complex(X: SimplicialComplex) -> str:
    return _format_facets(X.vertex_count, X.facets())


def _format_facets(vertex_count: int, facets) -> str:
    """The text form of a complex, given its facets in (dimension, mask) order."""
    lines = [str(vertex_count)]
    lines += [" ".join(map(str, vertices_of(f))) for f in facets]
    return "\n".join(lines) + "\n"
