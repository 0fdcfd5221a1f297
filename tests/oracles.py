"""Brute-force reference implementations used only by the tests.

Everything here recomputes results from first principles with deliberately
different data representations than the package uses (vertex frozensets and
0/1 list-of-list matrices instead of int bitsets), so a shared bug between
oracle and implementation is unlikely.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction

from uberhom import SimplicialComplex, f2, graphs, planar, uber, vertices_of
from uberhom.coloured import (Colouring, horizontal_homology_with_bases, horizontal_ranks,
                              simplicial_homology)

from paper import reduced_homology


# ---------------------------------------------------------------------------
# GF(2) linear algebra on list-of-list matrices


def gf2_rank(rows) -> int:
    """Rank of a 0/1 matrix given as an iterable of equal-length rows."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    pivot_row = 0
    for col in range(ncols):
        pivot = next((r for r in range(pivot_row, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col]:
                rows[r] = [a ^ b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        rank += 1
        if pivot_row == len(rows):
            break
    return rank


def map_rank(sources, targets, face_map) -> int:
    """Rank of the GF(2) map sending each source generator to face_map(source).

    face_map returns an iterable of targets; repeats cancel mod 2.  Targets
    missing from the target list are dropped (callers never rely on that).
    """
    if not sources or not targets:
        return 0
    index = {t: i for i, t in enumerate(targets)}
    rows = []
    for s in sources:
        row = [0] * len(targets)
        for t in face_map(s):
            if t in index:
                row[index[t]] ^= 1
        rows.append(row)
    return gf2_rank(rows)


# ---------------------------------------------------------------------------
# simplicial complexes as sets of vertex frozensets


def close_downward(facets):
    """All nonempty faces of the given facets."""
    out = set()
    for f in facets:
        f = tuple(f)
        for r in range(1, len(f) + 1):
            out.update(map(frozenset, itertools.combinations(f, r)))
    return out


def _faces(s):
    return [s - {v} for v in s] if len(s) > 1 else []


def naive_simplicial_homology(facets, reduced=False) -> dict[int, int]:
    """F2 Betti numbers from full boundary matrices; keys with rank 0 omitted."""
    by_dim: dict[int, list] = {}
    for s in close_downward(facets):
        by_dim.setdefault(len(s) - 1, []).append(s)
    ranks: dict[int, int] = {}
    for d, gens in by_dim.items():
        out_rank = map_rank(gens, by_dim.get(d - 1, []), _faces)
        in_rank = map_rank(by_dim.get(d + 1, []), gens, _faces)
        betti = len(gens) - out_rank - in_rank
        if d == 0 and reduced and gens:
            betti -= 1
        if betti:
            ranks[d] = betti
    return ranks


def naive_horizontal(facets, black) -> dict[tuple[int, int], int]:
    """Bigraded horizontal homology straight from the definition.

    Grading: (simplex dimension, number of white vertices).  The partial
    boundary deletes one black vertex at a time and keeps the weight.
    """
    black = frozenset(black)
    groups: dict[tuple[int, int], list] = {}
    for s in close_downward(facets):
        groups.setdefault((len(s) - 1, len(s - black)), []).append(s)

    def faces(s):
        return [s - {v} for v in (s & black)] if len(s) > 1 else []

    ranks: dict[tuple[int, int], int] = {}
    for (i, k), gens in groups.items():
        out_rank = map_rank(gens, groups.get((i - 1, k), []), faces)
        in_rank = map_rank(groups.get((i + 1, k), []), gens, faces)
        r = len(gens) - out_rank - in_rank
        if r:
            ranks[(i, k)] = r
    return ranks


def naive_diagonal(facets, black) -> dict[tuple[int, int], int]:
    """Bigraded diagonal homology: delete one white vertex, weight drops."""
    black = frozenset(black)
    groups: dict[tuple[int, int], list] = {}
    for s in close_downward(facets):
        groups.setdefault((len(s) - 1, len(s - black)), []).append(s)

    def faces(s):
        return [s - {v} for v in (s - black)] if len(s) > 1 else []

    ranks: dict[tuple[int, int], int] = {}
    for (i, k), gens in groups.items():
        out_rank = map_rank(gens, groups.get((i - 1, k - 1), []), faces)
        in_rank = map_rank(groups.get((i + 1, k + 1), []), gens, faces)
        r = len(gens) - out_rank - in_rank
        if r:
            ranks[(i, k)] = r
    return ranks


def check_split_boundaries(simplices, black):
    """Raise AssertionError unless the two halves of the boundary of a
    coloured complex form a double complex.

    The horizontal half drops one black vertex, the diagonal half one white
    vertex.  Each must square to zero, the two must anticommute (commute,
    mod 2), and every face they reach must be a simplex of the complex.
    """
    simplices = {frozenset(s) for s in simplices}
    black = frozenset(black)

    def drop(chain, droppable):
        out = set()
        for s in chain:
            if len(s) > 1:
                for v in droppable(s):
                    out ^= {s - {v}}
        return out

    def horizontal(chain):
        return drop(chain, lambda s: s & black)

    def diagonal(chain):
        return drop(chain, lambda s: s - black)

    for s in simplices:
        h, d = horizontal({s}), diagonal({s})
        if not (h | d) <= simplices:
            raise AssertionError("a boundary face is missing from the complex")
        if horizontal(h):
            raise AssertionError("horizontal differential does not square to zero")
        if diagonal(d):
            raise AssertionError("diagonal differential does not square to zero")
        if diagonal(h) != horizontal(d):
            raise AssertionError("differentials do not anticommute")


def gf2_left_nullspace(rows) -> list[list[int]]:
    """Basis of the combinations of the given 0/1 rows that sum to zero, as
    0/1 lists over the row indices (one elimination of rows augmented by the
    identity)."""
    width = len(rows[0]) if rows else 0
    aug = [list(r) + [int(i == g) for i in range(len(rows))] for g, r in enumerate(rows)]
    done = 0
    for col in range(width):
        pivot = next((r for r in range(done, len(aug)) if aug[r][col]), None)
        if pivot is None:
            continue
        aug[done], aug[pivot] = aug[pivot], aug[done]
        for r in range(len(aug)):
            if r != done and aug[r][col]:
                aug[r] = [a ^ b for a, b in zip(aug[r], aug[done])]
        done += 1
    return [row[width:] for row in aug[done:]]


def _chain_rank(chains) -> int:
    """Rank of a list of chains, each a set of hashable coordinates."""
    coords = list({c for chain in chains for c in chain})
    rows = [[int(c in chain) for c in coords] for chain in chains if chain]
    return gf2_rank(rows)


def naive_uber(m: int, facets) -> dict:
    """Trigraded colour-cube ranks {(j, i, k): rank} from chains of vertex
    frozensets, over every black set S of the m vertices.

    Level j of the (i, k) tower is the sum of the horizontal homologies of
    the colourings with j black vertices.  Its differential sends a cycle z
    at S to the sum over white v of z minus its simplices through v, placed
    at S + v.  With Z_j the cycles of level j and B_j its boundaries, the
    induced map on homology has rank rank(f(Z_j) + B_{j+1}) - rank(B_{j+1}).
    """
    simplices = close_downward(facets)
    blacks = [frozenset(c) for r in range(m + 1)
              for c in itertools.combinations(range(m), r)]
    chains: dict = {}  # (i, k) -> {S: simplices of dimension i with k white}
    for S in blacks:
        for s in simplices:
            chains.setdefault((len(s) - 1, len(s - S)), {}).setdefault(S, []).append(s)

    result: dict = {}
    for (i, k), groups in chains.items():
        cycles: dict = {}  # S -> list of cycle chains
        bounds: dict = {}  # S -> list of boundary chains
        homology = {j: 0 for j in range(m + 1)}
        for S, gens in groups.items():
            bds = [horizontal_boundary({s}, S) for s in gens]
            faces = list(set().union(*bds))
            rows = [[int(f in b) for f in faces] for b in bds]
            cycles[S] = [frozenset(g for g, x in zip(gens, kernel) if x)
                         for kernel in gf2_left_nullspace(rows)]
            above = chains.get((i + 1, k), {}).get(S, [])
            bounds[S] = [horizontal_boundary({t}, S) for t in above]
            homology[len(S)] += len(cycles[S]) - _chain_rank(bounds[S])

        def image(S, z):
            return {(S | {v}, s) for v in set(range(m)) - S for s in z if v not in s}

        ranks = {}
        for j in range(m):
            boundaries = [{(S, s) for s in b} for S in bounds if len(S) == j + 1
                          for b in bounds[S]]
            images = [image(S, z) for S in cycles if len(S) == j for z in cycles[S]]
            ranks[j] = _chain_rank(images + boundaries) - _chain_rank(boundaries)
        for j in range(m + 1):
            r = homology[j] - ranks.get(j, 0) - ranks.get(j - 1, 0)
            if r:
                result[(j, i, k)] = r
    return result


def core_engine_cube(X: SimplicialComplex) -> dict:
    """Colour-cube ranks {(j, i, k): rank} by the engine without cone pruning:
    each colouring's blocks are taken on every simplex of X whose white part
    is empty or a face of the star intersection, a subcomplex."""
    m = X.vertex_count
    core = {0, *uber.star_intersection(X)}

    def level(j):
        return {mask: horizontal_homology_with_bases(
                    SimplicialComplex(m, frozenset(s for s in X.simplices
                                                   if s & ~mask in core)),
                    Colouring(mask, m))
                for mask in uber.level_masks(m, j)}

    ranks = uber.cube_ranks(m, level, lambda block: block.hom.rank,
                            lambda source, target, v: uber.d_eta_matrix(source, target, v).columns)
    return {(j, i, k): r for (j, (i, k)), r in ranks.items()}


def unquotiented_chain_ranks(blocks: dict, down, droppable: int) -> dict:
    """`coloured._chain_ranks` without the star quotient: every simplex of a
    chain gets a column, reduced top-down with Chen-Kerber clearing.  The
    differential drops one droppable vertex and maps block key to block
    down(key); a block whose target is absent maps to zero."""

    def columns(masks, target):
        for s in masks:
            col = 0
            for v in vertices_of(s & droppable):
                col |= 1 << target[s ^ 1 << v]
            yield col

    out_rank, in_rank = {}, {}
    for key in blocks.keys() - {down(k) for k in blocks}:
        cleared = set()
        while (below := down(key)) in blocks:
            target = {s: p for p, s in enumerate(blocks[below])}
            kept = (s for p, s in enumerate(blocks[key]) if p not in cleared)
            pivots: dict = {}
            out_rank[key] = in_rank[below] = f2.rank_of(columns(kept, target), pivots=pivots)
            cleared, key = set(pivots), below
    return {key: h for key, masks in blocks.items()
            if (h := len(masks) - out_rank.get(key, 0) - in_rank.get(key, 0))}


def d_eta_chain(chain, v) -> frozenset:
    """Cube edge map on a chain of vertex frozensets: delete every simplex
    containing v."""
    return frozenset(s for s in chain if v not in s)


def horizontal_boundary(chain, black) -> frozenset:
    """Mod-2 horizontal boundary of a chain of vertex frozensets: drop one
    black vertex at a time, discarding empty faces."""
    out: set = set()
    for s in chain:
        for v in s & frozenset(black):
            if len(s) > 1:
                out ^= {s - {v}}
    return frozenset(out)


# ---------------------------------------------------------------------------
# graphs as (n, edge set)


def components(n: int, edges) -> list[frozenset]:
    """Connected components of the graph on vertices 0..n-1."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen: set[int] = set()
    out = []
    for start in range(n):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        out.append(frozenset(comp))
    return out


def naive_graph_h0(n: int, edges) -> dict[int, int]:
    """Degree-0 graph homology from the full colour cube of components.

    Level j holds one generator per connected component of the subgraph
    induced on each j-element black set; the differential sends a component
    class to its image component after blackening one more vertex.
    """
    edges = [tuple(e) for e in edges]

    def comps_of(black: frozenset) -> list[frozenset]:
        sub = [e for e in edges if e[0] in black and e[1] in black]
        adj = {v: set() for v in black}
        for u, v in sub:
            adj[u].add(v)
            adj[v].add(u)
        seen: set[int] = set()
        out = []
        for start in sorted(black):
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                u = stack.pop()
                for w in adj[u]:
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            out.append(frozenset(comp))
        return out

    levels: dict[int, list] = {j: [] for j in range(n + 1)}
    for r in range(n + 1):
        for black in itertools.combinations(range(n), r):
            black = frozenset(black)
            for comp in comps_of(black):
                levels[r].append((black, comp))

    def diff_rank(j: int) -> int:
        sources = levels.get(j, [])
        targets = levels.get(j + 1, [])

        def image(gen):
            black, comp = gen
            out = []
            for v in set(range(n)) - black:
                bigger = black | {v}
                for tcomp in comps_of(bigger):
                    if comp <= tcomp:
                        out.append((bigger, tcomp))
                        break
            return out

        return map_rank(sources, targets, image)

    ranks: dict[int, int] = {}
    for j in range(n + 1):
        r = len(levels.get(j, [])) - diff_rank(j) - (diff_rank(j - 1) if j else 0)
        if r:
            ranks[j] = r
    return ranks


def all_matchings(edges) -> list[frozenset]:
    """Every set of pairwise vertex-disjoint edge indices, empty set included."""
    edges = [tuple(e) for e in edges]
    out = [frozenset()]

    def rec(i, used, cur):
        for j in range(i, len(edges)):
            u, v = edges[j]
            if u in used or v in used:
                continue
            nxt = cur | {j}
            out.append(frozenset(nxt))
            rec(j + 1, used | {u, v}, nxt)

    rec(0, set(), frozenset())
    return out


def crossing_set_overlay_ranks(T) -> dict[tuple[int, int], int]:
    """Theorem 4.2's split of a Tait overlay's horizontal ranks with no
    symmetry: one reduced survivor homology per set of crossings that a
    white matching uses, weighted by the number of such matchings."""
    black, white = T.black_edges(), T.white_edges()
    ranks = {(d, 0): r for d, r in
             simplicial_homology(graphs.matching_complex_of_edges(black)).items()}
    uses = Counter(frozenset(white[i][0] for i in m) for m in all_matchings(white) if m)
    for removed, count in uses.items():
        k = len(removed)
        survivors = [be for be in black if be[0] not in removed]
        M = graphs.matching_complex_of_edges(survivors)
        for dim, r in reduced_homology(M).items():
            ranks[(dim + k, k)] = ranks.get((dim + k, k), 0) + count * r
    return ranks


def per_white_part_blocks(edges, part: int) -> dict[tuple[int, int], list[int]]:
    """Every nonempty matching of an edge list, from the full enumeration of
    `graphs.matching_complex_of_edges`, filed under (dimension, W), W its
    part edges: the chain of W's summand, W itself included when not 0."""
    blocks: dict[tuple[int, int], list[int]] = {}
    for s in graphs.matching_complex_of_edges(edges).simplices:
        blocks.setdefault((s.bit_count() - 1, s & part), []).append(s)
    return blocks


def per_white_part_left_side(T) -> dict[tuple[int, int], int]:
    """`planar.theorem42_verify`'s left side with every white matching's
    chain filed and reduced on its own, keyed by (i, k)."""
    eps = planar.tait_colouring(T)
    return horizontal_ranks(per_white_part_blocks(T.overlay_edges, ~eps.bits), eps.bits)


def naive_girth(n: int, edges):
    """Shortest cycle length by BFS from every vertex, None for forests."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    best = None
    for start in range(n):
        dist = {start: 0}
        parent = {start: -1}
        queue = [start]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    length = dist[u] + dist[w] + 1
                    if best is None or length < best:
                        best = length
    return best


def naive_min_cover(n: int, edges) -> int:
    """Minimum vertex cover size by subset enumeration in ascending size."""
    edges = [tuple(e) for e in edges]
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            chosen = set(combo)
            if all(u in chosen or v in chosen for u, v in edges):
                return size
    raise AssertionError("full vertex set always covers")


def is_tree(vertices: frozenset, edges) -> bool:
    """The induced subgraph on the given vertices is a nonempty tree."""
    if not vertices:
        return False
    induced = [e for e in edges if e[0] in vertices and e[1] in vertices]
    if len(induced) != len(vertices) - 1:
        return False
    comp = components(max(vertices) + 1, induced)
    return any(vertices <= c for c in comp)


# ---------------------------------------------------------------------------
# dissimilarity, pair by pair


def naive_dissimilarity(G1, G2):
    """(value, first differing level, theta-equivalent) of Delta(G1, G2),
    comparing Theta levels of the pair from level 0 until they differ.

    This is the corpus refinement's reference for its comparisons, not for
    Theta itself (which tests check against naive_horizontal).  It calls
    graphs.theta through the module, so a test can count its calls."""
    if G1.vertex_count != G2.vertex_count:
        return None, None, False
    m = G1.vertex_count
    for j in range(m + 1):
        if graphs.theta(G1, j).entries != graphs.theta(G2, j).entries:
            return Fraction(m - j, m), j, False
    return Fraction(0), None, True
