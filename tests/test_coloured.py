"""Unit tests for colourings and the bigraded filtered homology."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uberhom import coloured
from uberhom import (
    Colouring,
    ColouringMismatch,
    EngineError,
    InvalidColouring,
    ParseError,
    SimplicialComplex,
    diagonal_homology,
    dual_grading,
    filtered_homology,
    from_facets,
    graded_euler,
    horizontal_homology,
    horizontal_homology_with_bases,
    mask_of,
    simplicial_homology,
    standard_complex,
    vertices_of,
)
from uberhom.graphs import matching_blocks

from oracles import (check_split_boundaries, naive_diagonal, naive_horizontal,
                     naive_simplicial_homology, unquotiented_chain_ranks)
from paper import (black_subcomplex, euler_characteristic, f_vector, flatten,
                   reduced_homology, weight)


def facet_sets(X):
    return [vertices_of(f) for f in X.facets()]


def test_colouring_basics():
    eps = Colouring.from_string("0110")
    assert eps.bits == 0b0110
    assert eps.length == 4
    assert eps.bits.bit_count() == 2 and not eps.bits & 1 and eps.bits >> 1 & 1
    assert eps.black_vertices() == (1, 2)
    assert str(eps) == "0110"
    assert eps.complement() == Colouring.from_string("1001")
    assert str(Colouring(0b111, 3)) == "111" and str(Colouring(0, 3)) == "000"
    assert Colouring.elementary(4, 2) == Colouring.from_string("0010")
    assert Colouring(mask_of((0, 3)), 4) == Colouring.from_string("1001")


def test_colouring_validation():
    with pytest.raises(ParseError):
        Colouring.from_string("01x")
    with pytest.raises(ParseError):
        Colouring.from_string("")
    with pytest.raises(InvalidColouring):
        Colouring(8, 3)
    with pytest.raises(InvalidColouring):
        Colouring(-1, 3)
    with pytest.raises(InvalidColouring):
        Colouring.elementary(3, 5)
    with pytest.raises(ColouringMismatch):
        Colouring.from_string("01").check_length(3)
    with pytest.raises(ColouringMismatch):
        horizontal_homology(standard_complex("simplex", 2),
                            Colouring.from_string("01"))


def test_weight_counts_white_vertices():
    eps = Colouring.from_string("101")
    assert weight(0b111, eps) == 1
    assert weight(0b010, eps) == 1
    assert weight(0b101, eps) == 0
    with pytest.raises(ColouringMismatch):
        weight(0b1000, eps)


def exhaustive_pairs(suite, limit_vertices=5):
    """(complex, colouring) pairs: exhaustive up to the vertex limit, a seeded
    sample above it."""
    rng = random.Random(41)
    for name, X in suite:
        m = X.vertex_count
        if m <= limit_vertices:
            bit_range = range(1 << m)
        else:
            bit_range = [rng.randrange(1 << m) for _ in range(12)] + [0, (1 << m) - 1]
        for bits in bit_range:
            yield X, Colouring(bits, m)


def test_horizontal_matches_oracle(suite):
    for X, eps in exhaustive_pairs(suite, limit_vertices=4):
        expected = naive_horizontal(facet_sets(X), eps.black_vertices())
        assert horizontal_homology(X, eps) == expected


def test_diagonal_matches_oracle(suite):
    for X, eps in exhaustive_pairs(suite, limit_vertices=4):
        expected = naive_diagonal(facet_sets(X), eps.black_vertices())
        assert diagonal_homology(X, eps) == expected


def test_all_black_recovers_simplicial_homology(suite):
    for name, X in suite:
        ranks = horizontal_homology(X, Colouring((1 << X.vertex_count) - 1, X.vertex_count))
        assert all(k == 0 for (_, k) in ranks), name
        assert {i: r for (i, k), r in ranks.items()} == simplicial_homology(X), name


def test_all_white_gives_chain_ranks(suite):
    for name, X in suite:
        ranks = horizontal_homology(X, Colouring(0, X.vertex_count))
        expected = {(d, d + 1): n for d, n in enumerate(f_vector(X)) if n}
        assert ranks == expected, name


def test_boundaries_square_to_zero(suite):
    for X, eps in exhaustive_pairs(suite, limit_vertices=4):
        check_split_boundaries(map(vertices_of, X.simplices), eps.black_vertices())


@st.composite
def coloured_complexes(draw, max_vertices=5):
    """A complex on at most max_vertices vertices, from up to 6 random
    facets, and a colouring of it."""
    m = draw(st.integers(1, max_vertices))
    facets = draw(st.lists(st.sets(st.integers(0, m - 1), min_size=1),
                           min_size=1, max_size=6))
    X = from_facets(m, facets)
    return X, Colouring(draw(st.integers(0, (1 << m) - 1)), m)


@settings(max_examples=300)
@given(coloured_complexes())
def test_homology_matches_oracles_on_random_complexes(case):
    X, eps = case
    facets = facet_sets(X)
    black = eps.black_vertices()
    assert horizontal_homology(X, eps) == naive_horizontal(facets, black)
    assert diagonal_homology(X, eps) == naive_diagonal(facets, black)
    assert simplicial_homology(X) == naive_simplicial_homology(facets)
    assert reduced_homology(X) == naive_simplicial_homology(facets, reduced=True)


@settings(max_examples=200)
@given(coloured_complexes())
def test_filtered_homology_matches_oracle(case):
    """Every truncation, from the empty one at k = -1 to all of X at k = m,
    against the brute-force homology of its simplices."""
    X, eps = case
    for k in range(-1, X.vertex_count + 1):
        kept = [vertices_of(s) for s in X.simplices if weight(s, eps) <= k]
        assert filtered_homology(X, eps, k) == naive_simplicial_homology(kept), k


def test_rank_only_homology_clears(rank_of_columns):
    """Each chain is reduced relative to the star of one vertex b and
    top-down, skipping the simplices that are pivots of the image from the
    dimension above.  On the boundary of the 8-simplex, every simplex but
    the facet opposite b lies in b's star, so one column is left, where the
    unquotiented route needs 255 (sum(rank d) + sum(h in dimension >= 1)).
    Each vertex of torus_min lies in 6 of its 14 triangles, and the
    relative complex keeps 8 triangles, the 9 edges outside b's link and no
    vertex: clearing cuts its 17 columns to 10 (22 unquotiented)."""
    assert simplicial_homology(standard_complex("boundary", 8)) == {0: 1, 7: 1}
    assert len(rank_of_columns) == 1
    rank_of_columns.clear()
    assert simplicial_homology(standard_complex("torus_min")) == {0: 1, 1: 2, 2: 1}
    assert len(rank_of_columns) == 10


def test_broken_closure_raises_engine_error():
    """A face missing from the block below is an engine error that names the
    closure law, in the rank-only reduction and in block homology with
    bases alike.  In the forest 01, 12, 13, 34, 45 the star vertex is 1, in
    three edges; edge 45 keeps its column, and its face 5 is dropped."""
    edges = [0b000011, 0b000110, 0b001010, 0b011000, 0b110000]
    points = [1 << v for v in range(6)]
    assert coloured.horizontal_ranks({(1, 0): edges, (0, 0): points}, -1) == {(0, 0): 1}
    with pytest.raises(EngineError, match="closure law") as caught:
        coloured.horizontal_ranks({(1, 0): edges, (0, 0): points[:5]}, -1)
    assert caught.value.exit_code == 5
    X = SimplicialComplex(2, frozenset({0b01, 0b11}))
    with pytest.raises(EngineError, match="closure law"):
        horizontal_homology_with_bases(X, Colouring(0b11, 2))


def _both_routes(compute):
    """compute() through the star quotient, then through the oracle."""
    quotiented = compute()
    with mock.patch.object(coloured, "_chain_ranks", unquotiented_chain_ranks):
        return quotiented, compute()


@settings(max_examples=200)
@given(coloured_complexes(max_vertices=7))
def test_star_quotient_matches_unquotiented_route(case):
    X, eps = case
    augmented = {-1: [0]}  # the boundary onto the empty simplex: reduced chains
    for s in X.simplices:
        augmented.setdefault(s.bit_count() - 1, []).append(s)
    for compute in (lambda: horizontal_homology(X, eps),
                    lambda: [filtered_homology(X, eps, k)
                             for k in range(-1, X.vertex_count + 1)],
                    lambda: simplicial_homology(X),
                    lambda: coloured._chain_ranks(augmented, lambda d: d - 1, -1)):
        quotiented, oracle = _both_routes(compute)
        assert quotiented == oracle


@settings(max_examples=200)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1]), max_size=9),
    st.integers(0, (1 << 9) - 1), st.booleans())))
def test_star_quotient_on_matching_blocks(case):
    """Matching complexes filed by a random white part, unreduced or with
    the empty matching added, as the survivor complexes of `tait` are."""
    edges, part, reduced = case
    blocks = matching_blocks(edges, part)
    if reduced:
        blocks[(-1, 0)] = [0]
    down = lambda dw: (dw[0] - 1, dw[1])
    assert coloured._chain_ranks(blocks, down, ~part) == \
        unquotiented_chain_ranks(blocks, down, ~part)


@pytest.mark.parametrize("blocks, down, droppable, expected", [
    ({}, lambda d: d - 1, -1, {}),  # the void complex
    ({-1: [0]}, lambda d: d - 1, -1, {-1: 1}),  # the void complex, reduced
    ({0: [0b1, 0b10, 0b100]}, lambda d: d - 1, -1, {0: 3}),  # one block
    ({(1, 0b11): [0b11]}, lambda dw: (dw[0] - 1, dw[1]), 0b100, {(1, 0b11): 1}),  # W only
    ({(2, 0b11): [0b111], (1, 0b11): [0b11]}, lambda dw: (dw[0] - 1, dw[1]), 0b100, {}),
])
def test_star_quotient_on_small_chains(blocks, down, droppable, expected):
    assert coloured._chain_ranks(blocks, down, droppable) == expected
    assert unquotiented_chain_ranks(blocks, down, droppable) == expected


def summand_ranks(X, kept) -> dict[tuple[int, int], int]:
    """Oracle ranks of the direct sum, over kept parts P, of the complexes
    {Q disjoint from kept : P | Q in X}: unreduced for P empty, reduced
    otherwise (the void one has rank 1 in degree -1).  Keyed by
    (|P| + degree, |P|)."""
    kept = frozenset(kept)
    simplices = [frozenset(vertices_of(s)) for s in X.simplices]
    out: dict[tuple[int, int], int] = {}
    for part in {s & kept for s in simplices} | {frozenset()}:
        faces = [s - part for s in simplices if s & kept == part and s != part]
        if not part:
            hom = naive_simplicial_homology(faces)
        else:
            hom = naive_simplicial_homology(faces, reduced=True) if faces else {-1: 1}
        for degree, r in hom.items():
            key = (degree + len(part), len(part))
            out[key] = out.get(key, 0) + r
    return out


@settings(max_examples=200)
@given(coloured_complexes(max_vertices=6))
def test_homology_splits_over_fixed_parts(case):
    """Horizontal homology is the direct sum over white faces W of the
    reduced homology of the black link of W shifted by |W|, plus the black
    subcomplex at weight 0; diagonal homology splits over black faces."""
    X, eps = case
    black = set(eps.black_vertices())
    white = set(range(X.vertex_count)) - black
    hh = horizontal_homology(X, eps)
    black_faces = [vertices_of(s) for s in X.simplices if not s & ~eps.bits]
    assert {i: r for (i, k), r in hh.items() if k == 0} == \
        naive_simplicial_homology(black_faces)
    assert hh == summand_ranks(X, white)
    assert diagonal_homology(X, eps) == \
        {(i, i + 1 - b): r for (i, b), r in summand_ranks(X, black).items()}


def test_horizontal_diagonal_duality(suite):
    """Deleting white vertices in eps mirrors deleting black ones in the
    complement, with the weight regraded k -> i + 1 - k: the route
    `diagonal --generators` takes, against the diagonal oracle."""
    for X, eps in exhaustive_pairs(suite):
        blocks = dual_grading(horizontal_homology_with_bases(X, eps.complement()))
        ranks = {key: blk.hom.rank for key, blk in blocks.items() if blk.hom.rank}
        assert ranks == naive_diagonal(facet_sets(X), eps.black_vertices())


def test_flatten_sums_ranks():
    ranks = {(0, 0): 1, (1, 0): 2, (1, 2): 3}
    assert flatten(ranks) == {0: 1, 1: 5}
    assert flatten({}) == {}


def test_with_bases_matches_rank_only(suite):
    for X, eps in exhaustive_pairs(suite, limit_vertices=4):
        blocks = horizontal_homology_with_bases(X, eps)
        ranks = {key: blk.hom.rank for key, blk in blocks.items() if blk.hom.rank}
        assert ranks == horizontal_homology(X, eps)
        for key, blk in blocks.items():
            assert len(blk.basis) == blk.hom.dim


def test_filtered_homology_interpolates(suite):
    for name, X in suite:
        m = X.vertex_count
        rng = random.Random(43)
        for bits in ([0, (1 << m) - 1]
                     + [rng.randrange(1 << m) for _ in range(6)]):
            eps = Colouring(bits, m)
            assert filtered_homology(X, eps, m) == simplicial_homology(X)
            bl = black_subcomplex(X, eps)
            expected = simplicial_homology(bl) if bl is not None else {}
            assert filtered_homology(X, eps, 0) == expected
            # ranks at the cut equal homology of the weight<=k subcomplex;
            # for k >= 1 every singleton survives, so from_facets rebuilds
            # exactly that subcomplex
            for k in range(1, m):
                kept = [vertices_of(s) for s in X.simplices
                        if weight(s, eps) <= k]
                sub = from_facets(m, kept)
                assert filtered_homology(X, eps, k) == \
                    simplicial_homology(sub), (name, bits, k)


def test_graded_euler_properties(suite):
    for X, eps in exhaustive_pairs(suite):
        coefficients = graded_euler(X, eps)
        assert sum(coefficients.values()) == euler_characteristic(X)
        bl = black_subcomplex(X, eps)
        assert coefficients.get(0, 0) == (euler_characteristic(bl) if bl is not None else 0)
        # the simplex count equals the alternating sum of the horizontal ranks
        alternating: dict[int, int] = {}
        for (i, k), r in horizontal_homology(X, eps).items():
            alternating[k] = alternating.get(k, 0) + (-1) ** i * r
        assert coefficients == {k: c for k, c in alternating.items() if c}
        assert list(coefficients) == sorted(coefficients)


def test_black_subcomplex():
    X = standard_complex("boundary", 2)
    bl = black_subcomplex(X, Colouring.from_string("110"))
    assert bl is not None
    assert {vertices_of(s) for s in bl.simplices} == {(0,), (1,), (0, 1)}
    assert black_subcomplex(X, Colouring(0, 3)) is None
