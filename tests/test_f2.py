"""Unit tests for the GF(2) linear algebra layer."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uberhom.errors import EngineError
from uberhom.f2 import BitMatrix, homology_at, insert, kernel_and_image, rank_of

from oracles import gf2_rank

PROPERTY = settings(max_examples=300, derandomize=True, deadline=None)


def vec_to_list(v: int, n: int) -> list[int]:
    return [(v >> i) & 1 for i in range(n)]


def low_bit(v: int) -> int:
    return (v & -v).bit_length() - 1


def random_columns(rng, rows, cols, density=0.5) -> list[int]:
    return [sum(1 << i for i in range(rows) if rng.random() < density)
            for _ in range(cols)]


def apply(columns, x: int) -> int:
    """Image of x, a bitset over column indices."""
    out = 0
    for j, col in enumerate(columns):
        if x >> j & 1:
            out ^= col
    return out


def oracle_rank(vectors, n: int) -> int:
    return gf2_rank(vec_to_list(v, n) for v in vectors)


def transpose(columns, rows: int) -> list[int]:
    return [sum((col >> i & 1) << j for j, col in enumerate(columns))
            for i in range(rows)]


def is_reduced(rows) -> bool:
    """Sorted by pivot, and each pivot bit is set in its own row only."""
    pivots = [low_bit(r) for r in rows]
    return (0 not in rows and pivots == sorted(set(pivots))
            and all(sum(r >> p & 1 for r in rows) == 1 for p in pivots))


@st.composite
def matrices(draw, max_rows=7, max_cols=7):
    """(rows, columns) of a GF(2) matrix, columns as ints."""
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    columns = draw(st.lists(st.integers(0, (1 << rows) - 1),
                            min_size=cols, max_size=cols))
    return rows, columns


def test_echelon_is_canonical():
    """The kernel basis is the reduced echelon basis of the kernel, so it
    depends only on the kernel: row operations on the codomain keep it."""
    rng = random.Random(7)
    for _ in range(80):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 8)
        columns = random_columns(rng, rows, cols)
        ker, _ = kernel_and_image(columns)
        assert is_reduced(ker)
        assert all(apply(columns, v) == 0 for v in ker)
        brute = [x for x in range(1 << cols) if apply(columns, x) == 0]
        assert 1 << len(ker) == len(brute)
        # add codomain row a to row b: an invertible map, same kernel
        a, b = rng.sample(range(rows), 2) if rows > 1 else (0, 0)
        if a != b:
            moved = [c ^ ((c >> a & 1) << b) for c in columns]
            assert kernel_and_image(moved)[0] == ker


def test_rank_matches_naive_oracle():
    rng = random.Random(11)
    for _ in range(60):
        rows, cols = rng.randrange(0, 8), rng.randrange(1, 8)
        columns = random_columns(rng, rows, cols)
        expected = oracle_rank(columns, rows)
        assert rank_of(columns) == expected
        assert rank_of(iter(columns)) == expected
        assert rank_of(transpose(columns, rows)) == expected


@PROPERTY
@given(matrices())
def test_kernel_and_image_dimensions_and_membership(matrix):
    rows, columns = matrix
    rank = oracle_rank(columns, rows)
    ker, img = kernel_and_image(columns)
    assert rank_of(columns) == rank == len(img)
    assert len(ker) + len(img) == len(columns)
    assert is_reduced(ker)
    for v in ker:
        assert v >> len(columns) == 0
        assert apply(columns, v) == 0
    # image rows are independent (distinct lowest bits) and in the column span
    assert len({low_bit(w) for w in img}) == len(img)
    for w in img:
        assert w and w >> rows == 0
        assert oracle_rank(columns + [w], rows) == rank


def test_bitmatrix_validation():
    assert BitMatrix(2, 3, (0, 1, 3)).columns == (0, 1, 3)
    with pytest.raises(ValueError):
        BitMatrix(2, 3, (0,))
    with pytest.raises(ValueError):
        BitMatrix(1, 2, (1, 2))


def test_subspace_basis_membership():
    pivots = {}
    assert insert(pivots, 0b0011)
    assert insert(pivots, 0b0110)
    assert not insert(pivots, 0b0101)  # dependent on the first two
    assert not insert(pivots, 0)
    assert len(pivots) == 2
    assert all(low_bit(row) == p for p, row in pivots.items())
    probe = dict(pivots)
    assert insert(probe, 0b1000)
    assert len(pivots) == 2


def test_homology_at_square_rule():
    # chain complex F^1 -> F^2 -> F^1 with matching maps d([e]) = a+b,
    # d(a) = d(b) = p: composes to zero, homology is trivial everywhere
    d2 = [0b11]
    d1 = [1, 1]
    ker2, img2 = kernel_and_image(d2)
    ker1, img1 = kernel_and_image(d1)
    middle = homology_at(ker1, img2, 2)
    assert middle.rank == 0
    top = homology_at(ker2, [], 1)
    assert top.rank == 0
    bottom = homology_at([1], img1, 1)
    assert bottom.rank == 0  # p is the boundary of either edge


def test_homology_at_rejects_nonsquaring_maps():
    d2 = [0b01]  # d(e) = a, but d(a) = p
    d1 = [1, 1]
    with pytest.raises(EngineError, match="compose to zero"):
        homology_at(kernel_and_image(d1)[0], kernel_and_image(d2)[1], 2)
    with pytest.raises(ValueError):
        homology_at([0b100], [], 2)
    with pytest.raises(ValueError):
        homology_at([1], [0b10], 1)


@st.composite
def chain_pairs(draw):
    """(d_in, d_out, dim): d_in lands in a chain group of dimension dim and
    d_out leaves it.  Unless a column is perturbed, d_in's columns are
    drawn from the kernel of d_out, so the maps compose to zero."""
    dim = draw(st.integers(1, 6))
    d_out = draw(st.lists(st.integers(0, 15), min_size=dim, max_size=dim))
    cycles = [x for x in range(1 << dim) if apply(d_out, x) == 0]
    d_in = draw(st.lists(st.sampled_from(cycles), max_size=5))
    if d_in and draw(st.booleans()):
        d_in[draw(st.integers(0, len(d_in) - 1))] = draw(st.integers(0, (1 << dim) - 1))
    return d_in, d_out, dim


@PROPERTY
@given(chain_pairs())
def test_homology_at_accepts_exactly_the_complexes(pair):
    d_in, d_out, dim = pair
    cycles = kernel_and_image(d_out)[0]
    boundaries = kernel_and_image(d_in)[1]
    if any(apply(d_out, col) for col in d_in):
        with pytest.raises(EngineError, match="compose to zero"):
            homology_at(cycles, boundaries, dim)
        return
    hom = homology_at(cycles, boundaries, dim)
    assert hom.rank == dim - oracle_rank(d_out, 4) - oracle_rank(d_in, dim)
    for i, rep in enumerate(hom.representatives):
        assert hom.coordinates(rep) == 1 << i
    for b in boundaries:
        assert hom.coordinates(b) == 0


def test_homology_coordinates():
    # circle as a square: 4 vertices, 4 edges, no 2-cells
    # edges: 0:{01} 1:{12} 2:{23} 3:{03}; d(e) = endpoints
    d1 = [0b0011, 0b0110, 0b1100, 0b1001]
    ker, img = kernel_and_image(d1)
    h1 = homology_at(ker, [], 4)
    assert h1.rank == 1
    loop = 0b1111
    assert h1.coordinates(loop) == 1
    with pytest.raises(ValueError):
        h1.coordinates(0b0001)  # a single edge is not a cycle
    h0 = homology_at([1 << i for i in range(4)], img, 4)
    assert h0.rank == 1
    # any two vertices are homologous
    assert h0.coordinates(0b0001) == h0.coordinates(0b1000)


def test_rank_nullity_random():
    rng = random.Random(23)
    for _ in range(40):
        rows, cols = rng.randrange(1, 9), rng.randrange(1, 9)
        columns = random_columns(rng, rows, cols)
        assert len(kernel_and_image(columns)[0]) + rank_of(columns) == cols
