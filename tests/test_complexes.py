"""Unit tests for the simplicial complex layer."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uberhom import (
    ComplexError,
    ParseError,
    dim_of,
    format_complex,
    from_facets,
    mask_of,
    matching_complex_of_edges,
    read_complex,
    simplicial_homology,
    standard_complex,
    vertices_of,
)

from conftest import small_complexes
from oracles import close_downward, naive_simplicial_homology
from paper import (barycentric_subdivision, checked_complex, closed_star, cone, delete_star,
                   diameter, euler_characteristic, f_vector, is_connected, link,
                   reduced_homology, shape, star)


def as_vertex_sets(X):
    return {frozenset(vertices_of(s)) for s in X.simplices}


def test_mask_helpers():
    assert mask_of((0, 2, 5)) == 0b100101
    assert vertices_of(0b100101) == (0, 2, 5)
    assert dim_of(0b100101) == 2
    assert vertices_of(0) == ()


def test_face_closure_enforced():
    with pytest.raises(AssertionError):
        checked_complex(3, {0b111})
    with pytest.raises(AssertionError):
        checked_complex(2, {0})
    with pytest.raises(AssertionError):
        checked_complex(1, {0b10})
    with pytest.raises(AssertionError):
        checked_complex(0, ())


def test_from_facets_closes_downward():
    X = from_facets(4, [(0, 1, 2), (2, 3)])
    assert as_vertex_sets(X) == close_downward([(0, 1, 2), (2, 3), (3,)])
    # singletons always present even when no facet mentions them
    Y = from_facets(3, [(0, 1)])
    assert frozenset({2}) in as_vertex_sets(Y)
    with pytest.raises(ComplexError):
        from_facets(2, [(0, 5)])
    with pytest.raises(ComplexError):
        from_facets(2, [()])
    with pytest.raises(ComplexError):  # not a bare negative-shift ValueError
        from_facets(3, [(-1, 2)])


def test_standard_shapes():
    # (name, params, vertex count, f-vector, euler characteristic)
    cases = [
        ("simplex", (3,), 4, (4, 6, 4, 1), 1),
        ("boundary", (3,), 4, (4, 6, 4), 2),
        ("cycle", (5,), 5, (5, 5), 0),
        ("path", (4,), 5, (5, 4), 1),
        ("grid", (3, 3), 9, (9, 12), -3),
        ("cube", (3,), 8, (8, 12), -4),
        ("complete", (5,), 5, (5, 10), -5),
        ("complete_bipartite", (2, 3), 5, (5, 6), -1),
        ("torus_min", (), 7, (7, 21, 14), 0),
        ("rp2_min", (), 6, (6, 15, 10), 1),
    ]
    for name, params, m, f_vec, chi in cases:
        X = shape(name, *params)
        assert X.vertex_count == m, name
        assert f_vector(X) == f_vec, name
        assert euler_characteristic(X) == chi, name
        assert is_connected(X), name
    with pytest.raises(ComplexError):
        standard_complex("moebius")
    with pytest.raises(ComplexError):
        standard_complex("cycle", 2)


def test_simplicial_homology_against_oracle():
    rng = random.Random(31)
    fixed = [
        standard_complex("simplex", 3),
        standard_complex("boundary", 3),
        standard_complex("torus_min"),
        standard_complex("rp2_min"),
        standard_complex("cycle", 6),
        from_facets(6, [(1, 2, 5), (2, 3, 5), (0, 3), (3, 4), (0, 4)]),
    ]
    for X in fixed:
        facets = [vertices_of(f) for f in X.facets()]
        assert simplicial_homology(X) == naive_simplicial_homology(facets)
        assert reduced_homology(X) == naive_simplicial_homology(facets, reduced=True)
    for _ in range(15):
        m = rng.randrange(3, 7)
        facets = [rng.sample(range(m), rng.randrange(1, 4)) for _ in range(4)]
        X = from_facets(m, facets)
        got = simplicial_homology(X)
        assert got == naive_simplicial_homology([vertices_of(f) for f in X.facets()])


def test_known_homology():
    assert simplicial_homology(standard_complex("torus_min")) == {0: 1, 1: 2, 2: 1}
    # over F2 the projective plane has a fundamental class
    assert simplicial_homology(standard_complex("rp2_min")) == {0: 1, 1: 1, 2: 1}
    assert simplicial_homology(standard_complex("boundary", 4)) == {0: 1, 3: 1}
    assert simplicial_homology(standard_complex("simplex", 4)) == {0: 1}


def test_star_link_delete():
    X = standard_complex("boundary", 2)  # hollow triangle
    assert star(X, 0) == frozenset({0b001, 0b011, 0b101})
    lk = link(X, 0)
    assert as_vertex_sets(lk) == {frozenset({1}), frozenset({2})}
    closed = closed_star(X, 0)
    assert as_vertex_sets(closed) == {
        frozenset({0}), frozenset({1}), frozenset({2}),
        frozenset({0, 1}), frozenset({0, 2})}
    Y = delete_star(X, 1)  # drop vertex 1, relabel 2 -> 1
    assert Y.vertex_count == 2
    assert as_vertex_sets(Y) == {frozenset({0}), frozenset({1}), frozenset({0, 1})}
    with pytest.raises(AssertionError):
        star(X, 7)
    with pytest.raises(AssertionError):
        delete_star(standard_complex("simplex", 0), 0)


def test_link_can_be_void():
    X = from_facets(2, [(0,), (1,)])
    assert link(X, 0).is_void
    assert link(X, 0).vertex_count == 2


def test_facets_ordering():
    X = from_facets(4, [(1, 2, 3), (0, 1)])
    assert X.facets() == [mask_of((0, 1)), mask_of((1, 2, 3))]
    # facet list is (dimension, mask) sorted
    Y = shape("complete", 4)
    masks = Y.facets()
    assert masks == sorted(masks)
    assert all(dim_of(s) == 1 for s in masks)


def test_permuted_preserves_structure():
    rng = random.Random(37)
    X = standard_complex("rp2_min")
    perm = list(range(X.vertex_count))
    rng.shuffle(perm)
    Y = X.permuted(perm)
    assert f_vector(Y) == f_vector(X)
    assert simplicial_homology(Y) == simplicial_homology(X)
    with pytest.raises(ComplexError):
        X.permuted([0, 0, 1, 2, 3, 4])


def test_cone_and_suspension():
    X = standard_complex("boundary", 2)
    C = cone(X)
    assert C.vertex_count == 4
    assert simplicial_homology(C) == {0: 1}
    assert as_vertex_sets(C) == close_downward([(0, 1, 3), (0, 2, 3), (1, 2, 3)])
    S = X.suspension()
    assert S.vertex_count == 5
    # suspension of a circle is a sphere
    assert simplicial_homology(S) == {0: 1, 2: 1}
    # the two apexes never share a simplex
    both = mask_of((3, 4))
    assert not any(s & both == both for s in S.simplices)


def test_barycentric_subdivision():
    X = standard_complex("boundary", 2)
    B = barycentric_subdivision(X)
    assert B.vertex_count == 6  # 3 vertices + 3 edges
    assert f_vector(B) == (6, 6)
    assert simplicial_homology(B) == simplicial_homology(X)
    T = barycentric_subdivision(standard_complex("simplex", 2))
    assert T.vertex_count == 7
    assert f_vector(T) == (7, 12, 6)
    assert simplicial_homology(T) == {0: 1}


def test_diameter():
    assert diameter(standard_complex("cycle", 6)) == 3
    assert diameter(standard_complex("simplex", 3)) == 1
    assert diameter(shape("path", 5)) == 5
    with pytest.raises(AssertionError):
        diameter(from_facets(3, [(0, 1)]))


def assert_face_closed(X):
    assert checked_complex(X.vertex_count, X.simplices) == X


@settings(max_examples=100)
@given(small_complexes(), st.data())
def test_every_construction_is_face_closed(X, data):
    """The constructor trusts its callers; each builder's output passes
    checked_complex: closures, relabellings, suspensions, parsed files and
    matching complexes of edge lists with parallel edges."""
    assert_face_closed(X)
    assert_face_closed(X.permuted(data.draw(st.permutations(range(X.vertex_count)))))
    assert_face_closed(X.suspension())
    assert read_complex(format_complex(X)) == X
    edges = data.draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5))
                               .filter(lambda e: e[0] != e[1]), max_size=8))
    parallel = data.draw(st.integers(0, len(edges)))
    M = matching_complex_of_edges(edges + [(b, a) for a, b in edges[:parallel]])
    assert_face_closed(M)


def test_read_format_roundtrip():
    for name, params in [("boundary", (3,)), ("torus_min", ()), ("path", (2,))]:
        X = shape(name, *params)
        assert read_complex(format_complex(X)) == X
    text = "3\n# comment line\n0 1 2  # trailing comment\n"
    assert read_complex(text) == standard_complex("simplex", 2)


def test_read_complex_errors():
    for bad in ["", "abc\n0 1\n", "3\n0 x\n", "3\n-1 2\n", "2\n0 5\n"]:
        with pytest.raises(ParseError):
            read_complex(bad)


def test_read_complex_range_check_builds_no_mask():
    """An out-of-range index is refused before it becomes a 1 << index mask."""
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="facet vertex out of range"):
            read_complex("3\n0 1 100000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
