"""Unit tests for colouring-induced matchings and their critical cells.

`verify_morse` and `elementary_decomposition` each scan the complex once;
the tests compare them with the oracles in `paper`: the induced pairs, the
dalmatian test and the paper's closed form."""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings

from uberhom import (
    Colouring,
    dim_of,
    elementary_decomposition,
    from_facets,
    horizontal_homology,
    standard_complex,
    verify_morse,
    vertices_of,
)

from conftest import small_complexes
from paper import (by_dim, dalmatian_closed_form, induced_subgraph, is_dalmatian,
                   is_matching, iterated_dalmatian, matching_is_acyclic, weight)


def brute_is_dalmatian(X, eps) -> bool:
    """From the definition: nonzero, and closed stars of black vertices are
    pairwise disjoint as simplex sets."""
    black = eps.black_vertices()
    if not black:
        return False
    stars = []
    for v in black:
        bit = 1 << v
        stars.append({s for s in X.simplices if (s | bit) in X.simplices})
    for a, b in itertools.combinations(stars, 2):
        if a & b:
            return False
    return True


def brute_matching(edges) -> bool:
    incident: dict[int, int] = {}
    for s, t in edges:
        incident[s] = incident.get(s, 0) + 1
        incident[t] = incident.get(t, 0) + 1
    return all(c == 1 for c in incident.values())


def small_cases(suite):
    for name, X in suite:
        if X.vertex_count <= 5:
            for bits in range(1 << X.vertex_count):
                yield name, X, Colouring(bits, X.vertex_count)


def test_induced_subgraph_edges():
    X = standard_complex("boundary", 2)
    eps = Colouring.from_string("100")
    edges = induced_subgraph(X, eps)
    # vertex 0 is dropped from {0}, {0,1}, {0,2}: only nonempty facets count
    assert edges == frozenset({(0b011, 0b010), (0b101, 0b100)})


def test_is_dalmatian_matches_bruteforce(suite):
    for name, X, eps in small_cases(suite):
        assert is_dalmatian(X, eps) == brute_is_dalmatian(X, eps), (name, str(eps))


def test_zero_colouring_never_dalmatian(suite):
    for name, X in suite:
        assert not is_dalmatian(X, Colouring(0, X.vertex_count))


def test_dalmatian_iff_morse_matching(suite):
    """The induced subgraph is an acyclic matching exactly for dalmatian
    colourings (excluding the all-white colouring, which induces no edges)."""
    for name, X, eps in small_cases(suite):
        report = verify_morse(X, eps)
        assert brute_matching(induced_subgraph(X, eps)) == report.is_matching
        if eps.bits == 0:
            assert report.is_morse_matching  # vacuously: no edges
            continue
        assert report.is_morse_matching == is_dalmatian(X, eps), (name, str(eps))


@settings(max_examples=100)
@given(small_complexes())
def test_morse_report_matches_general_checks(X):
    """On every colouring, the report's matching flag is the brute-force
    matching test of the induced pairs, and its acyclicity flag is the
    general cycle check on them."""
    m = X.vertex_count
    for bits in range(1 << m):
        eps = Colouring(bits, m)
        report = verify_morse(X, eps)
        edges = induced_subgraph(X, eps)
        assert report.is_matching == brute_matching(edges) == is_matching(edges)
        assert report.is_acyclic == (report.is_matching and matching_is_acyclic(X, edges))


@settings(max_examples=100)
@given(small_complexes())
def test_one_scan_matches_oracles(X):
    """On every colouring, the scan finds a matching exactly for the zero or
    a dalmatian colouring; the zero colouring leaves every simplex critical;
    for a dalmatian colouring the critical cells tallied by (dimension,
    white count) are the paper's closed form and the horizontal homology;
    and the decomposition's parts make up the induced pairs."""
    m = X.vertex_count
    for bits in range(1 << m):
        eps = Colouring(bits, m)
        report = verify_morse(X, eps)
        dalmatian = is_dalmatian(X, eps)
        assert report.is_matching == (bits == 0 or dalmatian)
        if bits == 0:
            assert report.critical_cells == tuple(itertools.chain(*by_dim(X).values()))
        if dalmatian:
            tally = Counter((dim_of(s), weight(s, eps)) for s in report.critical_cells)
            assert tally == dalmatian_closed_form(X, eps).ranks == horizontal_homology(X, eps)
        parts = elementary_decomposition(X, eps)
        assert frozenset().union(*parts.values()) == induced_subgraph(X, eps)


def test_critical_cells_give_homology(suite):
    """For every dalmatian colouring the critical cells count the bigraded
    homology exactly: one (0,0) class per black vertex and one (d, d+1)
    class per critical cell of dimension d outside the stars."""
    checked = 0
    for name, X, eps in small_cases(suite):
        if not is_dalmatian(X, eps):
            continue
        checked += 1
        report = verify_morse(X, eps)
        form = dalmatian_closed_form(X, eps)
        assert form.ranks == horizontal_homology(X, eps), (name, str(eps))
        # the closed form's generators are exactly the critical cells
        assert sorted(s for s, _ in form.generators) == sorted(report.critical_cells)
        # bigradings recompute from the cells themselves
        for s, (i, k) in form.generators:
            d = len(vertices_of(s)) - 1
            if s & eps.bits and d == 0:
                assert (i, k) == (0, 0)
            else:
                assert (i, k) == (d, d + 1)
    assert checked > 50


def test_elementary_decomposition_partitions(suite):
    for name, X, eps in small_cases(suite):
        parts = elementary_decomposition(X, eps)
        assert set(parts) == set(eps.black_vertices())
        seen: set = set()
        for v, edges in parts.items():
            for s, t in edges:
                # the dropped vertex is v itself
                assert s ^ t == 1 << v
                assert (s, t) not in seen
                seen.add((s, t))
        assert seen == set(induced_subgraph(X, eps))


def test_iterated_dalmatian_example():
    X = from_facets(6, [(1, 2, 5), (2, 3, 5), (0, 3), (3, 4), (0, 4)])
    report = iterated_dalmatian(X, [{1}, {3}])
    assert report.is_morse_matching
    cells = sorted(vertices_of(s) for s in report.critical_cells)
    assert cells == [(0, 4), (1,), (2, 3), (2, 3, 5), (3,), (3, 5)]
    assert report.critical_by_dim() == {0: 2, 1: 3, 2: 1}


def test_iterated_dalmatian_stage_errors():
    X = from_facets(6, [(1, 2, 5), (2, 3, 5), (0, 3), (3, 4), (0, 4)])
    with pytest.raises(AssertionError):
        iterated_dalmatian(X, [])
    with pytest.raises(AssertionError):
        iterated_dalmatian(X, [set()])
    with pytest.raises(AssertionError):
        # vertices 2 and 5 share the triangle {1,2,5}: not dalmatian
        iterated_dalmatian(X, [{2, 5}])
    with pytest.raises(AssertionError):
        # vertex 2 lies in the closed star of stage-0 vertex 1
        iterated_dalmatian(X, [{1}, {2}])
    with pytest.raises(AssertionError):
        # stars of {1} and {3} cover everything except nothing is left out,
        # but {1} alone leaves vertices 0, 3, 4 uncovered
        iterated_dalmatian(X, [{1}])


def test_single_stage_matches_direct_morse(suite):
    """With one all-covering dalmatian stage the iterated construction and
    the direct one agree."""
    checked = 0
    for name, X, eps in small_cases(suite):
        if not is_dalmatian(X, eps):
            continue
        # does the closed-star union cover every vertex?
        covered = 0
        for v in eps.black_vertices():
            covered |= 1 << v
            for s in by_dim(X).get(1, ()):
                if s >> v & 1:
                    covered |= s
        if covered != (1 << X.vertex_count) - 1:
            continue
        checked += 1
        direct = verify_morse(X, eps)
        iterated = iterated_dalmatian(X, [eps.black_vertices()])
        assert iterated.edges == frozenset().union(*elementary_decomposition(X, eps).values())
        assert iterated.critical_cells == direct.critical_cells
        assert iterated.is_morse_matching
    assert checked > 5


def test_morse_report_critical_by_dim():
    X = standard_complex("boundary", 2)
    report = verify_morse(X, Colouring.from_string("100"))
    assert report.is_morse_matching
    # critical: the black vertex and the opposite edge
    assert [vertices_of(s) for s in report.critical_cells] == [(0,), (1, 2)]
    assert report.critical_by_dim() == {0: 1, 1: 1}
