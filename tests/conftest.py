"""Shared fixtures: the bundled complex suite, the random small complexes of
the property tests, plane-graph fixtures, the layers the benchmark traces,
and a terminal summary that prints one PASS/FAIL line per acceptance
criterion."""

from __future__ import annotations

import ast
import math
import time
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from uberhom import (
    PlaneGraph,
    SimpleGraph,
    from_facets,
    standard_complex,
)

from paper import cone, is_connected

# every property test draws the same examples on every run, however long it
# takes; each test states only its max_examples
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")

# ---------------------------------------------------------------------------
# bundled complex suite: connected complexes on at most 6 vertices


def build_suite() -> list[tuple[str, object]]:
    suite = [
        ("simplex1", standard_complex("simplex", 1)),
        ("simplex2", standard_complex("simplex", 2)),
        ("simplex3", standard_complex("simplex", 3)),
        ("simplex4", standard_complex("simplex", 4)),
        ("simplex5", standard_complex("simplex", 5)),
        ("boundary2", standard_complex("boundary", 2)),
        ("boundary3", standard_complex("boundary", 3)),
        ("boundary4", standard_complex("boundary", 4)),
        ("cycle4", standard_complex("cycle", 4)),
        ("cycle5", standard_complex("cycle", 5)),
        ("cycle6", standard_complex("cycle", 6)),
        ("path3", standard_complex("path", 3)),
        ("path5", standard_complex("path", 5)),
        ("rp2_min", standard_complex("rp2_min")),
        ("octahedron", standard_complex("cycle", 4).suspension()),
        ("cone_cycle4", cone(standard_complex("cycle", 4))),
        ("complete4", standard_complex("complete", 4)),
        ("bipartite23", standard_complex("complete_bipartite", 2, 3)),
        # two filled triangles sharing an edge, with a hollow triangle
        # attached at one vertex
        ("fig8", from_facets(6, [(1, 2, 5), (2, 3, 5), (0, 3), (3, 4), (0, 4)])),
        # triangle with two pendant edges at one vertex
        ("pendants", from_facets(5, [(1, 2, 3), (0, 1), (1, 4)])),
        ("two_triangles", from_facets(4, [(0, 1, 2), (1, 2, 3)])),
        ("three_triangles", from_facets(5, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])),
    ]
    assert all(X.vertex_count <= 6 for _, X in suite)
    assert all(is_connected(X) for _, X in suite)
    assert len(suite) >= 12
    return suite


SUITE = build_suite()


@pytest.fixture(scope="session")
def suite():
    return SUITE


@st.composite
def small_complexes(draw):
    """A complex on at most 6 vertices, from up to 6 random facets."""
    m = draw(st.integers(1, 6))
    facets = draw(st.lists(st.sets(st.integers(0, m - 1), min_size=1),
                           min_size=1, max_size=6))
    return from_facets(m, facets)


# ---------------------------------------------------------------------------
# plane graphs from straight-line drawings


def rotations_from_coordinates(edges, coords) -> PlaneGraph:
    """Plane graph whose rotation at each vertex sorts neighbours ccw."""
    n = len(coords)
    G = SimpleGraph.from_edges(n, edges)
    rotations = []
    for v in range(n):
        def angle(u, v=v):
            return math.atan2(coords[u][1] - coords[v][1],
                              coords[u][0] - coords[v][0])
        rotations.append(tuple(sorted((u for u in G.neighbours(v)), key=angle)))
    return PlaneGraph(G, tuple(rotations))


def plane_fixtures() -> dict[str, PlaneGraph]:
    out = {}
    out["triangle"] = rotations_from_coordinates(
        [(0, 1), (0, 2), (1, 2)], [(0, 2), (-2, -1), (2, -1)])
    out["square"] = rotations_from_coordinates(
        [(0, 1), (1, 2), (2, 3), (0, 3)],
        [(-1, 1), (1, 1), (1, -1), (-1, -1)])
    out["path2"] = rotations_from_coordinates(
        [(0, 1), (1, 2)], [(0, 0), (1, 0), (2, 0)])
    out["star3"] = rotations_from_coordinates(
        [(0, 1), (0, 2), (0, 3)], [(0, 0), (1, 0), (-1, 1), (-1, -1)])
    out["diamond"] = rotations_from_coordinates(
        [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)],
        [(0, 2), (-1, 0), (1, 0), (0, -2)])
    out["prism"] = rotations_from_coordinates(
        [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)],
        [(0, 4), (-4, -3), (4, -3), (0, 2), (-2, -1.5), (2, -1.5)])
    out["cube"] = rotations_from_coordinates(
        [(0, 1), (0, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 7), (6, 7),
         (0, 4), (1, 5), (2, 6), (3, 7)],
        [(-2, -2), (2, -2), (-2, 2), (2, 2), (-1, -1), (1, -1), (-1, 1), (1, 1)])
    out["octahedron"] = rotations_from_coordinates(
        [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
         (0, 4), (0, 5), (1, 3), (1, 5), (2, 3), (2, 4)],
        [(0, 4), (-4, -3), (4, -3), (0, -1), (0.9, 0.6), (-0.9, 0.6)])
    for k in range(3, 10):
        rim = [(math.cos(2 * math.pi * t / k), math.sin(2 * math.pi * t / k))
               for t in range(k)]
        edges = [(0, v) for v in range(1, k + 1)]
        edges += [(1 + t, 1 + (t + 1) % k) for t in range(k)]
        out[f"wheel{k}"] = rotations_from_coordinates(
            edges, [(0.0, 0.0)] + rim)
    return out


@pytest.fixture(scope="session")
def planes():
    return plane_fixtures()


# ---------------------------------------------------------------------------
# acceptance criterion bookkeeping

CRITERIA = {
    1: "bigraded homology of the 2-simplex with one black vertex",
    2: "bigraded homology of the 3-simplex with two black vertices",
    3: "all-black and all-white colourings reduce to classical invariants",
    4: "dalmatian characterisation and critical-cell profiles",
    5: "elementary decomposition partitions; torus and projective plane counts",
    6: "iterated two-stage critical complex of the figure-8 example",
    7: "plane-graph bigraded identity against matching complexes",
    8: "theta multisets and dissimilarity of the prism and K33",
    9: "uberhomology closed forms for simplices, spheres and cycles",
    10: "degree-0 fast path, subdivisions and large-diameter vanishing",
    11: "top-degree uberhomology of sphere-like complexes",
    12: "cone and suspension behaviour of uberhomology",
    13: "degree-0 and degree-1 graph homology constants",
    14: "vanishing families: trees, complete bipartite, degree-2 sweep",
    15: "pairwise separation of small connected graphs and trees",
    16: "metric properties, cover bijection, spacious trees, invariance",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes: dict[int, str] = {}
    for category in ("passed", "failed", "error", "skipped"):
        for report in terminalreporter.stats.get(category, []):
            nodeid = getattr(report, "nodeid", "")
            marker = "test_acceptance.py::test_criterion_"
            if marker not in nodeid:
                continue
            number = int(nodeid.split(marker)[1][:2])
            label = "PASS" if category == "passed" else category.upper()
            outcomes[number] = label
    if not outcomes:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for number in sorted(CRITERIA):
        label = outcomes.get(number, "NOT RUN")
        terminalreporter.write_line(
            f"  criterion {number:2d}: {label:7s} {CRITERIA[number]}")


# ---------------------------------------------------------------------------
# the benchmark's traced layers


def traced_layers() -> set:
    """The (module, function) pairs of perfbench/spans.py's LAYERS, which the
    tracer reaches by string."""
    spans = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    tree = ast.parse(spans.read_text())
    value = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets))
    return set(ast.literal_eval(value))


# ---------------------------------------------------------------------------
# timing helper


def best_of(fn, repeats=5):
    """Minimum wall time of repeated calls, in seconds."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best
