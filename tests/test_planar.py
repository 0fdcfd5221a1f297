"""Unit tests for plane graphs, duals, and the overlay matching identity."""

import random
from types import ModuleType

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

from uberhom import cli, coloured, planar
from uberhom import (
    CapExceeded,
    Colouring,
    ComplexError,
    EngineError,
    ParseError,
    PlaneGraph,
    SimpleGraph,
    format_plane_graph,
    horizontal_homology,
    matching_complex_of_edges,
    overlay_ranks,
    parse_plane_graph,
    simplicial_homology,
    tait_colouring,
    tait_graph,
    theorem42_verify,
    vertices_of,
)

from conftest import rotations_from_coordinates
from oracles import crossing_set_overlay_ranks, naive_horizontal, unquotiented_chain_ranks
from paper import dual_graph, tait_matching_complex, to_networkx

SMALL = ["triangle", "square", "path2", "star3", "diamond"]
SIMPLE_DUALS = ["prism", "cube", "octahedron"] + [f"wheel{k}" for k in range(3, 10)]


def test_face_counts_satisfy_euler(planes):
    expected_faces = {"triangle": 2, "square": 2, "path2": 1, "star3": 1,
                      "diamond": 3, "prism": 5, "cube": 6, "octahedron": 8}
    expected_faces.update({f"wheel{k}": k + 1 for k in range(3, 10)})
    for name, P in planes.items():
        V = P.graph.vertex_count
        E = P.graph.edge_count
        F = P.face_count
        assert V - E + F == 2, name
        assert F == expected_faces[name], name
        # every dart lies in exactly one face
        darts = [d for face in P.faces for d in face]
        assert len(darts) == 2 * E, name
        assert len(set(darts)) == 2 * E, name
        for idx, face in enumerate(P.faces):
            for d in face:
                assert P.face_of_dart[d] == idx, name


def test_nonplanar_rotation_system_rejected():
    # K5 admits no sphere embedding, so every rotation system fails Euler
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    import math
    coords = [(math.cos(2 * math.pi * t / 5), math.sin(2 * math.pi * t / 5))
              for t in range(5)]
    with pytest.raises(ComplexError):
        rotations_from_coordinates(edges, coords)


def test_plane_graph_validation():
    G = SimpleGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ComplexError):
        PlaneGraph(G, ((1, 2), (0,), (0, 1)))  # rotation misses a neighbour
    with pytest.raises(ComplexError):
        PlaneGraph(G, ((1, 2), (0, 2), (0, 1, 2)))  # stray neighbour
    disconnected = SimpleGraph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ComplexError):
        PlaneGraph(disconnected, ((1,), (0,), (3,), (2,)))


def test_single_vertex_plane_graph():
    """K1 has no darts and one face, so it passes the Euler check; it is
    its own dual, and its overlay has no edge to build on."""
    P = parse_plane_graph("v 0:\n")
    assert P.faces == ((),) and P.face_count == 1
    assert parse_plane_graph(format_plane_graph(P)) == P
    assert dual_graph(P) == P
    T = tait_graph(P)
    assert T.partition_sizes == (1, 1, 0)
    for build in (lambda: overlay_ranks(T), lambda: theorem42_verify(P)):
        with pytest.raises(ComplexError, match="overlay needs at least one edge"):
            build()


def test_edge_sides_and_bridges(planes):
    tri = planes["triangle"]
    for u, v in tri.graph.edges:
        s1, s2 = tri.edge_sides(u, v)
        assert s1 != s2  # no bridges in a cycle
    star = planes["star3"]
    for u, v in star.graph.edges:
        s1, s2 = star.edge_sides(u, v)
        assert s1 == s2  # every star edge is a bridge


def test_parse_format_roundtrip(planes):
    for name in SMALL + ["prism", "cube"]:
        P = planes[name]
        text = format_plane_graph(P)
        Q = parse_plane_graph(text)
        assert Q == P, name
    explicit = "# triangle\nv 0: 1 2\nv 1: 2 0\nv 2: 0 1\n"
    P = parse_plane_graph(explicit)
    assert P.face_count == 2


def test_parse_plane_graph_errors():
    for bad in [
        "",
        "v 0: 1\n",                      # dangling neighbour
        "v 0: 1\nv 2: 0\n",              # ids not 0..n-1
        "v 0: 1\nv 1: 0\nv 1: 0\n",      # duplicate id
        "w 0: 1\nv 1: 0\n",              # bad prefix
        "v 0: 1 1\nv 1: 0\n",            # repeated neighbour
        "v 0: 0\n",                      # loop
    ]:
        with pytest.raises(ParseError):
            parse_plane_graph(bad)


def test_dual_graph_of_simple_duals(planes):
    for name in SIMPLE_DUALS:
        P = planes[name]
        D = dual_graph(P)
        assert D.graph.vertex_count == P.face_count, name
        assert D.graph.edge_count == P.graph.edge_count, name
        # dual of the dual is isomorphic to the primal
        DD = dual_graph(D)
        assert nx.is_isomorphic(to_networkx(DD.graph), to_networkx(P.graph)), name


def test_dual_graph_rejections(planes):
    # bridges give dual loops
    with pytest.raises(ComplexError):
        dual_graph(planes["star3"])
    with pytest.raises(ComplexError):
        dual_graph(planes["path2"])
    # two faces sharing two edges give dual parallels
    for name in ("triangle", "square", "diamond"):
        with pytest.raises(ComplexError):
            dual_graph(planes[name])


def test_tait_graph_structure(planes):
    for name in SMALL:
        P = planes[name]
        T = tait_graph(P)
        V, E = P.graph.vertex_count, P.graph.edge_count
        F = P.face_count
        assert T.partition_sizes == (V, F, E), name
        assert T.primal_count == V and T.face_count == F
        assert T.crossing_count == E
        assert len(T.overlay_edges) == 4 * E, name
        # per crossing: two black overlay edges to the endpoints, two white
        # ones to the side faces
        blacks, whites = [], []
        for e, (u, v, f1, f2) in enumerate(T.crossings):
            x = T.crossing_node(e)
            quad = T.overlay_edges[4 * e:4 * e + 4]
            assert quad == ((x, u), (x, v),
                            (x, T.face_node(f1)), (x, T.face_node(f2))), name
            blacks += quad[:2]
            whites += quad[2:]
            assert {f1, f2} == set(P.edge_sides(u, v)), name
        assert T.black_edges() == blacks and T.white_edges() == whites
        # the colouring blackens exactly the black edges' positions
        bits = tait_colouring(T).bits
        assert [oe for pos, oe in enumerate(T.overlay_edges) if bits >> pos & 1] == blacks


def test_bridge_gives_parallel_white_edges(planes):
    T = tait_graph(planes["star3"])
    for e, (u, v, f1, f2) in enumerate(T.crossings):
        assert f1 == f2  # single face on a tree
        x = T.crossing_node(e)
        assert T.overlay_edges[4 * e + 2] == T.overlay_edges[4 * e + 3]
    # the doubled white edge shows up as two mutually exclusive vertices in
    # the matching complex
    M, eps = tait_matching_complex(T)
    assert M.vertex_count == 4 * T.crossing_count


def test_tait_colouring(planes):
    for name in SMALL:
        T = tait_graph(planes[name])
        eps = tait_colouring(T)
        E = T.crossing_count
        assert eps.length == 4 * E
        assert eps.bits.bit_count() == 2 * E
        assert all(eps.bits >> 4 * e & 0b1111 == 0b0011 for e in range(E))


def test_tait_matching_complex(planes):
    T = tait_graph(planes["triangle"])
    M, eps = tait_matching_complex(T)
    assert M.vertex_count == 12
    assert eps == tait_colouring(T)
    # it really is the matching complex of the overlay edge list
    direct = matching_complex_of_edges(list(T.overlay_edges))
    assert M == direct


def _relabel(P: PlaneGraph, seed: int) -> PlaneGraph:
    """The same embedding with vertices renamed by a seeded permutation."""
    n = P.graph.vertex_count
    perm = random.Random(seed).sample(range(n), n)
    rotations = [()] * n
    for v, rot in enumerate(P.rotations):
        rotations[perm[v]] = tuple(perm[w] for w in rot)
    graph = SimpleGraph.from_edges(n, [(perm[u], perm[v]) for u, v in P.graph.edges])
    return PlaneGraph(graph, tuple(rotations))


def test_overlay_ranks_against_built_overlay(planes):
    """The split route equals the horizontal homology of the overlay built in
    full, on every fixture of at most 10 edges and on relabelled prisms."""
    cases = {name: P for name, P in planes.items() if 1 <= P.graph.edge_count <= 10}
    assert {"prism", "wheel5"} <= set(cases)
    cases.update({f"prism@{seed}": _relabel(planes["prism"], seed) for seed in (1, 2)})
    for name, P in cases.items():
        T = tait_graph(P)
        assert overlay_ranks(T) == horizontal_homology(*tait_matching_complex(T)), name


def test_prism_overlay_reduced_relative_to_a_star(planes, rank_of_columns, monkeypatch):
    """The largest quotiented case in the tests: the prism's overlay, 277,927
    matchings, hands `rank_of` 39,042 columns relative to one black vertex's
    star per summand (139,499 unquotiented), and its horizontal ranks equal
    the unquotiented route's."""
    M, eps = tait_matching_complex(tait_graph(planes["prism"]))
    assert len(M.simplices) == 277_927
    quotiented = horizontal_homology(M, eps)
    assert len(rank_of_columns) == 39_042
    monkeypatch.setattr(coloured, "_chain_ranks", unquotiented_chain_ranks)
    assert quotiented == horizontal_homology(M, eps)


def test_theorem42_left_side_is_one_search_of_the_overlay(planes, rank_of_columns,
                                                         monkeypatch):
    """verify-thm42's left side on the prism is one `matching_blocks` call on
    all 4|E| overlay edges, filing the 277,927 overlay matchings in 7,552
    blocks, and it hands `rank_of` the 39,042 columns that
    `horizontal_homology` hands it on the overlay complex."""
    T = tait_graph(planes["prism"])
    overlay_ranks(T)
    right_columns = len(rank_of_columns)
    original = planar.matching_blocks
    calls = []

    def recording(edges, part):
        blocks = original(edges, part)
        calls.append((tuple(edges), len(blocks), sum(map(len, blocks.values()))))
        return blocks

    _only_enumerator(monkeypatch, recording)
    rank_of_columns.clear()
    assert theorem42_verify(planes["prism"])["all_equal"]
    overlay = [c for c in calls if len(c[0]) > 2 * T.crossing_count]
    assert overlay == [(T.overlay_edges, 7_552, 277_927)]
    assert len(rank_of_columns) - right_columns == 39_042


def _asymmetric_plane_graph() -> PlaneGraph:
    """A path 0-1-2-3-4 with a triangle 1-2-5 on it: no automorphism but
    the identity."""
    return rotations_from_coordinates(
        [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (2, 5)],
        [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (1.5, 1)])


def _graph_automorphisms(G: SimpleGraph) -> list[dict]:
    H = to_networkx(G)
    return list(GraphMatcher(H, H).isomorphisms_iter())


def test_overlay_ranks_against_crossing_set_oracle(planes):
    """The orbit route equals one survivor homology per crossing set, on
    every fixture of at most 10 edges, on seeded relabellings and on a
    plane graph whose automorphism group is trivial."""
    cases = {name: P for name, P in planes.items() if 1 <= P.graph.edge_count <= 10}
    cases.update({"prism@3": _relabel(planes["prism"], 3),
                  "wheel5@4": _relabel(planes["wheel5"], 4)})
    cases["asymmetric"] = _asymmetric_plane_graph()
    assert len(_graph_automorphisms(cases["asymmetric"].graph)) == 1
    for name, P in cases.items():
        T = tait_graph(P)
        assert overlay_ranks(T) == crossing_set_overlay_ranks(T), name


def test_map_automorphisms_are_the_graph_automorphisms(planes):
    """On a 3-connected plane graph every graph automorphism is a map
    automorphism (Whitney), so the counts agree."""
    expected = {"prism": 12, "cube": 48, "octahedron": 48, "wheel3": 24}
    expected.update({f"wheel{k}": 2 * k for k in range(4, 10)})
    for name, count in expected.items():
        G = planes[name].graph
        autos = planar._map_automorphisms(planes[name])
        assert len(autos) == len(_graph_automorphisms(G)) == count, name
    assert planar._map_automorphisms(_asymmetric_plane_graph()) == {tuple(range(6))}


def _only_enumerator(monkeypatch, replacement):
    """Patch matching_blocks, the one matching enumerator planar holds; it
    holds no module through which it could reach another."""
    held = {name for name, value in vars(planar).items()
            if name.startswith("matching") or isinstance(value, ModuleType)}
    assert held == {"matching_blocks"}, held
    monkeypatch.setattr(planar, "matching_blocks", replacement)


def test_forged_automorphism_refused_before_use(planes, monkeypatch):
    """A forged automorphism raises before any matching, black, white or
    survivor, is enumerated."""
    def unreachable(*args):
        raise AssertionError("matchings enumerated with a forged automorphism")

    _only_enumerator(monkeypatch, unreachable)
    T = tait_graph(planes["prism"])
    identity = tuple(range(6))
    # the first sends edge (0, 3) to the non-edge (1, 3); the second is not onto
    for forged in ((1, 0, 2, 3, 4, 5), (0, 0, 2, 3, 4, 5)):
        monkeypatch.setattr(planar, "_map_automorphisms", lambda P, g=forged: {identity, g})
        with pytest.raises(EngineError, match="not an automorphism"):
            overlay_ranks(T)


def test_overlay_ranks_against_naive_oracle(planes):
    """Both sides of theorem42_verify reduce through one rank kernel, so each
    is checked against the brute-force horizontal homology of the overlay."""
    for name in SMALL:
        T = tait_graph(planes[name])
        M, eps = tait_matching_complex(T)
        facets = [vertices_of(f) for f in M.facets()]
        expected = naive_horizontal(facets, eps.black_vertices())
        assert overlay_ranks(T) == expected, name
        assert horizontal_homology(M, eps) == expected, name


def test_tait_never_enumerates_the_overlay(planes, tmp_path, capsys, monkeypatch):
    original = planar.matching_blocks
    sizes = []

    def recording(edges, part):
        sizes.append(len(edges))
        return original(edges, part)

    _only_enumerator(monkeypatch, recording)
    path = tmp_path / "prism.plane"
    path.write_text(format_plane_graph(planes["prism"]))
    assert cli.main(["tait", str(path)]) == 0
    assert capsys.readouterr().err == ""
    crossings = tait_graph(planes["prism"]).crossing_count
    assert sizes and max(sizes) <= 2 * crossings  # the overlay has 4 per crossing


def test_theorem42_small_graphs(planes):
    for name in SMALL:
        report = theorem42_verify(planes[name])
        assert report["all_equal"], name
        assert report["level0_matches_subdivision"], name
        for k, level in report["levels"].items():
            assert level["equal"], (name, k)


def test_theorem42_frozen_triangle(planes):
    report = theorem42_verify(planes["triangle"])
    assert report["partition"] == (3, 2, 3)
    assert report["levels"][0]["lhs"] == {0: 1, 1: 2}
    assert report["levels"][2]["lhs"] == {2: 6}


def test_theorem42_cap(planes, monkeypatch):
    def unreachable(*args):
        raise AssertionError("matchings enumerated past the cap")

    _only_enumerator(monkeypatch, unreachable)
    T = tait_graph(planes["wheel9"])  # 18 primal edges
    assert T.crossing_count > planar.MAX_OVERLAY_EDGES
    with pytest.raises(CapExceeded):
        overlay_ranks(T)
    with pytest.raises(CapExceeded):
        theorem42_verify(planes["wheel9"])


def test_theorem42_survivor_homology_once_per_orbit(planes, monkeypatch):
    """The right-hand side enumerates one survivor matching complex per
    orbit of the crossing sets used by white matchings under the graph's
    automorphisms, fewer than one per crossing set, besides the black and
    white edge lists themselves."""
    original = planar.matching_blocks
    calls = []

    def counting(edges, part):
        calls.append(tuple(edges))
        return original(edges, part)

    _only_enumerator(monkeypatch, counting)
    expected = {"cube": (78, 2317), "prism": (49, 366), "wheel4": (40, 214)}
    for name, (orbit_count, set_count) in expected.items():
        calls.clear()
        T = tait_graph(planes[name])
        overlay_ranks(T)
        black, white = tuple(T.black_edges()), tuple(T.white_edges())
        assert calls.count(black) == calls.count(white) == 1, name
        survivors = [c for c in calls if c not in (black, white)]
        assert all(len(c) < len(black) and set(c) <= set(black) for c in survivors), name
        crossing_sets = {frozenset(frozenset(T.crossings[i // 2][:2]) for i in vertices_of(m))
                         for m in matching_complex_of_edges(white).simplices}
        autos = _graph_automorphisms(T.plane.graph)
        orbits, seen = 0, set()
        for R in crossing_sets:
            if R not in seen:
                orbits += 1
                seen |= {frozenset(frozenset(g[v] for v in e) for e in R) for g in autos}
        assert len(survivors) == orbits == orbit_count < len(crossing_sets) == set_count, name
        assert len(set(survivors)) == len(survivors), name
