"""End-to-end tests of the command-line interface.

Most tests drive main() in-process and inspect parsed JSON; a few go through
the installed console script to pin down exit codes in a real process.
"""

import argparse
import concurrent.futures
import hashlib
import json
import os
import re
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import uberhom
from uberhom import (SimpleGraph, SimplicialComplex, cli, complexes, encode_graph6,
                     format_complex, format_plane_graph, graphs, matching_complex,
                     parse_graph6, planar, standard_complex, uber)
from uberhom.cli import main

from conftest import plane_fixtures

TRIANGLE_PLANE = "v 0: 1 2\nv 1: 2 0\nv 2: 0 1\n"


@pytest.fixture()
def files(tmp_path):
    paths = {}
    paths["d2"] = tmp_path / "d2.cplx"
    paths["d2"].write_text("3\n0 1 2\n")
    paths["d3"] = tmp_path / "d3.cplx"
    paths["d3"].write_text("4\n0 1 2 3\n")
    paths["k4"] = tmp_path / "k4.g6"
    paths["k4"].write_text("C~\n")
    paths["corpus"] = tmp_path / "corpus.g6"
    paths["corpus"].write_text("# three graphs\nE{Sw\nEFz_\nC~\n")
    paths["tri"] = tmp_path / "tri.plane"
    paths["tri"].write_text(TRIANGLE_PLANE)
    paths["sparse"] = tmp_path / "sparse.cplx"
    paths["sparse"].write_text("17\n")
    return {k: str(v) for k, v in paths.items()}


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def run_text(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_horizontal_single(files, capsys):
    report = run_json(capsys, ["horizontal", files["d2"], "--colouring", "100"])
    assert report["ranks"] == {"(00,00)": 1}
    assert report["colouring"] == "100"
    assert report["vertex_count"] == 3
    assert report["vertex_order"] == [0, 1, 2]
    assert len(report["input_sha256"]) == 64
    assert report["command"] == "horizontal"


def test_diagonal_single(files, capsys):
    report = run_json(capsys, ["diagonal", files["d2"], "--colouring", "100"])
    assert report["ranks"] == {"(00,01)": 1}


def test_generators_payload(files, capsys):
    report = run_json(capsys, ["horizontal", files["d2"], "--colouring", "100",
                               "--generators"])
    assert report["generators"] == {"(00,00)": [[[0]]]}
    code, _, err = run_text(capsys, ["horizontal", files["d2"],
                                     "--colouring", "all", "--generators"])
    assert code == 2
    assert "single colouring" in err


# stdout SHA-256 of `--generators` reports.  Representatives are printed in
# reduced echelon form over the block's simplex order; a change in how the
# cycle basis is chosen changes these bytes while every rank stays the same.
GENERATOR_DIGESTS = {
    ("torus_min", "1111111", "horizontal"):
        "f38712be40347982a079e0af2270666a3145b784a359b621b6242d38ba9d0e76",
    ("torus_min", "1111111", "diagonal"):
        "960d42516c911ce6de60a67bddd5750e1d270908750f8cba79649666cdffb73e",
    ("torus_min", "1010010", "horizontal"):
        "c6f6ba432368d9be88f025d84a7930972ab728b4aa87f56dbe210c1ed966296e",
    ("torus_min", "1010010", "diagonal"):
        "942a6e4c6c2e5c42c041e7fbb8a5969e2c2cd461bb7da7ce5742113e69ce418f",
    ("torus_min", "0110101", "horizontal"):
        "db968da0537d0191985ac47f25b0d61e9fd5b00ae8f20867e98ce3ce356384b5",
    ("torus_min", "0110101", "diagonal"):
        "daa690548c02779a1ac0380e067d1e8eabd8f3d131189f8ae20fdde54a9037a4",
    ("suspension_rp2", "10110010", "horizontal"):
        "5972371a1bc01abf01614526793c9ad0d4afa07151be269c0a9bc97487726be4",
    ("suspension_rp2", "10110010", "diagonal"):
        "b3bda20c5e75e7096c35c1f67369fbf5affaa9cd51b3269897ca353e96f47ccf",
}


def test_generators_golden(tmp_path, capsys):
    complexes = {"torus_min": standard_complex("torus_min"),
                 "suspension_rp2": standard_complex("rp2_min").suspension()}
    for name, X in complexes.items():
        (tmp_path / f"{name}.cplx").write_text(format_complex(X))
    for (name, colouring, command), digest in GENERATOR_DIGESTS.items():
        path = str(tmp_path / f"{name}.cplx")
        code, out, err = run_text(capsys, [command, path, "--colouring", colouring,
                                           "--generators"])
        assert code == 0 and not err
        assert hashlib.sha256(out.encode()).hexdigest() == digest, \
            (name, colouring, command)


def test_colouring_specs(files, capsys):
    report = run_json(capsys, ["horizontal", files["d2"], "--colouring", "level:1"])
    assert sorted(report["colourings"]) == ["001", "010", "100"]
    report = run_json(capsys, ["horizontal", files["d2"],
                               "--colouring", "elementary:1"])
    assert report["colouring"] == "010"
    report = run_json(capsys, ["horizontal", files["d2"], "--colouring", "all"])
    assert len(report["colourings"]) == 8
    code, _, err = run_text(capsys, ["horizontal", files["d2"],
                                     "--colouring", "level:9"])
    assert code == 2


def test_parallel_output_is_byte_identical(files, capsys):
    argv = ["horizontal", files["d2"], "--colouring", "all"]
    code1 = main(argv + ["--jobs", "1"])
    out1 = capsys.readouterr().out
    code2 = main(argv + ["--jobs", "2"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_filtered(files, capsys):
    report = run_json(capsys, ["filtered", files["d2"], "--colouring", "100",
                               "--level", "1"])
    assert report["ranks"] == {"00": 1}
    code, _, err = run_text(capsys, ["filtered", files["d2"],
                                     "--colouring", "100"])
    assert code == 2
    assert "--level" in err


def test_euler(files, capsys):
    report = run_json(capsys, ["euler", files["d2"], "--colouring", "100"])
    assert report["chi_at_1"] == 1
    assert report["chi_at_0"] == 1
    assert report["coefficients"]["00"] == 1


def test_morse(files, capsys):
    report = run_json(capsys, ["morse", files["d2"], "--colouring", "100"])
    assert report["is_dalmatian"] and report["is_morse_matching"]
    assert report["closed_form_ranks"] == {"(00,00)": 1}
    report = run_json(capsys, ["morse", files["d2"], "--colouring", "110"])
    assert not report["is_dalmatian"]
    assert "closed_form_ranks" not in report


def test_decompose(files, capsys):
    report = run_json(capsys, ["decompose", files["d2"], "--colouring", "110"])
    assert set(report["by_dropped_vertex"]) == {"00", "01"}
    dropped0 = report["by_dropped_vertex"]["00"]
    assert all(set(a) - set(b) == {0} for a, b in dropped0)


def test_uber(files, capsys):
    report = run_json(capsys, ["uber", files["d2"]])
    assert report["ranks"] == {"(00,00,01)": 3, "(00,01,02)": 3,
                               "(00,02,03)": 1, "(01,00,00)": 1}


def test_uber_cap(files, capsys, monkeypatch):
    def unreachable(X, eps):
        raise AssertionError("colouring homology computed past the cap")

    with monkeypatch.context() as patch:
        patch.setattr(uber, "horizontal_homology_with_bases", unreachable)
        code, out, err = run_text(capsys, ["uber", files["d2"], "--cap", "2"])
    assert (code, out) == (4, "")
    assert "the cube cap is 2" in err
    monkeypatch.setenv("UBERHOM_CAP", "2")
    code, _, err = run_text(capsys, ["uber", files["d2"]])
    assert code == 4
    code, _, _ = run_text(capsys, ["uber", files["d2"], "--cap", "5"])
    assert code == 0
    monkeypatch.delenv("UBERHOM_CAP")
    code, _, err = run_text(capsys, ["horizontal", files["sparse"],
                                     "--colouring", "all"])
    assert code == 4  # 17 vertices exceeds the --colouring all limit


def test_uber_cap_comes_before_the_component_cube(tmp_path, capsys, monkeypatch):
    """A 1-dimensional input takes the black-component cube; --cap and
    UBERHOM_CAP refuse it, with the engine's message, before that cube is
    built."""
    def unreachable(m, adj):
        raise AssertionError("component cube built past the cap")

    cycle = tmp_path / "cycle5.cplx"
    cycle.write_text(format_complex(standard_complex("cycle", 5)))
    monkeypatch.setattr(uber, "_component_cube_ranks", unreachable)
    code, out, err = run_text(capsys, ["uber", str(cycle), "--cap", "2"])
    assert (code, out) == (4, "") and "the cube cap is 2" in err
    monkeypatch.setenv("UBERHOM_CAP", "2")
    code, out, err = run_text(capsys, ["uber", str(cycle)])
    assert (code, out) == (4, "") and "the cube cap is 2" in err


def test_uber_edge_case_output(tmp_path, capsys, monkeypatch):
    """uber's exact output on the inputs at the edge of the graph route: two
    isolated vertices (on it, acyclic), the single edge (a simplex, so the
    engine), and, since a complex file always holds every vertex, a void
    complex and one with a vertex outside X handed over by the parser."""
    def expected(text, ranks):
        return json.dumps({"command": "uber", "ranks": ranks, "vertex_count": 2,
                           "input_sha256": hashlib.sha256(text.encode()).hexdigest(),
                           "vertex_order": [0, 1]}, indent=2, sort_keys=True) + "\n"

    path = tmp_path / "x.cplx"
    for text, ranks in (("2\n", {}), ("2\n0 1\n", {"(00,00,01)": 2, "(00,01,02)": 1,
                                                    "(01,00,00)": 1})):
        path.write_text(text)
        assert run_text(capsys, ["uber", str(path)]) == (0, expected(text, ranks), "")
    path.write_text("2\n")
    for X in (SimplicialComplex(2, frozenset()), SimplicialComplex(2, frozenset({0b01}))):
        monkeypatch.setattr(cli, "read_complex", lambda text, X=X: X)
        assert run_text(capsys, ["uber", str(path)]) == (0, expected("2\n", {}), "")


def test_negative_cap_is_a_parse_error(files, capsys, monkeypatch):
    """A negative cube cap, from --cap or UBERHOM_CAP, exits 2 with a message
    on every command that reads the cap."""
    code, out, err = run_text(capsys, ["uber", files["d2"], "--cap", "-3"])
    assert (code, out, err) == (2, "", "uberhom: the cube cap must be at least 0, got -3\n")
    twins = Path(files["k4"]).with_name("twins.g6")
    twins.write_text("C~\nC~\n")
    monkeypatch.setenv("UBERHOM_CAP", "-1")
    for argv in (["theta", files["k4"], "--level", "0"], ["dissim", str(twins)],
                 ["graph-hom", "h0", files["k4"]], ["uber", files["d2"]]):
        code, out, err = run_text(capsys, argv)
        assert (code, out, err) == (2, "", "uberhom: the cube cap must be at least 0, "
                                    "got -1\n"), argv


def test_level_sweep_cap(tmp_path, capsys, monkeypatch):
    """--colouring level:j refuses more colourings than --colouring all
    allows, before building any of them."""
    path = tmp_path / "cycle40.cplx"
    path.write_text(format_complex(standard_complex("cycle", 40)))
    report = run_json(capsys, ["horizontal", str(path), "--colouring", "level:1"])
    assert len(report["colourings"]) == 40

    def unreachable(m, j):
        raise AssertionError("colourings built past the cap")

    monkeypatch.setattr(cli, "level_masks", unreachable)
    code, out, err = run_text(capsys, ["horizontal", str(path), "--colouring", "level:20"])
    assert (code, out) == (4, "")
    assert "limit for --colouring level" in err


def test_input_closure_cap(tmp_path, capsys, monkeypatch):
    """A complex file whose facets have more than 2^20 faces, counted once
    per facet, exits 4 before any face is closed."""
    def unreachable(m, masks):
        raise AssertionError("facets closed past the cap")

    monkeypatch.setattr(complexes, "_closure", unreachable)
    path = tmp_path / "big.cplx"
    for text in ("64\n" + " ".join(map(str, range(64))) + "\n",
                 "21\n" + " ".join(map(str, range(20))) + "\n"
                 + " ".join(map(str, range(1, 21))) + "\n"):
        path.write_text(text)
        code, out, err = run_text(capsys, ["uber0", str(path)])
        assert (code, out) == (4, "")
        assert "limit for an input complex" in err


def test_uber0(files, capsys):
    report = run_json(capsys, ["uber0", files["d2"]])
    assert report["ranks"] == {"(00,01)": 3, "(01,02)": 3, "(02,03)": 1}


def test_theta(files, capsys):
    report = run_json(capsys, ["theta", files["k4"], "--level", "1"])
    assert report["level"] == 1
    assert sorted(map(tuple, report["entries"])) == sorted(
        [(1, 1, 2, 3)] * 4 + [(1, 0, 0, 1)] * 4)
    total = sum(sig["count"] for sig in report["signatures"])
    assert total == 4
    code, _, err = run_text(capsys, ["theta", files["k4"]])
    assert code == 2


def test_theta_level_bound(tmp_path, capsys, monkeypatch):
    """theta and dissim refuse a level of more than 2^cap colourings before
    building it; a 7-vertex corpus, compared at every level, is unchanged."""
    monkeypatch.delenv("UBERHOM_CAP", raising=False)
    build = graphs.level_masks

    def bounded(m, j):
        if comb(m, j) > 1 << uber.cube_cap():
            raise AssertionError("colourings built past the cap")
        return build(m, j)

    monkeypatch.setattr(graphs, "level_masks", bounded)
    path = tmp_path / "path40.g6"
    path40 = encode_graph6(SimpleGraph.from_edges(40, [(i, i + 1) for i in range(39)]))
    path.write_text(path40 + "\n")
    code, out, err = run_text(capsys, ["theta", str(path), "--level", "20"])
    assert (code, out) == (4, "")
    assert "the cube cap" in err
    path.write_text(f"{path40}\n{path40}\n")
    monkeypatch.setenv("UBERHOM_CAP", "12")  # refused at level 3, not 6
    code, out, err = run_text(capsys, ["dissim", str(path)])
    assert (code, out) == (4, "")
    monkeypatch.delenv("UBERHOM_CAP")
    path.write_text("Flea?\nFle_O\nFz`a?\nFrSJG\nFheoW\n")  # the last two Theta-equal
    code, out, _ = run_text(capsys, ["dissim", str(path)])
    assert code == 0
    assert out.splitlines() == [
        "name1,name2,delta_num,delta_den,first_differing_level",
        "Flea?,Fle_O,4,7,3", "Flea?,Fz`a?,6,7,1", "Flea?,FrSJG,1,1,0",
        "Flea?,FheoW,1,1,0", "Fle_O,Fz`a?,6,7,1", "Fle_O,FrSJG,1,1,0",
        "Fle_O,FheoW,1,1,0", "Fz`a?,FrSJG,1,1,0", "Fz`a?,FheoW,1,1,0",
        "FrSJG,FheoW,0,1,theta-equivalent",
    ]


def test_dissim_csv_frozen(files, capsys):
    code, out, _ = run_text(capsys, ["dissim", files["corpus"]])
    assert code == 0
    assert out.splitlines() == [
        "name1,name2,delta_num,delta_den,first_differing_level",
        "E{Sw,EFz_,2,3,2",
        "E{Sw,C~,inf,,",
        "EFz_,C~,inf,,",
    ]


def test_dissim_parallel_and_json(files, capsys):
    code1, out1, _ = run_text(capsys, ["dissim", files["corpus"], "--jobs", "1"])
    code2, out2, _ = run_text(capsys, ["dissim", files["corpus"], "--jobs", "3"])
    assert code1 == code2 == 0
    assert out1 == out2
    report = run_json(capsys, ["dissim", files["corpus"], "--format", "json"])
    assert report["graph_count"] == 3
    assert report["pairs"][0] == {
        "name1": "E{Sw", "name2": "EFz_", "delta_num": "2", "delta_den": "3",
        "first_differing_level": "2"}


def test_disconnected_graph_contract(tmp_path, capsys):
    """Theta levels 0 and 1 accept a disconnected graph; level 2 exits 2, and
    so does dissim exactly when a disconnected graph shares levels 0 and 1
    with another graph of the corpus."""
    graph = tmp_path / "two_edges.g6"
    graph.write_text("C`\n")  # edges 0-1 and 2-3
    report = run_json(capsys, ["theta", str(graph), "--level", "1"])
    assert report["level"] == 1
    code, _, err = run_text(capsys, ["theta", str(graph), "--level", "2"])
    assert code == 2
    assert "graph must be connected" in err
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("C`\nC~\n")  # K4 differs at level 0
    code, out, _ = run_text(capsys, ["dissim", str(corpus)])
    assert code == 0
    assert out.splitlines()[1:] == ["C`,C~,1,1,0"]
    for text in ("C`\nC`\n", "C`\nC`\nC~\n"):
        corpus.write_text(text)
        code, _, err = run_text(capsys, ["dissim", str(corpus)])
        assert code == 2
        assert "graph must be connected" in err


def test_jobs_are_validated_and_clamped(files, capsys, monkeypatch):
    """--jobs below 1 exits 2; a horizontal sweep's pool gets min(jobs,
    CPUs, work items) workers, and none is started for one; dissim accepts
    --jobs but never starts a pool."""
    for argv in (["dissim", files["corpus"]],
                 ["horizontal", files["d2"], "--colouring", "all"]):
        for jobs in ("0", "-2"):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--jobs", jobs])
            assert exc.value.code == 2
            assert "--jobs must be at least 1" in capsys.readouterr().err
    sizes = []

    class RecordingPool:  # runs serially and records the pool size
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cases = [  # (cpu_count, argv, jobs, workers or None)
        (4, ["dissim", files["corpus"]], 2, None),
        (4, ["dissim", files["corpus"]], 8, None),
        (2, ["dissim", files["corpus"]], 8, None),
        (None, ["dissim", files["corpus"]], 8, None),
        (4, ["dissim", files["k4"]], 2, None),
        (4, ["horizontal", files["d2"], "--colouring", "all"], 6, 4),
        (4, ["horizontal", files["d2"], "--colouring", "level:1"], 4, 3),
        (4, ["horizontal", files["d2"], "--colouring", "all"], 1, None),
    ]
    for cpus, argv, jobs, workers in cases:
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        sizes.clear()
        assert main(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", str(jobs)]) == 0
        assert capsys.readouterr().out == serial
        assert sizes == ([] if workers is None else [workers]), (cpus, argv, jobs)


def test_graph_hom(files, capsys):
    report = run_json(capsys, ["graph-hom", "h0", files["k4"]])
    assert report["ranks"] == {"01": 1}
    report = run_json(capsys, ["graph-hom", "h1_0", files["k4"]])
    assert report["ranks"] == {"00": 4}
    report = run_json(capsys, ["graph-hom", "h1_1", files["k4"]])
    assert report["homology"] == "h1_1"
    report = run_json(capsys, ["graph-hom", "h2", files["k4"]])
    assert report["ranks"] == {}


def test_graph_hom_h0_cap(tmp_path, capsys, monkeypatch):
    """graph-hom h0 refuses a graph above the cube cap before it builds any
    colouring; a graph under the cap keeps its output."""
    monkeypatch.delenv("UBERHOM_CAP", raising=False)
    paths = {}
    for m in (10, 24):
        cycle = SimpleGraph.from_edges(m, [(i, (i + 1) % m) for i in range(m)])
        paths[m] = tmp_path / f"cycle{m}.g6"
        paths[m].write_text(encode_graph6(cycle) + "\n")
    report = run_json(capsys, ["graph-hom", "h0", str(paths[10])])
    assert (report["vertex_count"], report["ranks"]) == (10, {"08": 1})

    def unreachable(m, adj):
        raise AssertionError("component cube built past the cap")

    monkeypatch.setattr(graphs, "_component_cube_ranks", unreachable)
    code, out, err = run_text(capsys, ["graph-hom", "h0", str(paths[24])])
    assert (code, out) == (4, "")
    assert "the cube cap is 20" in err and "--cap" not in err
    monkeypatch.setenv("UBERHOM_CAP", "9")
    code, out, err = run_text(capsys, ["graph-hom", "h0", str(paths[10])])
    assert (code, out) == (4, "")


def test_matching_complex_command(files, capsys):
    report = run_json(capsys, ["matching-complex", files["k4"]])
    assert report["facets"] == [[2, 3], [1, 4], [0, 5]]
    assert report["vertex_count"] == 6
    M = matching_complex(parse_graph6("C~"))
    assert report["text"] == format_complex(M)


def test_tait(files, capsys):
    report = run_json(capsys, ["tait", files["tri"]])
    assert report["partition"] == {"primal": 3, "faces": 2, "crossings": 3}
    assert report["colouring"] == "110011001100"
    assert report["overlay_vertex_count"] == 12
    assert report["ranks"] == {"(00,00)": 1, "(01,00)": 2, "(02,02)": 6}


def test_verify_thm42(files, capsys):
    report = run_json(capsys, ["verify-thm42", files["tri"]])
    assert report["all_equal"] is True
    assert report["level0_matches_subdivision"] is True
    assert report["levels"]["00"]["lhs"] == {"00": 1, "01": 2}
    assert report["levels"]["00"]["equal"] is True
    assert report["levels"]["02"]["lhs"] == {"02": 6}


# stdout SHA-256 of the overlay commands; the overlay ranks may be computed
# in any order, but these bytes must not change
OVERLAY_DIGESTS = {
    ("square", "tait"):
        "62cbfbb865eec83668da89d7e2a0a85cd98c1c2776cae3178ad0f1c11240063b",
    ("square", "verify-thm42"):
        "3e94feb21f0bf5cb146f5b70e606e1706bb7c37dc5b005dfad4148af3357abde",
    ("wheel4", "tait"):
        "88fae90f87c531ff66c20caa1ccdf1c180c96967a68901818ee8cf47e8d6625c",
    ("wheel4", "verify-thm42"):
        "84b435da4ef736ed49db20c5b0091a091e736e4c2b7d9f381391fcfc281bd40c",
    ("prism", "tait"):
        "170b51d83023768ab5c3473734745dfc3f7e4071b00615a1bc89db9e70af61d4",
    ("wheel5", "tait"):  # 10 edges: no benchmark workload runs it
        "3b5a8d8be28b4d5975be7f2231c5b3a377dca2ec214279c4ea61b99a046c3ea5",
}


def test_overlay_golden(tmp_path, capsys):
    planes = plane_fixtures()
    for (name, command), digest in OVERLAY_DIGESTS.items():
        path = tmp_path / f"{name}.plane"
        path.write_text(format_plane_graph(planes[name]))
        code, out, err = run_text(capsys, [command, str(path)])
        assert code == 0 and not err
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (name, command)


def test_overlay_input_contract(tmp_path, capsys, monkeypatch):
    def unreachable(edges):
        raise AssertionError("matching complex built for a rejected overlay")

    monkeypatch.setattr(planar, "matching_complex_of_edges", unreachable)
    k1 = tmp_path / "k1.plane"
    k1.write_text("v 0:\n")
    wheel9 = tmp_path / "wheel9.plane"
    wheel9.write_text(format_plane_graph(plane_fixtures()["wheel9"]))  # 18 edges
    for command in ("tait", "verify-thm42"):
        code, out, err = run_text(capsys, [command, str(k1)])
        assert (code, out) == (2, "")
        assert err == "uberhom: overlay needs at least one edge\n"
        code, out, err = run_text(capsys, [command, str(wheel9)])
        assert (code, out) == (4, "")
        assert err == "uberhom: overlay is limited to 12 edges, got 18\n"


def test_readme_synopsis_matches_the_parser():
    """README's synopsis line for each subcommand names exactly the options
    its parser takes, --format aside, and only dissim defaults to CSV."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    synopsis = {line.split()[1]: line for line in block.splitlines()}
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(synopsis) == sorted(commands.choices)
    for name, sub in commands.choices.items():
        options = {flag for action in sub._actions for flag in action.option_strings
                   if flag.startswith("--")} - {"--help", "--format"}
        assert set(re.findall(r"--[a-z]+", synopsis[name])) - {"--format"} == options, name
        assert sub.get_default("format") == ("csv" if name == "dissim" else "json"), name


def test_table_and_csv_formats(files, capsys):
    code, out, _ = run_text(capsys, ["uber0", files["d2"], "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert '"ranks.(00,01)",3' in lines
    code, out, _ = run_text(capsys, ["uber0", files["d2"], "--format", "table"])
    assert code == 0
    assert any("ranks.(00,01)" in line and line.rstrip().endswith("3")
               for line in out.splitlines())


def test_json_deterministic(files, capsys):
    argv = ["uber", files["d2"]]
    main(argv)
    out1 = capsys.readouterr().out
    main(argv)
    out2 = capsys.readouterr().out
    assert out1 == out2
    parsed = json.loads(out1)
    assert out1 == json.dumps(parsed, indent=2, sort_keys=True) + "\n"


def test_error_exit_codes(files, capsys, tmp_path):
    # parse error: malformed complex
    bad = tmp_path / "bad.cplx"
    bad.write_text("not a number\n")
    code, _, err = run_text(capsys, ["horizontal", str(bad),
                                     "--colouring", "1"])
    assert code == 2 and "uberhom:" in err
    # missing file
    code, _, _ = run_text(capsys, ["horizontal", str(tmp_path / "nope"),
                                   "--colouring", "1"])
    assert code == 2
    # colouring length mismatch
    code, _, _ = run_text(capsys, ["horizontal", files["d2"],
                                   "--colouring", "10"])
    assert code == 3


def test_engine_error_exit_code(files, capsys, monkeypatch):
    def broken(source_block, target_block, v):
        raise uberhom.EngineError("cube edge map failed the chain-map law")

    monkeypatch.setattr(uber, "d_eta_matrix", broken)
    code, out, err = run_text(capsys, ["uber", files["d2"]])
    assert (code, out) == (5, "")
    assert err == "uberhom: cube edge map failed the chain-map law\n"


def child_env() -> dict:
    """Environment under which a child process imports the same package as
    this one, installed or not."""
    src = str(Path(uberhom.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}


def test_cli_import_leaves_out_the_process_pool():
    """Only a sweep that starts a pool imports the process-pool machinery."""
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, uberhom.cli; print('concurrent.futures.process' in sys.modules)"],
        capture_output=True, text=True, env=child_env())
    assert (result.returncode, result.stdout) == (0, "False\n")


def test_console_script_subprocess(files):
    env = child_env()
    result = subprocess.run(
        [sys.executable, "-m", "uberhom.cli", "uber0", files["d2"]],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0
    assert json.loads(result.stdout)["ranks"]["(02,03)"] == 1
    result = subprocess.run(
        [sys.executable, "-m", "uberhom.cli", "uber", files["d3"],
         "--cap", "1"],
        capture_output=True, text=True, env=env)
    assert result.returncode == 4
    result = subprocess.run(
        [sys.executable, "-m", "uberhom.cli", "horizontal", files["d2"],
         "--colouring", "10"],
        capture_output=True, text=True, env=env)
    assert result.returncode == 3
