"""End-to-end tests of the command-line interface.

Most tests drive main() in-process and inspect parsed JSON; a few go through
the installed console script to pin down exit codes in a real process.
"""

import argparse
import ast
import concurrent.futures
import csv
import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path

import networkx as nx
import pytest

import uberhom
from uberhom import (Colouring, SimpleGraph, SimplicialComplex, cli, complexes, encode_graph6,
                     format_complex, format_plane_graph, graphs, matching_complex,
                     parse_graph6, planar, standard_complex, uber)
from uberhom.cli import main

from conftest import plane_fixtures, traced_layers

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


# stdout SHA-256 of `morse` then `decompose` over every colouring of each
# suite complex, in mask order; how the Morse report is computed may change,
# but these bytes must not
MORSE_DIGESTS = {
    "simplex1": "9ccc3b12ad3b551f33cb4e4378497b2e74f8c4d9e7940c61fb5d213a1093ca95",
    "simplex2": "16ca02adb4dcbc5805217e23cf2318882101695884444ec4fcc2cedd03518e5e",
    "simplex3": "98af95ba1ac2c075a474d8112e99490e6d3dc7580153ba5d1e19f1fccefce963",
    "simplex4": "a5da3290f656f644dda16373491a0bfc27d20cbb0d9b9604acb62b8616586655",
    "simplex5": "451f5036a3c3520ea920a6aa3aae650930091e645f89dc1188a1cb0357644bcd",
    "boundary2": "3176d2a54b878f3346f5a0d98ac62080633b0b1d8ffb7d2c128129806eb61c64",
    "boundary3": "09960609112fe929c59fda0008d0d83b390a24683beb63b16397d0ea1403e96d",
    "boundary4": "aa2aa123a50a5e6d06d1e903b82eb5a1b938497500c0cd87240f5cfc8ada0f38",
    "cycle4": "61739dc98379a87a243364e598b118d39163f835f61e221a1f6717c8b0e2ba21",
    "cycle5": "eb44b28d5e87bed4b4437ab82e02e1ecb69aae2bb513cadf25d4c9c86d03958c",
    "cycle6": "e6c9e99b307cc89508c29376848e8951f442b357983e0692a17aa568b9a14cac",
    "path3": "e8651015b074b54503346f26f76188d331cb3c6e36cb2dd0846a347c287766c4",
    "path5": "e84526d4940751f835bac1e5b6ef6447131f04a0df3a7dc68aa0fbe19d31917e",
    "rp2_min": "bb2404a06be04e7f7e6088e66ae53d0ee65f7b67a335873d7bd28912708073ef",
    "octahedron": "27df608adb3e0dd32af382e08a9b882e991c0559d391ff382e5f1cba175b45da",
    "cone_cycle4": "9e0b78e1c8ec6c8ec57bef38400fe39eb9ed905aba70cf354f9ff372e8c5628e",
    "complete4": "879d98a74750341f095ad84f7573a20b995d54519836c4969227ddcf8cab754c",
    "bipartite23": "a608b46faf5110707a6cca9ab5dfe82ed7f4cb41c6860a65bb20bc0571119d3f",
    "fig8": "8d39e13fd758fd9da661ac1cfc798b17a2974728135f8a16cf71a8e139dab07a",
    "pendants": "e37f35bd968c33f073868371ade15a19f64107b76639a3a13b3fc3cb338334a5",
    "two_triangles": "a00b7b534c2b9ef066dff2c29adfa3b13f2ca21b0c15de679766a224ffc934ff",
    "three_triangles": "59983094a2454ba78b4c10201e6698ed367b8a418bd9a9fef7a4c545fcfb28bf",
}


def test_morse_golden(suite, tmp_path, capsys):
    assert [name for name, _ in suite] == list(MORSE_DIGESTS)
    for name, X in suite:
        path = tmp_path / f"{name}.cplx"
        path.write_text(format_complex(X))
        digest = hashlib.sha256()
        m = X.vertex_count
        for bits in range(1 << m):
            for command in ("morse", "decompose"):
                code, out, err = run_text(capsys, [command, str(path), "--colouring",
                                                   str(Colouring(bits, m))])
                assert code == 0 and not err, (name, bits, command)
                digest.update(out.encode())
        assert digest.hexdigest() == MORSE_DIGESTS[name], name


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
    assert err.endswith("(override with --cap)\n")  # the hint names the cap's source
    monkeypatch.setenv("UBERHOM_CAP", "2")
    code, _, err = run_text(capsys, ["uber", files["d2"]])
    assert code == 4
    assert err.endswith("(override with UBERHOM_CAP)\n")
    code, _, _ = run_text(capsys, ["uber", files["d2"], "--cap", "5"])
    assert code == 0
    monkeypatch.setenv("UBERHOM_CAP", "5")
    code, _, err = run_text(capsys, ["uber", files["d2"], "--cap", "2"])
    assert code == 4
    assert err.endswith("(override with --cap)\n")
    monkeypatch.delenv("UBERHOM_CAP")
    code, _, err = run_text(capsys, ["horizontal", files["sparse"],
                                     "--colouring", "all"])
    assert code == 4  # 17 vertices exceeds the --colouring all limit
    # a huge cap allows the work without building 2^cap (12.5 GB at 10^11)
    huge = str(10 ** 11)
    assert run_text(capsys, ["uber", files["d2"], "--cap", huge])[0] == 0
    monkeypatch.setenv("UBERHOM_CAP", huge)
    for argv in (["uber", files["d2"]], ["graph-hom", "h0", files["k4"]],
                 ["theta", files["k4"], "--level", "2"], ["dissim", files["corpus"]]):
        code, out, err = run_text(capsys, argv)
        assert (code, err) == (0, "") and out, argv


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


@pytest.mark.parametrize("argv", [["filtered", "--level", "1"], ["euler"], ["morse"],
                                  ["decompose"], ["horizontal", "--generators"]])
def test_single_colouring_refuses_a_sweep_before_building_it(argv, tmp_path, capsys,
                                                             monkeypatch):
    """A command that takes one colouring, and --generators, refuse 'all' and a
    level of several colourings with exit 2 at every vertex count, counting
    the colourings before any is built."""
    def unreachable(*args):
        raise AssertionError("colourings built before the spec was counted")

    monkeypatch.setattr(cli, "level_masks", unreachable)
    monkeypatch.setattr(cli, "Colouring", unreachable)
    for m in (5, 17):
        path = tmp_path / f"cycle{m}.cplx"
        path.write_text(format_complex(standard_complex("cycle", m)))
        for spec in ("all", "level:2"):
            code, out, err = run_text(capsys, [argv[0], str(path), "--colouring", spec,
                                               *argv[1:]])
            assert (code, out) == (2, ""), (argv, m, spec)
            assert err.startswith("uberhom: ") and err.count("\n") == 1, err


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
    assert err.endswith("(override with UBERHOM_CAP)\n")
    path.write_text(f"{path40}\n{path40}\n")
    monkeypatch.setenv("UBERHOM_CAP", "12")  # refused at level 3, not 6
    code, out, err = run_text(capsys, ["dissim", str(path)])
    assert (code, out) == (4, "")
    assert err.endswith("(override with UBERHOM_CAP)\n")
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


def test_dissim_fields_are_delta_in_lowest_terms():
    """Each row's gcd pair is Fraction(m - j, m), for every vertex count a
    graph may have and every level, and 0/1 when no level differs."""
    for m in range(1, 65):
        for j in range(m + 1):
            delta = Fraction(m - j, m)
            assert cli._dissim_fields(m, j) == (
                str(delta.numerator), str(delta.denominator), str(j))
        assert cli._dissim_fields(m, None) == ("0", "1", "theta-equivalent")
    assert cli._dissim_fields(None, None) == ("inf", "", "")


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


# stdout SHA-256 of dissim's json and table reports on the `files` corpus,
# taken when each pair was still built as a dict
DISSIM_REPORT_DIGESTS = {
    "json": "c8c860843bd8fa095021b8cbece774fb219e7dc9b8f04c63e9fdda8cdaf4187b",
    "table": "572f8908450e32055ddffcfa51eace3c73f6f6347e14096ea2a2264b525f7d8c",
}


def test_dissim_json_and_table_frozen(files, capsys):
    for fmt, digest in DISSIM_REPORT_DIGESTS.items():
        code, out, _ = run_text(capsys, ["dissim", files["corpus"], "--format", fmt])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


def test_dissim_csv_is_what_csv_writer_writes(tmp_path, capsys):
    """dissim joins its row tuples with commas, which is csv.writer's output
    because no field needs quoting: names with and without a >>graph6<<
    prefix, a corpus of mixed vertex counts (inf rows) and Theta-equivalent
    pairs (K4 twice, and FrSJG and FheoW)."""
    path = tmp_path / "mixed.g6"
    path.write_text(">>graph6<<Flea?\nFle_O\n>>graph6<<C~\nFrSJG\nFheoW\nC~\nBw\n")
    code, out, _ = run_text(capsys, ["dissim", str(path)])
    assert code == 0
    report = run_json(capsys, ["dissim", str(path), "--format", "json"])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cli.DISSIM_FIELDS)
    writer.writerows([pair[field] for field in cli.DISSIM_FIELDS] for pair in report["pairs"])
    assert out == buf.getvalue()
    levels = Counter(pair["first_differing_level"] for pair in report["pairs"])
    assert levels[""] and levels["theta-equivalent"] and levels["0"]
    # every character parse_graph6 lets into a name is written unquoted
    name = ">>graph6<<" + "".join(map(chr, range(63, 127)))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([name, name, "inf", "", ""])
    assert buf.getvalue() == f"{name},{name},inf,,\n"


def test_named_command_parser_reads_the_same(capsys, monkeypatch):
    """main builds only the subparser argv names; stdout, stderr and the exit
    code are those of the parser with every subparser."""
    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    argvs = ([], ["--help"], ["bogus"], ["uber", "--help"], ["uber"],
             ["dissim", "x", "--jobs", "0"], ["uber", "x", "--bogus"])
    named = [outcome(argv) for argv in argvs]
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda names: full())
    assert named == [outcome(argv) for argv in argvs]
    assert [code for code, _, _ in named] == [2, 0, 2, 0, 2, 2, 2]


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

    monkeypatch.setattr(uber, "_component_cube_ranks", unreachable)
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


# stdout SHA-256 of `matching-complex` on K_4, K_6 and the 7-cycle
MATCHING_COMPLEX_DIGESTS = {
    "C~": "3f577eb53071244fd09b0e911fd8176edd3175496b6550818294138119c47724",
    "E~~w": "995f5db8625b7669576fa4f9c38025f745b6ee48dba25ebc6e6136ec08dfd6de",
    "FhCKG": "70e267c8db25df6746d97837e7b30ac1711e2f682b2be91b07c936dbfdd5798f",
}


def test_matching_complex_scans_facets_once(tmp_path, capsys, monkeypatch):
    """Both the facet list and the text form come from one facet scan, and
    the report's bytes are unchanged."""
    calls = []
    facets = SimplicialComplex.facets

    def counted(self):
        calls.append(self)
        return facets(self)

    monkeypatch.setattr(SimplicialComplex, "facets", counted)
    path = tmp_path / "graph.g6"
    for line, digest in MATCHING_COMPLEX_DIGESTS.items():
        path.write_text(line + "\n")
        calls.clear()
        code, out, err = run_text(capsys, ["matching-complex", str(path)])
        assert (code, err, len(calls)) == (0, "", 1), line
        assert hashlib.sha256(out.encode()).hexdigest() == digest, line


def test_matching_complex_bound(tmp_path, capsys, monkeypatch):
    """matching-complex exits 4 once the search has found more matchings than
    an input complex may have faces; a graph under the limit keeps its output."""
    monkeypatch.setattr(graphs, "MAX_INPUT_FACES", 1 << 12)
    path = tmp_path / "edges.g6"
    path.write_text(encode_graph6(SimpleGraph.from_edges(
        64, [(2 * i, 2 * i + 1) for i in range(32)])) + "\n")  # 2^32 matchings
    start = time.perf_counter()
    code, out, err = run_text(capsys, ["matching-complex", str(path)])
    assert time.perf_counter() - start < 1
    assert (code, out) == (4, "")
    assert "the limit for a matching complex" in err
    path.write_text(encode_graph6(SimpleGraph.from_edges(
        8, [(u, v) for v in range(8) for u in range(v)])) + "\n")  # K_8: 763
    report = run_json(capsys, ["matching-complex", str(path)])
    assert report["edge_count"] == 28 and report["vertex_count"] == 28


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
    # 12 edges, recorded when each took 4-8 s by one survivor homology per
    # crossing set
    ("cube", "tait"):
        "b91a0e099f77296e83de0ff2ce83768feb611fcbb72e3e38ce431d204dcd2ad6",
    ("octahedron", "tait"):
        "3ad2353a333636c74fec3d7dd46aec67edfd694963eafebdf5f8e4d4bdd6d540",
    ("wheel6", "tait"):
        "b97ae1547e2b8665a7fc6c03c51fe49eeca6fa6efb1b49a8b9607c06541e16c1",
}


def test_overlay_golden(tmp_path, capsys):
    planes = plane_fixtures()
    for (name, command), digest in OVERLAY_DIGESTS.items():
        path = tmp_path / f"{name}.plane"
        path.write_text(format_plane_graph(planes[name]))
        code, out, err = run_text(capsys, [command, str(path)])
        assert code == 0 and not err
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (name, command)


# stdout SHA-256 of the graph layer's commands over the networkx atlas graphs
# on 2 to 6 vertices, one digest per command: `uber` on every graph as a
# complex, connected or not; `theta` at every level and each `graph-hom` on
# the connected ones; `dissim` on the connected ones as one corpus of mixed
# vertex counts.  How black components are counted may change, but these
# bytes must not.
GRAPH_LAYER_DIGESTS = {
    "uber":
        "7905d6380a1085f97f8f2e05d8d31f2a3dbf76e2349e9e67fd11c34ac2e7b288",
    "theta":
        "dcd21374fa0d1e5731603059ca064937781becd3f5b1b8658007cce89d58c6f3",
    "graph-hom h0":
        "615c5692afa278eda3d1cd8f0f65ea061a971e52cfb87bca8d477b95a467130e",
    "graph-hom h1_0":
        "9c9d8814bc7b4a83673c04b970c43965cbb31222301d61eacb8ee6835cf3cab6",
    "graph-hom h1_1":
        "bab95ab48964a01ef729377d269a9e411d41e0155b490183de7f02cc9e3c9076",
    "graph-hom h2":
        "dd51752cce91f70d4ad01fbefee7fcbeabfaeb7840c755a8bf5b315d841b8a71",
    "dissim":
        "6249b3cc8969a13afb51ee0dcfc82e520dc3cca9e47d321ddcf45028dc2585be",
}


def test_graph_layer_golden(tmp_path, capsys, monkeypatch):
    # one parser for all ~1,700 runs: building it is most of a small run's time
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))
    atlas = [g for g in nx.graph_atlas_g() if 2 <= len(g) <= 6]
    runs = {command: [] for command in GRAPH_LAYER_DIGESTS}
    corpus = []
    for n, g in enumerate(atlas):
        G = SimpleGraph.from_edges(len(g), g.edges)
        cplx = tmp_path / f"{n}.cplx"
        cplx.write_text("".join([f"{len(g)}\n", *(f"{u} {v}\n" for u, v in G.edges)]))
        runs["uber"].append(["uber", str(cplx)])
        if not nx.is_connected(g):
            continue
        g6 = tmp_path / f"{n}.g6"
        g6.write_text(encode_graph6(G) + "\n")
        corpus.append(encode_graph6(G))
        runs["theta"] += [["theta", str(g6), "--level", str(j)] for j in range(len(g) + 1)]
        for which in ("h0", "h1_0", "h1_1", "h2"):
            runs[f"graph-hom {which}"].append(["graph-hom", which, str(g6)])
    (tmp_path / "corpus.g6").write_text("\n".join(corpus) + "\n")
    runs["dissim"].append(["dissim", str(tmp_path / "corpus.g6")])
    for command, argvs in runs.items():
        digest = hashlib.sha256()
        for argv in argvs:
            code, out, err = run_text(capsys, argv)
            assert code == 0 and not err, argv
            digest.update(out.encode())
        assert digest.hexdigest() == GRAPH_LAYER_DIGESTS[command], command


def test_overlay_input_contract(tmp_path, capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("matchings enumerated for a rejected overlay")

    monkeypatch.setattr(planar, "matching_blocks", unreachable)  # planar's one enumerator
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


def runnable_argv(name: str) -> list[str]:
    """The options a command needs to run on a one-vertex complex or on K4:
    graph-hom's `which`, --colouring and --level."""
    values = {"which": ["h0"], "--colouring": ["--colouring", "0"], "--level": ["--level", "0"]}
    return [v for option in cli.COMMANDS[name].options for v in values.get(option, [])]


@pytest.mark.parametrize("name", sorted(cli.COMMANDS))
def test_input_contract(name, tmp_path, capsys):
    """A missing file, a file that is not UTF-8 and a file of comments only
    each exit 2 with one message line and no output, on every command."""
    latin1 = tmp_path / "latin1"
    latin1.write_bytes(b"\xff\xfe1\n")
    comments = tmp_path / "comments"
    comments.write_text("# nothing\n# here\n")
    for path in (tmp_path / "missing", latin1, comments):
        code, out, err = run_text(capsys, [name, *runnable_argv(name), str(path)])
        assert (code, out) == (2, ""), (name, path.name, err)
        assert err.startswith("uberhom: ") and err.count("\n") == 1, (name, err)
        assert "Traceback" not in err


def test_readers_are_reached_through_module_attributes(tmp_path, capsys, monkeypatch):
    """main reaches the file loader and each parser through an attribute of
    uberhom.cli, which is what a tracer patches: every command loads its
    input once and parses it once, and dissim parses each graph6 line."""
    calls = Counter()
    for reader in ("_load", "read_complex", "parse_graph6", "parse_plane_graph"):
        def counted(text, reader=reader, original=getattr(cli, reader)):
            calls[reader] += 1
            return original(text)
        monkeypatch.setattr(cli, reader, counted)
    graph6 = "# K4, K4 and C4\nC~\nC~\nCr\n"
    inputs = {"complex": ("1\n0\n", "read_complex", 1), "graph": (graph6, "parse_graph6", 1),
              "corpus": (graph6, "parse_graph6", 3),
              "plane": (TRIANGLE_PLANE, "parse_plane_graph", 1)}
    path = tmp_path / "input"
    for name, command in cli.COMMANDS.items():
        text, parser, parses = inputs[command.reads]
        path.write_text(text)
        calls.clear()
        code, _, err = run_text(capsys, [name, *runnable_argv(name), str(path)])
        assert code == 0, (name, err)
        assert calls == {"_load": 1, parser: parses}, name


def test_engine_error_exit_code(files, capsys, monkeypatch):
    def broken(source_block, target_block, v):
        raise uberhom.EngineError("cube edge map failed the chain-map law")

    monkeypatch.setattr(uber, "d_eta_matrix", broken)
    code, out, err = run_text(capsys, ["uber", files["d2"]])
    assert (code, out) == (5, "")
    assert err == "uberhom: cube edge map failed the chain-map law\n"


@pytest.mark.parametrize("route, text", [("_engine_cube", "3\n0 1 2\n"),
                                          ("_graph_cube", "4\n0 1\n1 2\n2 3\n0 3\n")],
                         ids=["engine", "graph"])
@pytest.mark.parametrize("bumped, identity", [
    (((0, 0, 0), (0, 1, 0)), "degree-0"), (((2, 0, 0),), "Euler")], ids=["degree0", "euler"])
def test_a_rank_off_by_one_exits_5(tmp_path, capsys, monkeypatch, route, text, bumped, identity):
    """uber_homology checks its ranks against the degree-0 closed form and the
    graded Euler sums, so a route that returns ranks one too high exits 5
    with one uberhom: line: two at level 0 whose Euler signs cancel fail the
    first check alone, and one at level 2 the second alone."""
    original = getattr(uber, route)

    def off_by_one(X):
        ranks = original(X)
        return {**ranks, **{key: ranks.get(key, 0) + 1 for key in bumped}}

    monkeypatch.setattr(uber, route, off_by_one)
    path = tmp_path / "X.cplx"
    path.write_text(text)
    code, out, err = run_text(capsys, ["uber", str(path)])
    assert (code, out) == (5, "")
    assert err.startswith("uberhom: ") and identity in err and err.count("\n") == 1, err


def child_env() -> dict:
    """Environment under which a child process imports the same package as
    this one, installed or not."""
    src = str(Path(uberhom.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}


def test_cli_import_leaves_out_the_process_pool():
    """Only a sweep that starts a pool imports the process-pool machinery,
    and a CLI process starts without dataclasses, inspect, fractions,
    decimal or csv.  `import uberhom` alone loads every module of the
    benchmark's traced layers but the CLI, which its tracing job imports
    before it patches them."""
    unused = ("concurrent.futures.process", "dataclasses", "inspect", "fractions",
              "decimal", "csv")
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, uberhom; print(sorted(sys.modules)); import uberhom.cli; "
         f"print([name for name in {unused!r} if name in sys.modules])"],
        capture_output=True, text=True, env=child_env())
    assert result.returncode == 0, result.stderr
    library, loaded = map(ast.literal_eval, result.stdout.splitlines())
    assert loaded == []
    layers = {f"uberhom.{module}" for module, _ in traced_layers()}
    assert layers - set(library) == {"uberhom.cli"}


def test_dissim_run_leaves_out_fractions(files):
    """A dissim run writes its Delta rows without importing fractions."""
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys; from uberhom.cli import main; "
         f"code = main(['dissim', {files['corpus']!r}]); "
         "print(code, 'fractions' in sys.modules, file=sys.stderr)"],
        capture_output=True, text=True, env=child_env())
    assert result.returncode == 0, result.stderr
    assert "E{Sw,EFz_,2,3,2" in result.stdout.splitlines()
    assert result.stderr == "0 False\n"


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
