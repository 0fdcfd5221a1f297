"""End-to-end tests of the command-line interface.

Most tests drive main() in-process and inspect parsed JSON; a few go through
the installed console script to pin down exit codes in a real process.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uberhom
from uberhom import format_complex, matching_complex, parse_graph6, standard_complex
from uberhom.cli import main

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
    code, _, err = run_text(capsys, ["uber", files["d2"], "--cap", "2"])
    assert code == 4
    monkeypatch.setenv("UBERHOM_CAP", "2")
    code, _, err = run_text(capsys, ["uber", files["d2"]])
    assert code == 4
    code, _, _ = run_text(capsys, ["uber", files["d2"], "--cap", "5"])
    assert code == 0
    monkeypatch.delenv("UBERHOM_CAP")
    code, _, err = run_text(capsys, ["horizontal", files["sparse"],
                                     "--colouring", "all"])
    assert code == 4  # 17 vertices exceeds the --colouring all limit


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
    """Theta levels 0 and 1 accept a disconnected graph; level 2 and dissim,
    which reaches level 2 on two equal graphs, exit 2."""
    graph = tmp_path / "two_edges.g6"
    graph.write_text("C`\n")  # edges 0-1 and 2-3
    corpus = tmp_path / "pair.g6"
    corpus.write_text("C`\nC`\n")
    report = run_json(capsys, ["theta", str(graph), "--level", "1"])
    assert report["level"] == 1
    code, _, err = run_text(capsys, ["theta", str(graph), "--level", "2"])
    assert code == 2
    assert "graph must be connected" in err
    code, _, err = run_text(capsys, ["dissim", str(corpus)])
    assert code == 2
    assert "graph must be connected" in err


def test_graph_hom(files, capsys):
    report = run_json(capsys, ["graph-hom", "h0", files["k4"]])
    assert report["ranks"] == {"01": 1}
    report = run_json(capsys, ["graph-hom", "h1_0", files["k4"]])
    assert report["ranks"] == {"00": 4}
    report = run_json(capsys, ["graph-hom", "h1_1", files["k4"]])
    assert report["homology"] == "h1_1"
    report = run_json(capsys, ["graph-hom", "h2", files["k4"]])
    assert report["ranks"] == {}


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


def test_console_script_subprocess(files):
    # the child process imports the same package as this one, installed or not
    src = str(Path(uberhom.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
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
