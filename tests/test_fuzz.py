"""Fixed-seed mutation fuzz of the three input parsers and of the CLI.

Each parser reads byte-level mutants of valid inputs: one to three bit
flips, deleted bytes or inserted bytes each.  A mutant must either parse or
raise an `UberhomError` that is not an `EngineError`; anything else escaping
is a parser bug.  Whatever parses must be a valid object of its kind.

`cli.main` runs every subcommand on small mutated inputs of the kind its
`Command.reads` names, with drawn option values; each run must exit 0, 2, 3
or 4, never print a traceback, and write stdout exactly when it exits 0.  A
JSON report must carry the SHA-256 of the input bytes and the command name.
"""

import hashlib
import json
import random

from uberhom import (EngineError, UberhomError, cli, encode_graph6, format_complex,
                     format_plane_graph, parse_graph6, parse_plane_graph, read_complex,
                     standard_complex)

from conftest import plane_fixtures
from paper import checked_complex, graph, prism_graph

CASES = 2000  # mutants per parser


def mutate(text: str, rng: random.Random) -> str:
    data = bytearray(text.encode())
    for _ in range(rng.randint(1, 3)):
        op, pos = rng.randrange(3), rng.randrange(len(data) + 1)
        if op == 0 and data:
            data[pos % len(data)] ^= 1 << rng.randrange(8)
        elif op == 1 and data:
            del data[pos % len(data)]
        elif data and rng.random() < 0.5:  # a copy of a byte already there
            data.insert(pos, rng.choice(data))
        else:
            data.insert(pos, rng.randrange(256))
    return data.decode("latin-1")


def mutants(seeds: list[str], rng: random.Random):
    for _ in range(CASES):
        yield mutate(rng.choice(seeds), rng)


def fuzz(parse, seeds: list[str], seed: int) -> list:
    """The results of the mutants that parse; fails on any other escape."""
    parsed = rejected = 0
    results = []
    for text in mutants(seeds, random.Random(seed)):
        try:
            results.append(parse(text))
            parsed += 1
        except UberhomError as exc:
            assert not isinstance(exc, EngineError), text
            rejected += 1
        except Exception as exc:
            raise AssertionError(f"{type(exc).__name__} escaped on {text!r}") from exc
    assert parsed and rejected, (parsed, rejected)  # both sides exercised
    return results


def test_read_complex_mutants():
    seeds = [format_complex(standard_complex(*spec)) for spec in
             [("simplex", 2), ("boundary", 3), ("cycle", 5), ("torus_min",), ("rp2_min",)]]
    seeds.append("3\n# comment line\n0 1 2  # trailing comment\n")
    for X in fuzz(read_complex, seeds, seed=1):
        assert checked_complex(X.vertex_count, X.simplices) == X


def test_parse_graph6_mutants():
    seeds = [encode_graph6(G) for G in
             [graph("complete", 4), graph("cycle", 10), prism_graph(5), graph("path", 3)]]
    seeds.append(">>graph6<<C~\n")
    for G in fuzz(parse_graph6, seeds, seed=2):
        assert parse_graph6(encode_graph6(G)) == G


def test_parse_plane_graph_mutants():
    planes = plane_fixtures()
    seeds = [format_plane_graph(planes[name]) for name in
             ["triangle", "path2", "diamond", "prism", "cube", "wheel5"]]
    seeds.append("# a triangle\nv 0: 1 2\nv 1: 2 0  # comment\nv 2: 0 1\n")
    for P in fuzz(parse_plane_graph, seeds, seed=3):
        assert parse_plane_graph(format_plane_graph(P)) == P


CLI_RUNS = 420  # 30 per command
SMALL = 6  # the most vertices of a complex or graph, or edges of a plane graph


def _size(kind: str, data: bytes) -> int:
    """What SMALL bounds, for an input file the CLI would parse; 0 when no
    part of it parses."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return 0
    if kind == "complex":
        parts = [(read_complex, text)]
    elif kind == "plane":
        parts = [(lambda t: parse_plane_graph(t).graph, text)]
    else:
        parts = [(parse_graph6, ln) for ln in map(str.strip, text.splitlines())
                 if ln and not ln.startswith("#")]
    size = 0
    for parse, part in parts:
        try:
            found = parse(part)
        except UberhomError:
            continue
        size = max(size, found.edge_count if kind == "plane" else found.vertex_count)
    return size


def _cli_seeds() -> dict[str, list[str]]:
    """Valid inputs of each kind a command reads (`Command.reads`)."""
    planes = plane_fixtures()
    graph6 = ([encode_graph6(G) + "\n" for G in
               [graph("complete", 4), graph("cycle", 6), graph("path", 3)]]
              + [">>graph6<<C~\n", "C~\nC`\nCr\n# corpus\nCF\n"])
    return {
        "complex": [format_complex(standard_complex(*spec)) for spec in
                    [("simplex", 2), ("boundary", 3), ("cycle", 5), ("cycle", 6)]]
        + ["3\n# comment line\n0 1 2  # trailing comment\n", "2\n0\n1\n"],
        "graph": graph6, "corpus": graph6,
        "plane": [format_plane_graph(planes[name]) for name in
                  ["triangle", "square", "path2", "star3", "diamond"]],
    }


def _draw_argv(name: str, command, path: str, n: int, rng: random.Random) -> list[str]:
    """argv for one command on an input of n vertices: each option mostly
    valid, sometimes invalid, sometimes left out, and now and then a stray
    argument."""
    valid = {
        "--colouring": ["all", "".join(rng.choice("01") for _ in range(n)),
                        f"elementary:{rng.randrange(max(n, 1))}", f"level:{rng.randint(0, n)}"],
        "--level": [str(rng.randint(-1, n + 1))],
        "--cap": [str(rng.randint(0, SMALL)), "20"],
        "--jobs": ["1", "2"],
    }
    invalid = {
        "--colouring": ["", "01a", "level:x", "elementary:", f"level:{n + 1}",
                        "elementary:-1", "1" * (n + 1)],
        "--level": ["x"],
        "--cap": ["-1", "x"],
        "--jobs": ["0", "-1", "x"],
    }
    argv = [name]
    for option in command.options:
        if option == "which":
            argv.append(rng.choice(["h0", "h1_0", "h1_1", "h2", "h3"]))
        elif option == "--generators":
            if rng.random() < 0.3:
                argv.append(option)
        elif rng.random() < 0.9:
            argv += [option, rng.choice(valid[option] if rng.random() < 0.85
                                        else invalid[option])]
    argv.append(path)
    argv += ["--format", rng.choice(["json", "table", "csv"])]
    if rng.random() < 0.03:
        argv.insert(rng.randrange(1, len(argv) + 1), rng.choice(["--bogus", "extra", "-"]))
    return argv


def test_cli_mutants(tmp_path, capsys, monkeypatch):
    rng = random.Random(4)
    seeds = _cli_seeds()
    names = sorted(cli.COMMANDS)
    path = tmp_path / "input"
    codes = {name: set() for name in names}
    for run in range(CLI_RUNS):
        name = names[run % len(names)]
        kind = cli.COMMANDS[name].reads
        while True:
            text = rng.choice(seeds[kind])
            data = (mutate(text, rng) if rng.random() < 0.6 else text).encode("latin-1")
            if (size := _size(kind, data)) <= SMALL:
                break
        path.write_bytes(data)
        cap = rng.choice([None, "0", "3", "-1", "abc", "20"])
        if cap is None:
            monkeypatch.delenv("UBERHOM_CAP", raising=False)
        else:
            monkeypatch.setenv("UBERHOM_CAP", cap)
        argv = _draw_argv(name, cli.COMMANDS[name], str(path), size, rng)
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
        except Exception as exc:
            raise AssertionError(f"{type(exc).__name__} escaped: {argv} {data!r}") from exc
        out, err = capsys.readouterr()
        assert code in (0, 2, 3, 4), (code, argv, data, err)
        assert "Traceback" not in err, (argv, data, err)
        assert (code == 0) == bool(out), (code, argv, data, err)
        if code == 0 and argv[argv.index("--format") + 1] == "json":
            report = json.loads(out)
            assert report["input_sha256"] == hashlib.sha256(data).hexdigest(), argv
            assert report["command"] == name, argv
        codes[name].add(code)
    # every command both succeeds and fails
    assert all(0 in got and len(got) > 1 for got in codes.values()), codes
