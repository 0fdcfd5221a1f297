"""Fixed-seed mutation fuzz of the three input parsers.

Each parser reads byte-level mutants of valid inputs: one to three bit
flips, deleted bytes or inserted bytes each.  A mutant must either parse or
raise an `UberhomError` that is not an `EngineError`; anything else escaping
is a parser bug.  Whatever parses must be a valid object of its kind.
"""

import random

from uberhom import (EngineError, UberhomError, encode_graph6, format_complex,
                     format_plane_graph, parse_graph6, parse_plane_graph, read_complex,
                     standard_complex)

from conftest import plane_fixtures
from paper import checked_complex, graph, prism_graph

CASES = 2000  # mutants per parser


def mutants(seeds: list[str], rng: random.Random):
    for _ in range(CASES):
        data = bytearray(rng.choice(seeds).encode())
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
        yield data.decode("latin-1")


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
