"""The library's value classes: built by position or keyword alike, equal
values hash equal, assignment raises AttributeError, pickling round-trips,
and each constructor check raises its own error."""

import pickle

import pytest

from uberhom import (BlockHomology, Colouring, ComplexError, EngineError, InvalidColouring,
                     PlaneGraph, SimpleGraph, SimplicialComplex, parse_plane_graph,
                     tait_graph, theta)
from uberhom.f2 import BitMatrix, homology_at
from uberhom.graphs import ThetaLevel
from uberhom.morse import MorseReport
from uberhom.planar import TaitGraph

PATH3 = SimpleGraph(3, ((0, 1), (1, 2)))
TRIANGLE = parse_plane_graph("v 0: 1 2\nv 1: 2 0\nv 2: 0 1\n")
HOM = homology_at([1], [], 1)

# (class, keyword arguments in constructor order) of one valid value each
VALUES = [
    (Colouring, {"bits": 5, "length": 3}),
    (BlockHomology, {"basis": (1, 2), "hom": HOM}),
    (SimplicialComplex, {"vertex_count": 2, "simplices": frozenset({1, 2, 3})}),
    (BitMatrix, {"rows": 2, "cols": 2, "columns": (1, 3)}),
    (SimpleGraph, {"vertex_count": 3, "edges": ((0, 1), (1, 2))}),
    (ThetaLevel, {"j": 1, "signature_counts": theta(PATH3, 1).signature_counts}),
    (MorseReport, {"is_matching": True, "is_acyclic": True, "critical_cells": (1, 6)}),
    (PlaneGraph, {"graph": TRIANGLE.graph, "rotations": TRIANGLE.rotations}),
    (TaitGraph, {"plane": TRIANGLE, "crossings": tait_graph(TRIANGLE).crossings}),
]


@pytest.mark.parametrize("cls, kwargs", VALUES, ids=[cls.__name__ for cls, _ in VALUES])
def test_value_contract(cls, kwargs):
    value = cls(**kwargs)
    positional = cls(*kwargs.values())
    assert value == positional and hash(value) == hash(positional)
    assert value != object() and repr(value).startswith(f"{cls.__name__}(")
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is kwargs[name]
    assert pickle.loads(pickle.dumps(value)) == value


def test_value_checks_keep_their_errors():
    path2 = SimpleGraph(2, ((0, 1),))
    K4 = SimpleGraph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    checks = [
        (lambda: Colouring(0, 0), InvalidColouring, "positive length"),
        (lambda: Colouring(4, 2), InvalidColouring, "exceed the stated length"),
        (lambda: Colouring(-1, 2), InvalidColouring, "exceed the stated length"),
        (lambda: BitMatrix(2, 2, (1,)), EngineError, "column count does not match"),
        (lambda: BitMatrix(1, 1, (2,)), EngineError, "bits beyond the row count"),
        (lambda: SimpleGraph(0, ()), ComplexError, "vertex count 0 out of range"),
        (lambda: SimpleGraph(2, ((1, 1),)), ComplexError, "loop at vertex 1"),
        (lambda: SimpleGraph(2, ((1, 0),)), ComplexError, "out of range or not normalized"),
        (lambda: SimpleGraph(2, ((0, 1), (0, 1))), ComplexError, "duplicate edge"),
        (lambda: SimpleGraph(3, ((1, 2), (0, 1))), ComplexError, "sorted order"),
        (lambda: PlaneGraph(SimpleGraph(2, ()), ((), ())), ComplexError, "must be connected"),
        (lambda: PlaneGraph(path2, ((1,),)), ComplexError, "one rotation per vertex"),
        (lambda: PlaneGraph(path2, ((1, 1), (0,))), ComplexError, "repeats a neighbour"),
        (lambda: PlaneGraph(PATH3, ((1,), (0,), (1,))), ComplexError,
         "does not match its neighbours"),
        (lambda: PlaneGraph(K4, ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))),
         ComplexError, "Euler check failed"),
    ]
    for build, error, message in checks:
        with pytest.raises(error, match=message):
            build()


def test_theta_level_equality_ignores_signature_counts():
    """Two groupings of one pooled multiset are one Theta level."""
    split = ThetaLevel(1, ((((1, 0, 1),), 1), (((0, 0, 1),), 1)))
    joined = ThetaLevel(1, ((((1, 0, 1), (0, 0, 1)), 1),))
    assert split == joined and hash(split) == hash(joined)
    assert split.entries == joined.entries == ((1, 1, 0, 1), (1, 0, 0, 1))
    assert split != ThetaLevel(2, split.signature_counts)
    assert split != ThetaLevel(1, ((((1, 0, 1),), 2),))


def test_block_homology_compares_by_value():
    """Blocks built apart from equal data are equal, with equal hashes; other
    representatives or boundary rows make another block."""
    first, second = (BlockHomology((1, 2, 4), homology_at([3, 4], [7], 3)) for _ in range(2))
    assert first.hom is not second.hom
    assert first == second and hash(first) == hash(second)
    assert first != BlockHomology((1, 2, 4), homology_at([3, 4], [], 3))
    other = BlockHomology((1, 2, 4), homology_at([3, 4], [3], 3))
    assert other.hom.representatives == first.hom.representatives and other != first
