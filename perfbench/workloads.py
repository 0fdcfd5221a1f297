"""Seeded benchmark inputs, built through uberhom's public library.

A workload is a list of `uberhom` CLI jobs plus the trivial "setup" jobs
that run the same commands on inputs too small to do real work.  The seed
picks one of VARIANTS input variants (seed mod VARIANTS); each variant is a
seeded relabelling of the complexes and plane graphs and a seeded draw of
graphs, so the same seed always gives the same files.  The reference
digests in reference.json are recorded for every variant.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

from uberhom import (PlaneGraph, SimpleGraph, encode_graph6, format_complex,
                     format_plane_graph, standard_complex)

VARIANTS = 16
NAMES = ("cube_rank", "cube_blocks", "graph_sweep", "overlay")
CORPUS_SIZE = 300
CORPUS_ORDER = 7
GRAPH_HOM_EDGES = (12, 14)  # one connected 10-vertex graph per edge count
GRAPH_HOM_ORDER = 10
GRAPH_HOM_KINDS = ("h0", "h1_0", "h1_1", "h2")
SETUP_GRAPH_HOM_KINDS = ("h2",)  # the kinds share start-up, parsing and rendering


@dataclass(frozen=True)
class Job:
    """One CLI invocation; name keys the reference digest."""

    name: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    variant: int
    jobs: tuple[Job, ...]
    setup_jobs: tuple[Job, ...]
    inputs: dict  # input name -> library object the job reads


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _permutation(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _plane_from_coordinates(n: int, edges, coords) -> PlaneGraph:
    """Straight-line drawing -> rotation system (neighbours counter-clockwise)."""
    G = SimpleGraph.from_edges(n, edges)
    rotations = []
    for v in range(n):
        x0, y0 = coords[v]
        rotations.append(tuple(sorted(
            G.neighbours(v),
            key=lambda u: math.atan2(coords[u][1] - y0, coords[u][0] - x0))))
    return PlaneGraph(G, tuple(rotations))


def _relabel_plane(P: PlaneGraph, rng: random.Random) -> PlaneGraph:
    """Same embedding under a seeded vertex relabelling; each rotation also
    starts at a seeded neighbour (a cyclic order has no first element)."""
    n = P.graph.vertex_count
    perm = _permutation(rng, n)
    rotations = [()] * n
    for v, rot in enumerate(P.rotations):
        shift = rng.randrange(len(rot))
        rotations[perm[v]] = tuple(perm[u] for u in rot[shift:] + rot[:shift])
    return PlaneGraph(P.graph.permuted(perm), tuple(rotations))


def triangle_plane() -> PlaneGraph:
    return _plane_from_coordinates(3, [(0, 1), (0, 2), (1, 2)],
                                   [(0, 2), (-2, -1), (2, -1)])


def prism_plane() -> PlaneGraph:
    return _plane_from_coordinates(
        6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)],
        [(0, 4), (-4, -3), (4, -3), (0, 2), (-2, -1.5), (2, -1.5)])


def wheel_plane(k: int) -> PlaneGraph:
    rim = [(math.cos(2 * math.pi * t / k), math.sin(2 * math.pi * t / k))
           for t in range(k)]
    edges = [(0, v) for v in range(1, k + 1)]
    edges += [(1 + t, 1 + (t + 1) % k) for t in range(k)]
    return _plane_from_coordinates(k + 1, edges, [(0.0, 0.0)] + rim)


def connected_graph(rng: random.Random, n: int, edge_count: int) -> SimpleGraph:
    """Seeded connected graph: a random recursive tree plus random chords."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    missing = [(u, v) for v in range(n) for u in range(v) if (u, v) not in edges]
    edges.update(rng.sample(missing, edge_count - len(edges)))
    return SimpleGraph.from_edges(n, edges).permuted(_permutation(rng, n))


def atlas_connected(order: int) -> list[SimpleGraph]:
    """Connected graphs of the given order from networkx's graph atlas, in
    atlas order."""
    import networkx as nx
    return [SimpleGraph.from_edges(order, g.edges())
            for g in nx.graph_atlas_g()
            if g.number_of_nodes() == order and nx.is_connected(g)]


def _complex_inputs(rng: random.Random, named) -> dict:
    out = {}
    for name, X in named:
        out[name] = X.permuted(_permutation(rng, X.vertex_count))
    return out


def _inputs(name: str, rng: random.Random) -> dict:
    if name == "cube_rank":
        return _complex_inputs(rng, [("cycle11", standard_complex("cycle", 11)),
                                     ("cycle12", standard_complex("cycle", 12))])
    if name == "cube_blocks":
        torus = standard_complex("torus_min")
        return _complex_inputs(rng, [
            ("boundary8", standard_complex("boundary", 8)),
            ("susp_torus", torus.suspension()),
            ("susp_rp2", standard_complex("rp2_min").suspension()),
            ("torus", torus)])
    if name == "graph_sweep":
        corpus = rng.sample(atlas_connected(CORPUS_ORDER), CORPUS_SIZE)
        out = {"corpus": corpus}
        for e in GRAPH_HOM_EDGES:
            out[f"g10e{e}"] = connected_graph(rng, GRAPH_HOM_ORDER, e)
        return out
    if name == "overlay":
        return {"prism": _relabel_plane(prism_plane(), rng),
                "wheel4": _relabel_plane(wheel_plane(4), rng)}
    raise KeyError(f"unknown workload {name!r}")


def _setup_inputs(name: str) -> dict:
    if name in ("cube_rank", "cube_blocks"):
        return {"simplex2": standard_complex("simplex", 2)}
    if name == "graph_sweep":
        return {"pair": [SimpleGraph.from_edges(3, [(0, 1), (1, 2)]),
                         SimpleGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])],
                "edge": SimpleGraph.from_edges(2, [(0, 1)])}
    return {"triangle": triangle_plane()}


def _text(obj) -> tuple[str, str]:
    """(file suffix, file text) for one input object."""
    if isinstance(obj, list):
        return ".g6", "".join(encode_graph6(G) + "\n" for G in obj)
    if isinstance(obj, SimpleGraph):
        return ".g6", encode_graph6(obj) + "\n"
    if isinstance(obj, PlaneGraph):
        return ".plane", format_plane_graph(obj)
    return ".complex", format_complex(obj)


def _jobs(name: str, paths: dict) -> list[Job]:
    if name in ("cube_rank", "cube_blocks"):
        return [Job(f"uber:{key}", ("uber", path)) for key, path in paths.items()]
    if name == "graph_sweep":
        jobs = []
        for key, path in paths.items():
            if key in ("corpus", "pair"):
                jobs.append(Job(f"dissim:{key}", ("dissim", path, "--jobs", "1")))
            else:
                kinds = SETUP_GRAPH_HOM_KINDS if key == "edge" else GRAPH_HOM_KINDS
                jobs += [Job(f"graph-hom:{kind}:{key}", ("graph-hom", kind, path))
                         for kind in kinds]
        return jobs
    return [Job(f"{cmd}:{key}", (cmd, path))
            for key, path in paths.items() for cmd in ("verify-thm42", "tait")]


def _write(objs: dict, directory: Path, root: Path) -> dict:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for key, obj in objs.items():
        suffix, text = _text(obj)
        path = directory / (key + suffix)
        path.write_text(text)
        paths[key] = str(path.relative_to(root))
    return paths


def build(name: str, seed: int, root: Path, out_dir: Path) -> Workload:
    """Write the workload's input files under out_dir and return its jobs.

    Job argv paths are relative to root, the directory jobs run in.
    """
    variant = variant_of(seed)
    inputs = _inputs(name, random.Random(f"{name}:{variant}"))
    setup = _setup_inputs(name)
    directory = out_dir / f"{name}-v{variant}"
    paths = _write(inputs, directory, root)
    setup_paths = _write(setup, directory / "setup", root)
    return Workload(name, variant, tuple(_jobs(name, paths)),
                    tuple(_jobs(name, setup_paths)), inputs)
