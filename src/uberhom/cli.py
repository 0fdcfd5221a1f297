"""Command-line front end.

Every command reads one input file, computes with the library, and prints a
deterministic report.  JSON is the default format (sorted, zero-padded keys,
so identical inputs give byte-identical output at any --jobs width); `table`
prints aligned key/value rows and `csv` flat rows.  The `dissim` command
defaults to the pairwise CSV corpus format.

Each subcommand is declared once, in the COMMANDS table: its handler (which
takes the parsed input and returns a JSON-ready dict), what it reads (a
complex, a graph, a graph6 corpus or a plane graph), help text, options and
default format.  Both the argument parser and `main` read that table: `main`
reads and parses the input, runs the handler, stamps the report with the
input's SHA-256 and the command name, and renders it.

Exit codes: 0 success; 2 malformed input or colouring; 3 colouring length
mismatch; 4 resource cap exceeded; 5 an engine invariant failed (a bug).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
from collections import Counter
from collections.abc import Callable
from functools import cache
from itertools import combinations
from math import comb
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from .coloured import (Colouring, diagonal_homology, dual_grading, filtered_homology,
                       graded_euler, horizontal_homology, horizontal_homology_with_bases)
from .complexes import (SimplicialComplex, _format_facets, dim_of, read_complex,
                        vertices_of)
from .errors import CapExceeded, ParseError, UberhomError
from .graphs import (Dissimilarity, SimpleGraph, first_differing_level, h0_graph, h1_0,
                     h1_1, h2_graph, matching_complex, parse_graph6, theta,
                     theta_classes)
from .morse import elementary_decomposition, verify_morse
from .planar import (PlaneGraph, overlay_ranks, parse_plane_graph, tait_colouring,
                     tait_graph, theorem42_verify)
from .uber import level_masks, uber_degree0_fast, uber_homology


def _bikey(i: int, k: int) -> str:
    return f"({i:02d},{k:02d})"


def _trikey(j: int, i: int, k: int) -> str:
    return f"({j:02d},{i:02d},{k:02d})"


def _dimkey(d: int) -> str:
    return f"{d:02d}"


def _bigraded(ranks: dict) -> dict[str, int]:
    return {_bikey(i, k): r for (i, k), r in sorted(ranks.items())}


def _graded(ranks: dict) -> dict[str, int]:
    return {_dimkey(d): r for d, r in sorted(ranks.items())}


def _load(path: str) -> tuple[str, str]:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    digest = hashlib.sha256(raw).hexdigest()
    try:
        return raw.decode("utf-8"), digest
    except UnicodeDecodeError:
        raise ParseError(f"{path} is not UTF-8 text") from None


def _read(reads: str, path: str) -> tuple[object, str]:
    """The parsed input of a command that reads `reads`, and its SHA-256.

    A graph is the first graph6 line of its file and a corpus is every
    line, each as (line, graph); blanks and # comments are skipped, and a
    file without a graph6 line is a ParseError that names what was expected.
    """
    text, digest = _load(path)
    if reads == "complex":
        return read_complex(text), digest
    if reads == "plane":
        return parse_plane_graph(text), digest
    lines = [ln for ln in map(str.strip, text.splitlines())
             if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError(f"{path} contains no {'graphs' if reads == 'corpus' else 'graph'}")
    if reads == "graph":
        return parse_graph6(lines[0]), digest
    return [(ln, parse_graph6(ln)) for ln in lines], digest


MAX_SWEEP = 1 << 16  # colourings in one --colouring sweep


def _resolve_colourings(spec: str, m: int, single: str | None) -> list[int]:
    """The masks of the colourings a --colouring spec names, counted before
    any is built.  A spec naming more than one raises ParseError(single)
    when single is given, and a sweep above MAX_SWEEP raises CapExceeded."""
    kind, colon, number = spec.partition(":")
    if spec == "all":
        count, size = 1 << m, f"2^{m}"
    elif colon and kind in ("elementary", "level"):
        try:
            j = int(number)
        except ValueError:
            raise ParseError(f"bad colouring spec {spec!r}") from None
        if kind == "elementary":
            return [Colouring.elementary(m, j).bits]
        if not 0 <= j <= m:
            raise ParseError(f"level {j} outside 0..{m}")
        count, size = comb(m, j), f"C({m}, {j})"
    else:
        eps = Colouring.from_string(spec)
        eps.check_length(m)
        return [eps.bits]
    if single and count > 1:
        raise ParseError(single)
    if count > MAX_SWEEP:
        raise CapExceeded(f"refusing to enumerate {size} = {count} colourings; "
                          f"{MAX_SWEEP} is the limit for --colouring {kind}")
    return list(range(count)) if kind == "all" else level_masks(m, j)


def _single_colouring(spec: str, m: int) -> Colouring:
    masks = _resolve_colourings(spec, m, "this command needs a single explicit colouring")
    return Colouring(masks[0], m)


def _generator_payload(blocks) -> dict[str, list]:
    """Representative cycles per bigrading as lists of simplex vertex tuples."""
    return {_bikey(i, k): [[vertices_of(block.basis[p]) for p in vertices_of(rep)]
                           for rep in block.hom.representatives]
            for (i, k), block in sorted(blocks.items()) if block.hom.rank}


# --- per-command handlers (each returns a JSON-ready dict) ---


def _homology_worker(args):
    X, bits, m, diagonal = args
    eps = Colouring(bits, m)
    ranks = diagonal_homology(X, eps) if diagonal else horizontal_homology(X, eps)
    return str(eps), _bigraded(ranks)


def _run_bigraded(X: SimplicialComplex, args) -> dict:
    diagonal = args.command == "diagonal"
    m = X.vertex_count
    masks = _resolve_colourings(args.colouring, m, "--generators needs a single colouring"
                                if args.generators else None)
    report = {"vertex_count": m, "vertex_order": list(range(m))}
    if len(masks) == 1:
        eps = Colouring(masks[0], m)
        report["colouring"], report["ranks"] = _homology_worker((X, eps.bits, m, diagonal))
        if args.generators:
            blocks = horizontal_homology_with_bases(
                X, eps.complement() if diagonal else eps)
            if diagonal:
                blocks = dual_grading(blocks)
            report["generators"] = _generator_payload(blocks)
    else:
        work = [(X, bits, m, diagonal) for bits in masks]
        workers = min(args.jobs, os.cpu_count() or 1, len(work))
        if workers <= 1:
            results = list(map(_homology_worker, work))
        else:
            from concurrent.futures import ProcessPoolExecutor  # here, so only a pool pays for it
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_homology_worker, work, chunksize=64))
        report["colourings"] = {name: ranks for name, ranks in sorted(results)}
    return report


def cmd_filtered(X: SimplicialComplex, args) -> dict:
    eps = _single_colouring(args.colouring, X.vertex_count)
    if args.level is None:
        raise ParseError("filtered needs --level")
    ranks = filtered_homology(X, eps, args.level)
    return {"vertex_count": X.vertex_count, "vertex_order": list(range(X.vertex_count)),
            "colouring": str(eps), "level": args.level, "ranks": _graded(ranks)}


def cmd_euler(X: SimplicialComplex, args) -> dict:
    eps = _single_colouring(args.colouring, X.vertex_count)
    coefficients = graded_euler(X, eps)
    return {"vertex_count": X.vertex_count, "colouring": str(eps),
            "coefficients": {_dimkey(k): c for k, c in coefficients.items()},
            "chi_at_1": sum(coefficients.values()), "chi_at_0": coefficients.get(0, 0)}


def cmd_morse(X: SimplicialComplex, args) -> dict:
    eps = _single_colouring(args.colouring, X.vertex_count)
    rep = verify_morse(X, eps)
    # the pairs form a matching exactly when eps is zero or dalmatian
    dalmatian = eps.bits != 0 and rep.is_matching
    report = {"vertex_count": X.vertex_count, "colouring": str(eps),
              "is_matching": rep.is_matching, "is_acyclic": rep.is_acyclic,
              "is_morse_matching": rep.is_morse_matching,
              "is_dalmatian": dalmatian,
              "critical_cells": [vertices_of(s) for s in rep.critical_cells],
              "critical_by_dim": _graded(rep.critical_by_dim())}
    if dalmatian:
        # the closed form: black vertices at (0, 0), white d-cells at (d, d + 1)
        report["closed_form_ranks"] = _bigraded(Counter(
            (dim_of(s), (s & ~eps.bits).bit_count()) for s in rep.critical_cells))
    return report


def cmd_decompose(X: SimplicialComplex, args) -> dict:
    eps = _single_colouring(args.colouring, X.vertex_count)
    parts = elementary_decomposition(X, eps)
    payload = {_dimkey(v): [(vertices_of(a), vertices_of(b)) for a, b in sorted(edges)]
               for v, edges in sorted(parts.items())}
    return {"vertex_count": X.vertex_count, "colouring": str(eps),
            "by_dropped_vertex": payload}


def cmd_uber(X: SimplicialComplex, args) -> dict:
    ranks = uber_homology(X, cap=args.cap)
    return {"vertex_count": X.vertex_count, "vertex_order": list(range(X.vertex_count)),
            "ranks": {_trikey(*key): r for key, r in sorted(ranks.items())}}


def cmd_uber0(X: SimplicialComplex, args) -> dict:
    ranks = uber_degree0_fast(X)
    return {"vertex_count": X.vertex_count, "ranks": _bigraded(ranks)}


def cmd_theta(G: SimpleGraph, args) -> dict:
    if args.level is None:
        raise ParseError("theta needs --level")
    level = theta(G, args.level)
    return {"vertex_count": G.vertex_count, "level": args.level,
            "entries": level.entries, "aggregated": level.aggregated,
            "signatures": [{"signature": sig, "count": c}
                           for sig, c in level.signature_counts]}


DISSIM_FIELDS = ("name1", "name2", "delta_num", "delta_den", "first_differing_level")


def _dissim_fields(m: int | None, j: int | None) -> tuple[str, str, str]:
    if m is None:  # the vertex counts differ
        return ("inf", "", "")
    d = Dissimilarity.at_level(m, j)
    return (str(d.value.numerator), str(d.value.denominator),
            "theta-equivalent" if j is None else str(j))


def cmd_dissim(corpus: list[tuple[str, SimpleGraph]], args) -> dict:
    names, graphs = zip(*corpus)
    classes = theta_classes(graphs)
    fields = cache(_dissim_fields)  # a handful of distinct (m, j) per corpus
    pairs = []
    for a, b in combinations(range(len(graphs)), 2):
        m = graphs[a].vertex_count
        key = ((m, first_differing_level(classes[a], classes[b]))
               if m == graphs[b].vertex_count else (None, None))
        pairs.append(dict(zip(DISSIM_FIELDS, (names[a], names[b], *fields(*key)))))
    return {"graph_count": len(names), "pairs": pairs}


def cmd_graph_hom(G: SimpleGraph, args) -> dict:
    compute = {"h0": h0_graph, "h1_0": h1_0, "h1_1": h1_1, "h2": h2_graph}[args.which]
    ranks = compute(G)
    return {"vertex_count": G.vertex_count, "homology": args.which, "ranks": _graded(ranks)}


def cmd_matching_complex(G: SimpleGraph, args) -> dict:
    M = matching_complex(G)
    facets = M.facets()
    return {"edge_count": G.edge_count, "vertex_count": M.vertex_count,
            "facets": [vertices_of(f) for f in sorted(facets)],
            "text": _format_facets(M.vertex_count, facets)}


def cmd_tait(P: PlaneGraph, args) -> dict:
    T = tait_graph(P)
    ranks = overlay_ranks(T)
    nv, nf, ne = T.partition_sizes
    return {"partition": {"primal": nv, "faces": nf, "crossings": ne},
            "overlay_vertex_count": 4 * ne,
            "colouring": str(tait_colouring(T)),
            "ranks": _bigraded(ranks)}


def cmd_verify_thm42(P: PlaneGraph, args) -> dict:
    result = theorem42_verify(P)
    nv, nf, ne = result["partition"]
    levels = {}
    for k, entry in sorted(result["levels"].items()):
        levels[_dimkey(k)] = {"lhs": _graded(entry["lhs"]),
                              "rhs": _graded(entry["rhs"]),
                              "equal": entry["equal"]}
    return {"partition": {"primal": nv, "faces": nf, "crossings": ne},
            "levels": levels, "all_equal": result["all_equal"],
            "level0_matches_subdivision": result["level0_matches_subdivision"]}


# --- output rendering ---


def _flatten(prefix: str, obj, rows: list):
    if isinstance(obj, dict):
        for key in obj:
            sub = f"{prefix}.{key}" if prefix else str(key)
            _flatten(sub, obj[key], rows)
    elif isinstance(obj, (list, tuple)):
        rows.append((prefix, json.dumps(obj)))
    else:
        rows.append((prefix, obj))


def _render(report: dict, fmt: str, command: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    if command == "dissim" and fmt == "csv":
        header, rows = DISSIM_FIELDS, map(itemgetter(*DISSIM_FIELDS), report["pairs"])
    else:
        rows = []
        _flatten("", dict(sorted(report.items())), rows)
        if fmt == "table":
            width = max((len(k) for k, _ in rows), default=0)
            return "".join(f"{k.ljust(width)}  {v}\n" for k, v in rows)
        header = ("key", "value")
    import csv  # here, so only a csv report pays for it
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# --- the command table ---


class Command(NamedTuple):
    handler: Callable[[object, argparse.Namespace], dict]  # (parsed input, args)
    reads: str  # what _read parses: "complex", "graph", "corpus" or "plane"
    help: str
    options: tuple[str, ...] = ()  # keys of ARGUMENTS beyond input and --format
    default_format: str = "json"


# add_argument keywords of every argument a command may take, in the order
# a command's parser adds them; every command takes input and --format
ARGUMENTS = {
    "which": {"choices": ("h0", "h1_0", "h1_1", "h2")},
    "input": {"help": "input file"},
    "--colouring": {"required": True,
                    "help": "0/1 string, 'all', 'elementary:i', or 'level:j'"},
    "--level": {"type": int},
    "--cap": {"type": int, "help": "vertex cap for cube-sized computations"},
    "--jobs": {"type": int, "default": 1},
    "--generators": {"action": "store_true"},
}

COMMANDS = {
    "horizontal": Command(_run_bigraded, "complex",
                          "bigraded ranks of the black-dropping differential",
                          ("--colouring", "--jobs", "--generators")),
    "diagonal": Command(_run_bigraded, "complex",
                        "bigraded ranks of the white-dropping differential",
                        ("--colouring", "--jobs", "--generators")),
    "filtered": Command(cmd_filtered, "complex", "homology of the weight-bounded subcomplex",
                        ("--colouring", "--level")),
    "euler": Command(cmd_euler, "complex", "graded Euler polynomial of a colouring",
                     ("--colouring",)),
    "morse": Command(cmd_morse, "complex", "matching/acyclicity report and closed form",
                     ("--colouring",)),
    "decompose": Command(cmd_decompose, "complex",
                         "partition the pairing graph by dropped vertex", ("--colouring",)),
    "uber": Command(cmd_uber, "complex", "full trigraded colour-cube ranks", ("--cap",)),
    "uber0": Command(cmd_uber0, "complex",
                     "degree-0 column via the star-intersection fast path"),
    "theta": Command(cmd_theta, "graph", "level-j colouring invariant of a graph",
                     ("--level",)),
    "dissim": Command(cmd_dissim, "corpus", "pairwise dissimilarity CSV for a graph6 corpus",
                      ("--jobs",), "csv"),
    "graph-hom": Command(cmd_graph_hom, "graph", "graph homologies (h0 from black "
                         "components, the rest in closed form)", ("which",)),
    "matching-complex": Command(cmd_matching_complex, "graph",
                                "matching complex of a graph6 graph"),
    "tait": Command(cmd_tait, "plane", "coloured overlay matching complex of a plane graph"),
    "verify-thm42": Command(cmd_verify_thm42, "plane",
                            "check the overlay decomposition level by level"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uberhom",
        description="Homology of colour-filtered simplicial complexes")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for arg, keywords in ARGUMENTS.items():
            if arg == "input" or arg in command.options:
                p.add_argument(arg, **keywords)
        p.add_argument("--format", choices=("json", "table", "csv"),
                       default=command.default_format)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        parser.error("--jobs must be at least 1")
    command = COMMANDS[args.command]
    try:
        parsed, digest = _read(command.reads, args.input)
        report = command.handler(parsed, args)
        report.update(input_sha256=digest, command=args.command)
        sys.stdout.write(_render(report, args.format, args.command))
    except UberhomError as exc:
        print(f"uberhom: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
