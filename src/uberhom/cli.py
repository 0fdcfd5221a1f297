"""Command-line front end.

Every command reads one input file, computes with the library, and prints a
deterministic report.  JSON is the default format (sorted, zero-padded keys,
so identical inputs give byte-identical output at any --jobs width); `table`
prints aligned key/value rows and `csv` flat rows.  The `dissim` command
defaults to the pairwise CSV corpus format.

Exit codes: 0 success; 2 malformed input or colouring; 3 colouring length
mismatch; 4 resource cap exceeded; 5 an engine invariant failed (a bug).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
from itertools import combinations
from math import comb
from pathlib import Path

from .coloured import (Colouring, diagonal_homology, dual_grading, filtered_homology,
                       graded_euler, horizontal_homology, horizontal_homology_with_bases)
from .complexes import SimplicialComplex, format_complex, read_complex, vertices_of
from .errors import CapExceeded, ParseError, UberhomError
from .graphs import (Dissimilarity, SimpleGraph, first_differing_level, h0_graph, h1_0,
                     h1_1, h2_graph, matching_complex, parse_graph6, theta,
                     theta_classes)
from .morse import (dalmatian_closed_form, elementary_decomposition, is_dalmatian,
                    verify_morse)
from .planar import (overlay_ranks, parse_plane_graph, tait_colouring, tait_graph,
                     theorem42_verify)
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


def _read_bytes(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _load(path: str) -> tuple[str, str]:
    raw = _read_bytes(path)
    digest = hashlib.sha256(raw).hexdigest()
    try:
        return raw.decode("utf-8"), digest
    except UnicodeDecodeError:
        raise ParseError(f"{path} is not UTF-8 text") from None


def _load_complex(path: str) -> tuple[SimplicialComplex, str]:
    text, digest = _load(path)
    return read_complex(text), digest


def _first_payload_line(text: str, path: str) -> str:
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            return line
    raise ParseError(f"{path} contains no graph")


def _load_graph(path: str) -> tuple[SimpleGraph, str]:
    text, digest = _load(path)
    return parse_graph6(_first_payload_line(text, path)), digest


def _load_corpus(path: str) -> tuple[list[str], str]:
    text, digest = _load(path)
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError(f"{path} contains no graphs")
    return lines, digest


MAX_SWEEP = 1 << 16  # colourings in one --colouring sweep


def _resolve_colourings(spec: str, m: int) -> list[Colouring]:
    if spec == "all":
        if 1 << m > MAX_SWEEP:
            raise CapExceeded(f"refusing to enumerate 2^{m} colourings; "
                              f"16 vertices is the limit for --colouring all")
        return [Colouring(bits, m) for bits in range(1 << m)]
    if spec.startswith("elementary:"):
        try:
            v = int(spec.split(":", 1)[1])
        except ValueError:
            raise ParseError(f"bad colouring spec {spec!r}") from None
        return [Colouring.elementary(m, v)]
    if spec.startswith("level:"):
        try:
            j = int(spec.split(":", 1)[1])
        except ValueError:
            raise ParseError(f"bad colouring spec {spec!r}") from None
        if not 0 <= j <= m:
            raise ParseError(f"level {j} outside 0..{m}")
        if comb(m, j) > MAX_SWEEP:
            raise CapExceeded(f"refusing to enumerate C({m}, {j}) = {comb(m, j)} "
                              f"colourings; {MAX_SWEEP} is the limit for --colouring level")
        return [Colouring(bits, m) for bits in level_masks(m, j)]
    eps = Colouring.from_string(spec)
    eps.check_length(m)
    return [eps]


def _single_colouring(spec: str, m: int) -> Colouring:
    found = _resolve_colourings(spec, m)
    if len(found) != 1:
        raise ParseError("this command needs a single explicit colouring")
    return found[0]


def _generator_payload(blocks) -> dict[str, list]:
    """Representative cycles per bigrading as lists of simplex vertex lists."""
    out = {}
    for (i, k), block in sorted(blocks.items()):
        if block.hom.rank == 0:
            continue
        reps = []
        for rep in block.hom.representatives:
            chain = []
            rest = rep
            while rest:
                idx = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                chain.append(list(vertices_of(block.basis[idx])))
            reps.append(chain)
        out[_bikey(i, k)] = reps
    return out


# --- per-command handlers (each returns a JSON-ready dict) ---


def _homology_worker(args):
    X, bits, m, diagonal = args
    eps = Colouring(bits, m)
    ranks = diagonal_homology(X, eps) if diagonal else horizontal_homology(X, eps)
    return str(eps), _bigraded(ranks)


def _run_bigraded(args, diagonal: bool) -> dict:
    X, digest = _load_complex(args.input)
    m = X.vertex_count
    colourings = _resolve_colourings(args.colouring, m)
    report = {"input_sha256": digest, "vertex_count": m,
              "vertex_order": list(range(m))}
    if len(colourings) == 1:
        eps = colourings[0]
        compute = diagonal_homology if diagonal else horizontal_homology
        report["colouring"] = str(eps)
        report["ranks"] = _bigraded(compute(X, eps))
        if args.generators:
            blocks = horizontal_homology_with_bases(
                X, eps.complement() if diagonal else eps)
            if diagonal:
                blocks = dual_grading(blocks)
            report["generators"] = _generator_payload(blocks)
    else:
        if args.generators:
            raise ParseError("--generators needs a single colouring")
        work = [(X, eps.bits, m, diagonal) for eps in colourings]
        workers = min(args.jobs, os.cpu_count() or 1, len(work))
        if workers <= 1:
            results = list(map(_homology_worker, work))
        else:
            from concurrent.futures import ProcessPoolExecutor  # here, so only a pool pays for it
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_homology_worker, work, chunksize=64))
        report["colourings"] = {name: ranks for name, ranks in sorted(results)}
    return report


def cmd_horizontal(args) -> dict:
    return _run_bigraded(args, diagonal=False)


def cmd_diagonal(args) -> dict:
    return _run_bigraded(args, diagonal=True)


def cmd_filtered(args) -> dict:
    X, digest = _load_complex(args.input)
    eps = _single_colouring(args.colouring, X.vertex_count)
    if args.level is None:
        raise ParseError("filtered needs --level")
    ranks = filtered_homology(X, eps, args.level)
    return {"input_sha256": digest, "vertex_count": X.vertex_count,
            "vertex_order": list(range(X.vertex_count)),
            "colouring": str(eps), "level": args.level, "ranks": _graded(ranks)}


def cmd_euler(args) -> dict:
    X, digest = _load_complex(args.input)
    eps = _single_colouring(args.colouring, X.vertex_count)
    coefficients = graded_euler(X, eps)
    return {"input_sha256": digest, "vertex_count": X.vertex_count,
            "colouring": str(eps),
            "coefficients": {_dimkey(k): c for k, c in coefficients.items()},
            "chi_at_1": sum(coefficients.values()), "chi_at_0": coefficients.get(0, 0)}


def cmd_morse(args) -> dict:
    X, digest = _load_complex(args.input)
    eps = _single_colouring(args.colouring, X.vertex_count)
    rep = verify_morse(X, eps)
    report = {"input_sha256": digest, "vertex_count": X.vertex_count,
              "colouring": str(eps),
              "is_matching": rep.is_matching, "is_acyclic": rep.is_acyclic,
              "is_morse_matching": rep.is_morse_matching,
              "is_dalmatian": is_dalmatian(X, eps),
              "critical_cells": [list(vertices_of(s)) for s in rep.critical_cells],
              "critical_by_dim": _graded(rep.critical_by_dim())}
    if report["is_dalmatian"]:
        form = dalmatian_closed_form(X, eps)
        report["closed_form_ranks"] = _bigraded(form.ranks)
    return report


def cmd_decompose(args) -> dict:
    X, digest = _load_complex(args.input)
    eps = _single_colouring(args.colouring, X.vertex_count)
    parts = elementary_decomposition(X, eps)
    payload = {}
    for v, edges in sorted(parts.items()):
        payload[_dimkey(v)] = [[list(vertices_of(a)), list(vertices_of(b))]
                               for a, b in sorted(edges)]
    return {"input_sha256": digest, "vertex_count": X.vertex_count,
            "colouring": str(eps), "by_dropped_vertex": payload}


def cmd_uber(args) -> dict:
    X, digest = _load_complex(args.input)
    ranks = uber_homology(X, cap=args.cap)
    return {"input_sha256": digest, "vertex_count": X.vertex_count,
            "vertex_order": list(range(X.vertex_count)),
            "ranks": {_trikey(*key): r for key, r in sorted(ranks.items())}}


def cmd_uber0(args) -> dict:
    X, digest = _load_complex(args.input)
    ranks = uber_degree0_fast(X)
    return {"input_sha256": digest, "vertex_count": X.vertex_count,
            "ranks": _bigraded(ranks)}


def cmd_theta(args) -> dict:
    G, digest = _load_graph(args.input)
    if args.level is None:
        raise ParseError("theta needs --level")
    level = theta(G, args.level)
    return {"input_sha256": digest, "vertex_count": G.vertex_count,
            "level": args.level,
            "entries": [list(t) for t in level.entries],
            "aggregated": [list(t) for t in level.aggregated],
            "signatures": [{"signature": [list(t) for t in sig], "count": c}
                           for sig, c in level.signature_counts]}


def _dissim_fields(m: int | None, j: int | None) -> tuple[str, str, str]:
    if m is None:  # the vertex counts differ
        return ("inf", "", "")
    d = Dissimilarity.at_level(m, j)
    return (str(d.value.numerator), str(d.value.denominator),
            "theta-equivalent" if j is None else str(j))


def cmd_dissim(args) -> dict:
    names, digest = _load_corpus(args.input)
    graphs = [parse_graph6(name) for name in names]  # fails fast on a bad line
    classes = theta_classes(graphs)
    fields = {}  # (m, j) -> CSV fields, a handful per corpus
    pairs = []
    for a, b in combinations(range(len(graphs)), 2):
        m = graphs[a].vertex_count
        key = ((m, first_differing_level(classes[a], classes[b]))
               if m == graphs[b].vertex_count else (None, None))
        if key not in fields:
            fields[key] = _dissim_fields(*key)
        num, den, level = fields[key]
        pairs.append({"name1": names[a], "name2": names[b], "delta_num": num,
                      "delta_den": den, "first_differing_level": level})
    return {"input_sha256": digest, "graph_count": len(names), "pairs": pairs}


def cmd_graph_hom(args) -> dict:
    G, digest = _load_graph(args.input)
    compute = {"h0": h0_graph, "h1_0": h1_0, "h1_1": h1_1, "h2": h2_graph}[args.which]
    ranks = compute(G)
    return {"input_sha256": digest, "vertex_count": G.vertex_count,
            "homology": args.which, "ranks": _graded(ranks)}


def cmd_matching_complex(args) -> dict:
    G, digest = _load_graph(args.input)
    M = matching_complex(G)
    return {"input_sha256": digest, "edge_count": G.edge_count,
            "vertex_count": M.vertex_count,
            "facets": [list(vertices_of(f)) for f in sorted(M.facets())],
            "text": format_complex(M)}


def cmd_tait(args) -> dict:
    text, digest = _load(args.input)
    P = parse_plane_graph(text)
    T = tait_graph(P)
    ranks = overlay_ranks(T)
    nv, nf, ne = T.partition_sizes
    return {"input_sha256": digest,
            "partition": {"primal": nv, "faces": nf, "crossings": ne},
            "overlay_vertex_count": 4 * ne,
            "colouring": str(tait_colouring(T)),
            "ranks": _bigraded(ranks)}


def cmd_verify_thm42(args) -> dict:
    text, digest = _load(args.input)
    P = parse_plane_graph(text)
    result = theorem42_verify(P)
    nv, nf, ne = result["partition"]
    levels = {}
    for k, entry in sorted(result["levels"].items()):
        levels[_dimkey(k)] = {"lhs": _graded(entry["lhs"]),
                              "rhs": _graded(entry["rhs"]),
                              "equal": entry["equal"]}
    return {"input_sha256": digest,
            "partition": {"primal": nv, "faces": nf, "crossings": ne},
            "levels": levels, "all_equal": result["all_equal"],
            "level0_matches_subdivision": result["level0_matches_subdivision"]}


# --- output rendering ---


def _flatten(prefix: str, obj, rows: list):
    if isinstance(obj, dict):
        for key in obj:
            sub = f"{prefix}.{key}" if prefix else str(key)
            _flatten(sub, obj[key], rows)
    elif isinstance(obj, list):
        rows.append((prefix, json.dumps(obj)))
    else:
        rows.append((prefix, obj))


def _render(report: dict, fmt: str, command: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    if command == "dissim" and fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["name1", "name2", "delta_num", "delta_den",
                         "first_differing_level"])
        for pair in report["pairs"]:
            writer.writerow([pair["name1"], pair["name2"], pair["delta_num"],
                             pair["delta_den"], pair["first_differing_level"]])
        return buf.getvalue()
    rows: list = []
    _flatten("", dict(sorted(report.items())), rows)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "value"])
        for key, value in rows:
            writer.writerow([key, value])
        return buf.getvalue()
    width = max((len(k) for k, _ in rows), default=0)
    return "".join(f"{k.ljust(width)}  {v}\n" for k, v in rows)


HANDLERS = {
    "horizontal": cmd_horizontal,
    "diagonal": cmd_diagonal,
    "filtered": cmd_filtered,
    "euler": cmd_euler,
    "morse": cmd_morse,
    "decompose": cmd_decompose,
    "uber": cmd_uber,
    "uber0": cmd_uber0,
    "theta": cmd_theta,
    "dissim": cmd_dissim,
    "graph-hom": cmd_graph_hom,
    "matching-complex": cmd_matching_complex,
    "tait": cmd_tait,
    "verify-thm42": cmd_verify_thm42,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uberhom",
        description="Homology of colour-filtered simplicial complexes")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *, colouring=False, level=False, cap=False,
            jobs=False, generators=False, which=False, csv_default=False):
        p = sub.add_parser(name, help=help_text)
        if which:
            p.add_argument("which", choices=("h0", "h1_0", "h1_1", "h2"))
        p.add_argument("input", help="input file")
        if colouring:
            p.add_argument("--colouring", required=True,
                           help="0/1 string, 'all', 'elementary:i', or 'level:j'")
        if level:
            p.add_argument("--level", type=int, default=None)
        if cap:
            p.add_argument("--cap", type=int, default=None,
                           help="vertex cap for cube-sized computations")
        if jobs:
            p.add_argument("--jobs", type=int, default=1)
        if generators:
            p.add_argument("--generators", action="store_true")
        p.add_argument("--format", choices=("json", "table", "csv"),
                       default="csv" if csv_default else "json")
        return p

    add("horizontal", "bigraded ranks of the black-dropping differential",
        colouring=True, jobs=True, generators=True)
    add("diagonal", "bigraded ranks of the white-dropping differential",
        colouring=True, jobs=True, generators=True)
    add("filtered", "homology of the weight-bounded subcomplex",
        colouring=True, level=True)
    add("euler", "graded Euler polynomial of a colouring", colouring=True)
    add("morse", "matching/acyclicity report and closed form", colouring=True)
    add("decompose", "partition the pairing graph by dropped vertex",
        colouring=True)
    add("uber", "full trigraded colour-cube ranks", cap=True)
    add("uber0", "degree-0 column via the star-intersection fast path")
    add("theta", "level-j colouring invariant of a graph", level=True)
    add("dissim", "pairwise dissimilarity CSV for a graph6 corpus",
        jobs=True, csv_default=True)
    add("graph-hom", "graph homologies (h0 from black components, the rest "
        "in closed form)", which=True)
    add("matching-complex", "matching complex of a graph6 graph")
    add("tait", "coloured overlay matching complex of a plane graph")
    add("verify-thm42", "check the overlay decomposition level by level")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        parser.error("--jobs must be at least 1")
    try:
        report = HANDLERS[args.command](args)
        report["command"] = args.command
        sys.stdout.write(_render(report, args.format, args.command))
    except UberhomError as exc:
        print(f"uberhom: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
