"""Record reference.json: the stdout digest of every benchmark job, for every
input variant, after cross-checking each output against an independent
reference.

    python3 perfbench/record.py

Run from the root of a checkout whose outputs are known good.  It runs each
job once per variant (about ten minutes on two cores) and stops with an
error, writing nothing, if any cross-check fails:

- cube_rank: the cycle closed form {(n-2,0,0): 1, (n,1,0): 1};
- cube_blocks: the j=0 and j=m slices against uber_degree0_fast and
  uber_top_level;
- graph_sweep: h2 == {} on connected graphs with at least 3 vertices, h0
  against the cube engine restricted to bidegree (0,0), and a seeded sample
  of dissim rows (five per reported first differing level) against Theta
  recomputed with tests/oracles.py's naive_horizontal;
- overlay: all_equal and level0_matches_subdivision in every verify-thm42
  report, and tait's ranks equal to verify-thm42's left-hand side.
"""

from __future__ import annotations

import csv
import io
import json
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

from jobs import ROOT, check_checkout, cli_command, failure, run_job
from run import OUT, REFERENCE

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import workloads  # noqa: E402
from uberhom import (graph_as_complex, matching_complex_of_edges, tait_graph,  # noqa: E402
                     uber_degree0_fast, uber_homology, uber_top_level)

DISSIM_SAMPLE_PER_LEVEL = 5
JOB_TIMEOUT_S = 300.0


class CrossCheckError(Exception):
    pass


def _expect(ok: bool, what: str):
    if not ok:
        raise CrossCheckError(what)


def _unkey(key: str) -> tuple[int, ...]:
    return tuple(int(t) for t in key.strip("()").split(","))


def _trigraded(report: dict) -> dict:
    return {_unkey(k): r for k, r in report["ranks"].items()}


def check_cube_rank(wl, outputs):
    for key, X in wl.inputs.items():
        n = X.vertex_count
        got = _trigraded(outputs[f"uber:{key}"])
        _expect(got == {(n - 2, 0, 0): 1, (n, 1, 0): 1},
                f"{key}: cycle closed form violated: {got}")


def check_cube_blocks(wl, outputs):
    for key, X in wl.inputs.items():
        got = _trigraded(outputs[f"uber:{key}"])
        m = X.vertex_count
        for j, expected in ((0, uber_degree0_fast(X)), (m, uber_top_level(X))):
            level = {(i, k): r for (jj, i, k), r in got.items() if jj == j}
            _expect(level == expected, f"{key}: level {j} is {level}, expected {expected}")


def naive_theta(G, j: int) -> tuple:
    """Theta level j from tests/oracles.py's brute-force horizontal homology."""
    from oracles import naive_horizontal
    entries = []
    for black in combinations(range(G.vertex_count), j):
        for (i, k), r in naive_horizontal(G.edges, black).items():
            entries.append((j, i, k, r))
    return tuple(sorted(entries, reverse=True))


def check_graph_sweep(wl, outputs):
    from uberhom import parse_graph6
    for key, G in wl.inputs.items():
        if key == "corpus":
            continue
        _expect(G.is_connected and G.vertex_count >= 3, f"{key} is not a valid input")
        _expect(outputs[f"graph-hom:h2:{key}"]["ranks"] == {}, f"{key}: h2 is not empty")
        cube = uber_homology(graph_as_complex(G), bidegrees={(0, 0)})
        h0 = {f"{j:02d}": r for (j, _, _), r in sorted(cube.items())}
        _expect(outputs[f"graph-hom:h0:{key}"]["ranks"] == h0,
                f"{key}: h0 differs from the cube engine")
    rows = list(csv.reader(io.StringIO(outputs["dissim:corpus"])))[1:]
    _expect(len(rows) == len(wl.inputs["corpus"]) * (len(wl.inputs["corpus"]) - 1) // 2,
            "dissim: wrong number of rows")
    memo: dict = {}

    def theta_of(name, j):
        if (name, j) not in memo:
            memo[(name, j)] = naive_theta(parse_graph6(name), j)
        return memo[(name, j)]

    # Most pairs differ at level 0, so sample each reported level separately.
    by_level: dict = {}
    for row in rows:
        by_level.setdefault(row[4], []).append(row)
    rng = random.Random(f"dissim-sample:{wl.variant}")
    sample = [row for _, group in sorted(by_level.items())
              for row in rng.sample(group, min(len(group), DISSIM_SAMPLE_PER_LEVEL))]
    for row in sample:
        name1, name2 = row[0], row[1]
        m = parse_graph6(name1).vertex_count
        level = next((j for j in range(m + 1)
                      if theta_of(name1, j) != theta_of(name2, j)), None)
        value = Fraction(0) if level is None else Fraction(m - level, m)
        expected = [name1, name2, str(value.numerator), str(value.denominator),
                    "theta-equivalent" if level is None else str(level)]
        _expect(row == expected, f"dissim row {row} != oracle {expected}")


def check_overlay(wl, outputs):
    for key in wl.inputs:
        report = outputs[f"verify-thm42:{key}"]
        _expect(report["all_equal"] and report["level0_matches_subdivision"],
                f"{key}: verify-thm42 reports a mismatch")
        lhs = {(int(d), int(k)): r for k, level in report["levels"].items()
               for d, r in level["lhs"].items()}
        tait = {_unkey(k): r for k, r in outputs[f"tait:{key}"]["ranks"].items()}
        _expect(tait == lhs, f"{key}: tait ranks differ from verify-thm42's lhs")


def properties(wl) -> dict:
    out = {}
    for key, obj in wl.inputs.items():
        if key == "corpus":
            n = len(obj)
            out[key] = {"graphs": n, "vertices": obj[0].vertex_count,
                        "pairs": n * (n - 1) // 2}
        elif hasattr(obj, "rotations"):
            T = tait_graph(obj)
            out[key] = {"vertices": obj.graph.vertex_count, "edges": obj.graph.edge_count,
                        "overlay_vertices": 4 * T.crossing_count,
                        "overlay_simplices": len(matching_complex_of_edges(
                            list(T.overlay_edges)).simplices)}
        elif hasattr(obj, "edges"):
            out[key] = {"vertices": obj.vertex_count, "edges": obj.edge_count,
                        "simplices": obj.vertex_count + obj.edge_count,
                        "colourings": 1 << obj.vertex_count}
        else:
            out[key] = {"vertices": obj.vertex_count, "simplices": len(obj.simplices),
                        "colourings": 1 << obj.vertex_count}
    return out


def run_all(jobs) -> tuple[dict, dict]:
    """(digest, decoded stdout) per job name; raises if any job fails."""
    digests, outputs = {}, {}
    for job in jobs:
        result = run_job(cli_command(job.argv), JOB_TIMEOUT_S)
        why = failure(result, result.digest)
        _expect(why is None, f"{job.name}: {why}")
        digests[job.name] = result.digest
        text = result.stdout.decode()
        outputs[job.name] = text if job.argv[0] == "dissim" else json.loads(text)
    return digests, outputs


CHECKS = {"cube_rank": check_cube_rank, "cube_blocks": check_cube_blocks,
          "graph_sweep": check_graph_sweep, "overlay": check_overlay}


def main() -> int:
    problem = check_checkout()
    if problem:
        print(f"record: {problem}", file=sys.stderr)
        return 2
    reference = {"variants": workloads.VARIANTS, "recorded_on": _commit(), "workloads": {}}
    for name in workloads.NAMES:
        entry = {"setup": {}, "digests": {}, "properties": {}}
        for variant in range(workloads.VARIANTS):
            wl = workloads.build(name, variant, ROOT, OUT / "inputs")
            if variant == 0:
                entry["setup"], _ = run_all(wl.setup_jobs)
            digests, outputs = run_all(wl.jobs)
            CHECKS[name](wl, outputs)
            entry["digests"][str(variant)] = digests
            entry["properties"][str(variant)] = properties(wl)
            print(f"{name} variant {variant}: {len(digests)} jobs cross-checked", flush=True)
        reference["workloads"][name] = entry
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")
    return 0


def _commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


if __name__ == "__main__":
    try:
        sys.exit(main())
    except CrossCheckError as exc:
        print(f"record: cross-check failed: {exc}", file=sys.stderr)
        sys.exit(1)
