"""Benchmark of the uberhom CLI: seeded workloads, checked outputs, and an
optional traced pass that splits the time by layer.

    python3 perfbench/run.py --workload cube_rank --seed 3 --seconds 30 --trace 0

Run from the root of a checkout.  Jobs run one at a time (closed loop, one
client) as `python3 -m uberhom.cli ...` child processes with --jobs 1 where
the command has that flag.  Every job's stdout SHA-256 is compared with the
digests in reference.json.  The last line of stdout is one JSON object:

- --trace 0: the end-to-end metrics wall_s, setup_s and peak_rss_mb, with
  times scaled to a host at nominal speed (calibrate.py);
- --trace 1: the per-layer metrics of a traced pass (see spans.py).

See NOTES.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from calibrate import HostClock
from jobs import ROOT, JobResult, check_checkout, cli_command, failure, run_job

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
MIN_PASSES = 2  # even if one pass takes more than half of --seconds
SETUP_ROUNDS = 4  # set-up rounds before each pass
TIME_LIMIT_S = 165.0  # a run must end within 180 s
MB = 1024.0  # ru_maxrss is in KiB on Linux


class Runner:
    """Runs jobs against a shared deadline and counts failures."""

    def __init__(self, digests: dict, deadline: float):
        self.digests = digests
        self.deadline = deadline
        self.attempted = 0
        self.failures: list[str] = []

    def time_left(self) -> float:
        return self.deadline - perf_counter()

    def run(self, job, command=None) -> JobResult:
        result = run_job(command or cli_command(job.argv), max(self.time_left(), 1.0))
        self.attempted += 1
        why = failure(result, self.digests.get(job.name))
        if why:
            self.fail(job.name, why)
        return result

    def fail(self, name: str, why: str):
        self.failures.append(f"{name}: {why}")
        print(f"FAILED {name}: {why}", flush=True)


def load_reference(workload: str, variant: int) -> tuple[dict, dict]:
    """(digests by job name, input properties) recorded for this variant."""
    if not REFERENCE.is_file():
        return {}, {}
    entry = json.loads(REFERENCE.read_text())["workloads"].get(workload, {})
    digests = dict(entry.get("setup", {}))
    digests.update(entry.get("digests", {}).get(str(variant), {}))
    return digests, entry.get("properties", {}).get(str(variant), {})


def measure(wl, runner: Runner, seconds: float) -> dict:
    """End-to-end metrics: passes over the jobs, each after SETUP_ROUNDS
    set-up rounds, until `seconds` are used (at least MIN_PASSES passes).

    Every job is timed on the HostClock (calibrate.py): its wall time scaled
    to a host running at nominal speed, because the raw time drifts with the
    load other tenants put on the host.  wall_s sums each job's median over
    the passes; setup_s is the median set-up round.  Medians do not move with
    the number of samples, so a faster program that fits more passes is not
    credited for it.
    """
    for job in wl.setup_jobs:  # warm-up: bytecode and page caches
        runner.run(job)
    clock = HostClock()
    rounds, raw_rounds = [], []
    passes = []  # passes[i][j]: (result, scaled seconds) of job j in pass i
    begin = perf_counter()
    while True:
        start = perf_counter()
        for _ in range(SETUP_ROUNDS):
            timed = [clock.run(runner, job) for job in wl.setup_jobs]
            rounds.append(sum(scaled for _, scaled in timed))
            raw_rounds.append(sum(result.seconds for result, _ in timed))
        passes.append([clock.run(runner, job) for job in wl.jobs])
        cycle_s = perf_counter() - start
        if len(passes) >= MIN_PASSES and (perf_counter() - begin + cycle_s > seconds
                                          or runner.time_left() < 1.5 * cycle_s):
            break
    wall = raw_wall = 0.0
    for j, job in enumerate(wl.jobs):
        scaled = [p[j][1] for p in passes]
        raw = [p[j][0].seconds for p in passes]
        wall += median(scaled)
        raw_wall += median(raw)
        print(f"job {job.name}: median {median(scaled):.3f} s of "
              + ", ".join(f"{t:.3f}" for t in scaled)
              + "; raw " + ", ".join(f"{t:.3f}" for t in raw))
    print(f"setup rounds (s): {', '.join(f'{r:.3f}' for r in rounds)}; "
          f"raw {', '.join(f'{r:.3f}' for r in raw_rounds)}")
    print(f"{len(passes)} passes; raw wall_s {raw_wall}; raw setup_s {median(raw_rounds)}")
    peak_kb = max(r.max_rss_kb for p in passes for r, _ in p)
    return {"wall_s": (wall, "s"),
            "setup_s": (median(rounds), "s"),
            "peak_rss_mb": (peak_kb / MB, "MB")}


def traced(wl, runner: Runner) -> dict:
    """Per-layer metrics from a traced pass.  Each traced job runs right after
    the same job untraced, so both see the same host conditions."""
    import spans
    for job in wl.setup_jobs:
        runner.run(job)
    trace_dir = OUT / "trace" / f"{wl.name}-v{wl.variant}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    files = []
    untraced_s = traced_s = 0.0
    for idx, job in enumerate(wl.jobs):
        plain = runner.run(job)
        path = trace_dir / f"{idx:02d}.spans"
        command = [sys.executable, str(HERE / "traced_job.py"), str(path), str(idx),
                   "--", *job.argv]
        result = runner.run(job, command)
        untraced_s += plain.seconds
        traced_s += result.seconds
        if result.digest != plain.digest:
            runner.fail(job.name, "traced stdout differs from the untraced stdout")
        if path.is_file():
            files.append((job.name, spans.Spans.read(path)))
    summary = {name: {layer: {"calls": c, "self_s": t}
                      for layer, (c, t) in s.totals.items() if c}
               for name, s in files}
    (trace_dir / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(f"traced pass {traced_s:.3f} s, untraced pass {untraced_s:.3f} s; "
          f"spans and per-job layer totals in {trace_dir.relative_to(ROOT)}")
    return spans.per_layer_metrics([s for _, s in files], traced_s, untraced_s)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = perf_counter() + TIME_LIMIT_S
    problem = check_checkout()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    wl = workloads.build(args.workload, args.seed, ROOT, OUT / "inputs")
    digests, properties = load_reference(wl.name, wl.variant)
    print(f"workload {wl.name}, seed {args.seed} -> input variant {wl.variant}; "
          f"inputs {json.dumps(properties, sort_keys=True)}")
    runner = Runner(digests, deadline)
    metrics = traced(wl, runner) if args.trace else measure(wl, runner, args.seconds)
    failed = len(runner.failures)
    print(f"error_rate: {failed / runner.attempted} "
          f"({failed} failed of {runner.attempted} jobs)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
