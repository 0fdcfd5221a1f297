"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that failed jobs are counted (corrupted digest, non-zero exit,
stderr output, timeout), that self-time arithmetic is right on a synthetic
span tree, that tracing leaves the CLI's output unchanged and is removed
again, that inputs are a function of the seed, and that the harness refuses
to run without the package sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from array import array
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
import spans  # noqa: E402
from jobs import ROOT, run_job, failure  # noqa: E402
from run import OUT, Runner  # noqa: E402
from workloads import NAMES, Job  # noqa: E402

PY = sys.executable


def _python(code: str) -> list[str]:
    return [PY, "-c", code]


class FailureCounting(unittest.TestCase):
    def test_matching_digest_passes_and_corrupted_digest_fails(self):
        result = run_job(_python("print('hello')"), 30)
        self.assertIsNone(failure(result, result.digest))
        corrupted = ("0" if result.digest[0] != "0" else "1") + result.digest[1:]
        self.assertIn("digest", failure(result, corrupted))
        runner = Runner({"echo": corrupted}, deadline=perf_counter() + 60)
        runner.run(Job("echo", ()), _python("print('hello')"))
        self.assertEqual((runner.attempted, len(runner.failures)), (1, 1))

    def test_nonzero_exit_fails_even_with_matching_digest(self):
        result = run_job(_python("print('partial'); raise SystemExit(3)"), 30)
        self.assertEqual(result.returncode, 3)
        self.assertEqual(failure(result, result.digest), "exit code 3")
        runner = Runner({"exit3": result.digest}, deadline=perf_counter() + 60)
        runner.run(Job("exit3", ()), _python("print('partial'); raise SystemExit(3)"))
        self.assertEqual(len(runner.failures), 1)

    def test_stderr_output_and_timeout_fail(self):
        noisy = run_job(_python("import sys; sys.stderr.write('warn')"), 30)
        self.assertIn("stderr", failure(noisy, noisy.digest))
        slow = run_job(_python("import time; time.sleep(30)"), 0.5)
        self.assertTrue(slow.timed_out)
        self.assertLess(slow.seconds, 10)
        self.assertEqual(failure(slow, slow.digest), "timed out")

    def test_missing_reference_fails(self):
        result = run_job(_python("print('hello')"), 30)
        self.assertEqual(failure(result, None), "no reference digest")

    def test_rss_is_reported(self):
        result = run_job(_python("b = bytearray(50 * 2**20)"), 30)
        self.assertGreater(result.max_rss_kb, 50 * 1024)


class HostScaling(unittest.TestCase):
    def test_job_time_is_scaled_by_the_kernel_times_around_it(self):
        class FakeRunner:
            def run(self, job):
                return job

        class FakeJob:
            def __init__(self, seconds):
                self.seconds = seconds

        nominal = calibrate.NOMINAL_S
        kernel_times = iter([0.0, nominal, 2 * nominal, nominal / 2])
        saved = calibrate.kernel_seconds
        calibrate.kernel_seconds = lambda: next(kernel_times)
        try:
            clock = calibrate.HostClock()  # warm-up, then the kernel before job 1
            _, first = clock.run(FakeRunner(), FakeJob(3.0))  # host at 2/3 speed
            _, second = clock.run(FakeRunner(), FakeJob(3.0))  # kernel mean 1.25 x nominal
        finally:
            calibrate.kernel_seconds = saved
        self.assertAlmostEqual(first, 2.0)
        self.assertAlmostEqual(second, 3.0 / 1.25)


def _synthetic(rows) -> spans.Spans:
    """rows: (name id, parent index, start, end) in start order."""
    return spans.Spans(array("H", [r[0] for r in rows]), array("i", [r[1] for r in rows]),
                       array("d", [r[2] for r in rows]), array("d", [r[3] for r in rows]))


class SelfTime(unittest.TestCase):
    # A[0,10] -> B[1,4] -> D[2,3]
    #         -> C[5,9] -> E[5.5,7], F[6,8] (overlapping children)
    # G[11,12] -> H[11.5,12.5] (child runs past its parent; clipped)
    ROWS = [(0, -1, 0.0, 10.0), (1, 0, 1.0, 4.0), (2, 1, 2.0, 3.0), (1, 0, 5.0, 9.0),
            (2, 3, 5.5, 7.0), (2, 3, 6.0, 8.0), (0, -1, 11.0, 12.0), (3, 6, 11.5, 12.5)]

    def test_self_times(self):
        got = list(spans.self_times(_synthetic(self.ROWS)))
        want = [3.0, 2.0, 1.0, 1.5, 1.5, 2.0, 0.5, 1.0]
        for g, w in zip(got, want):
            self.assertAlmostEqual(g, w)

    def test_layer_totals_and_metrics(self):
        s = _synthetic(self.ROWS)
        names = spans.LAYER_NAMES
        self.assertEqual(s.totals[names[0]], (2, 3.5))
        self.assertEqual(s.totals[names[1]], (2, 3.5))
        self.assertEqual(s.totals[names[2]], (3, 4.5))
        metrics = spans.per_layer_metrics([s, s], traced_wall_s=3.0, untraced_wall_s=2.0)
        self.assertEqual(metrics[f"{names[2]}.calls"], (6, "count"))
        self.assertAlmostEqual(metrics[f"{names[2]}.self_s"][0], 9.0)
        self.assertEqual(metrics["trace.overhead_ratio"], (1.5, "ratio"))

    def test_benchmark_json_lists_the_reported_metrics(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in declared["per_layer"]],
                         list(spans.per_layer_metrics([], 1.0, 1.0)))
        self.assertEqual([w["name"] for w in declared["workloads"]], list(NAMES))


class Tracing(unittest.TestCase):
    def test_traced_cli_matches_untraced_and_uninstalls(self):
        import uberhom.cli
        import uberhom.coloured
        import uberhom.uber
        from uberhom import format_complex, standard_complex
        work = OUT / "selftest"
        work.mkdir(parents=True, exist_ok=True)
        path = work / "susp_cycle4.complex"
        path.write_text(format_complex(standard_complex("cycle", 4).suspension()))
        original = uberhom.coloured.horizontal_homology_with_bases

        def run_cli():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                self.assertEqual(uberhom.cli.main(["uber", str(path)]), 0)
            return buf.getvalue()

        plain = run_cli()
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertIsNot(uberhom.uber.horizontal_homology_with_bases, original)
            traced = run_cli()
        finally:
            tracer.uninstall()
        self.assertEqual(traced, plain)
        self.assertIs(uberhom.uber.horizontal_homology_with_bases, original)

        tracer.write(work / "job.spans", 7)
        s = spans.Spans.read(work / "job.spans")
        self.assertEqual(s.job, 7)
        calls = {name: c for name, (c, _) in s.totals.items()}
        self.assertEqual(calls["cli.main"], 1)
        self.assertEqual(calls["uber.uber_homology"], 1)
        self.assertEqual(calls["coloured.horizontal_homology_with_bases"], 64)
        self.assertGreater(calls["f2.rank_of"], 0)
        self.assertEqual(s.counters["uber.colourings"], 64)
        # self times partition the root span
        root = s.ends[0] - s.starts[0]
        self.assertAlmostEqual(sum(spans.self_times(s)), root, places=6)


class Inputs(unittest.TestCase):
    def test_same_seed_same_files_other_variant_other_files(self):
        import workloads

        def files(seed, sub):
            wl = workloads.build("overlay", seed, ROOT, OUT / "selftest" / sub)
            return [(ROOT / job.argv[1]).read_bytes() for job in wl.jobs]

        self.assertEqual(files(3, "a"), files(3 + workloads.VARIANTS, "b"))
        self.assertNotEqual(files(3, "a"), files(4, "c"))


class BareDirectory(unittest.TestCase):
    def test_refuses_without_sources(self):
        bare = OUT / "selftest" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out"))
        proc = subprocess.run([PY, "perfbench/run.py", "--workload", "cube_rank", "--seed", "0",
                               "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
