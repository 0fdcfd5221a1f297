"""Run one CLI job as a child process, time it, and check its output."""

from __future__ import annotations

import hashlib
import os
import selectors
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class JobResult:
    seconds: float  # process spawn to the last byte of stdout
    max_rss_kb: int
    returncode: int
    stdout: bytes
    stderr: bytes
    timed_out: bool = False

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()


def check_checkout() -> str | None:
    """Why the checkout cannot be benchmarked, or None if it can."""
    if not (ROOT / "src" / "uberhom" / "cli.py").is_file():
        return f"no uberhom sources under {ROOT / 'src'}"
    return None


def job_env() -> dict:
    """Environment for child jobs: the checkout's sources and nothing else."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def cli_command(argv) -> list[str]:
    return [sys.executable, "-m", "uberhom.cli", *argv]


def run_job(command: list[str], timeout: float) -> JobResult:
    """Run command to completion (or kill it after timeout seconds).

    The clock stops at end-of-file on stdout; peak memory comes from the
    child's rusage via os.wait4, so the child is reaped here, not by Popen.
    """
    start = perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=job_env(),
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    chunks = {proc.stdout: [], proc.stderr: []}
    stdout_end = None
    timed_out = False
    try:
        with selectors.DefaultSelector() as sel:
            for pipe in chunks:
                sel.register(pipe, selectors.EVENT_READ)
            while sel.get_map():
                remaining = start + timeout - perf_counter()
                if remaining <= 0:
                    timed_out = True
                    proc.kill()
                    break
                for key, _ in sel.select(remaining):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                        continue
                    sel.unregister(key.fileobj)
                    if key.fileobj is proc.stdout:
                        stdout_end = perf_counter()
    finally:
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    end = stdout_end if stdout_end is not None else perf_counter()
    return JobResult(end - start, usage.ru_maxrss, proc.returncode,
                     b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr]),
                     timed_out)


def failure(result: JobResult, expected_digest: str | None) -> str | None:
    """Why the job counts as failed, or None if it passed."""
    if result.timed_out:
        return "timed out"
    if result.returncode != 0:
        return f"exit code {result.returncode}"
    if result.stderr:
        return "wrote to stderr: " + result.stderr[:200].decode(errors="replace")
    if expected_digest is None:
        return "no reference digest"
    if result.digest != expected_digest:
        return "stdout digest differs from the reference"
    return None
