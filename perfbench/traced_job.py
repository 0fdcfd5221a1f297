"""Run one uberhom CLI job in-process with layer tracing on.

    python3 perfbench/traced_job.py SPANS_FILE JOB_ID -- <uberhom arguments>

The job runs through `uberhom.cli.main(argv)` with stdout captured.  The
captured text is written to stdout and stdout is closed before the spans are
written, so the harness times this job exactly as an untraced one (spawn to
the last byte of stdout).  The exit code is the CLI's.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    spans_file, job_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced_job.py SPANS_FILE JOB_ID -- ARGS...")
    import uberhom.cli
    tracer = Tracer()
    tracer.install()
    captured = io.StringIO()
    try:
        with contextlib.redirect_stdout(captured):
            code = uberhom.cli.main(cli_args)
    finally:
        tracer.uninstall()
    sys.stdout.write(captured.getvalue())
    sys.stdout.close()
    tracer.write(spans_file, int(job_id))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
