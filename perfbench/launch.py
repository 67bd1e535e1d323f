"""Run the ``repro`` command line under the benchmark's instruments.

Usage::

    python3 perfbench/launch.py [--spans FILE] [--marks FILE] -- <repro args>

``--spans FILE`` installs the layer timing wrappers of :mod:`spans` before
``repro.cli.main`` runs and writes the spans to ``FILE`` (pool workers to
``FILE.<pid>``).  ``--marks FILE`` writes, as JSON, the monotonic time at
which the sweep engine starts running cells: the end of a sweep's set-up.
Without either flag this is exactly ``repro <args>``.  The server's own
tracer is left as shipped either way.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _mark_engine_start(path: str) -> None:
    from repro.runtime.engine import ParallelExperimentRunner

    run = ParallelExperimentRunner.run

    @functools.wraps(run)
    def marked(self, cells):
        Path(path).write_text(json.dumps({
            "engine_start_ns": time.monotonic_ns(), "jobs": self.jobs}),
            encoding="utf-8")
        return run(self, cells)

    ParallelExperimentRunner.run = marked


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print("usage: launch.py [--spans FILE] [--marks FILE] -- <repro args>",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    options, program_args = argv[:split], argv[split + 1:]
    flags = dict(zip(options[::2], options[1::2]))
    sys.path.insert(0, str(ROOT / "src"))
    if "--spans" in flags:
        import spans

        spans.install(flags["--spans"])
    if "--marks" in flags:
        _mark_engine_start(flags["--marks"])
    from repro.cli.main import main as repro_main

    return repro_main(program_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
