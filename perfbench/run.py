"""The benchmark's one command.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It drives the checkout's own
``repro serve`` / ``repro sweep`` processes (``src/`` on the path, nothing
installed), checks their answers, and prints two JSON lines: a detail
record (environment, warm-up coverage, sample counts, gate outcomes) and,
last, the result ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
workload runs untraced and then traced, and the metrics are the per-layer
ones plus the tracing overhead.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("predict-serial", "predict-bulk", "graph-update", "fit-sweep")
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                              capture_output=True, text=True,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def environment() -> dict:
    """Where the numbers come from.  Thread-count variables are recorded as
    found and never set here."""
    import numpy
    import scipy

    from workloads import source_digest

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "source_digest": source_digest(ROOT),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    benchmark = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() \
            or not benchmark.is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'} or no "
              f"BENCHMARK.json; run from the root of a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    context = workloads.Context(ROOT, args.seed, args.seconds, args.smoke)
    try:
        phase = workloads.run(context, args.workload, traced=bool(args.trace))
    finally:
        shutil.rmtree(context.scratch, ignore_errors=True)
    declared = json.loads(benchmark.read_text())[
        "per_layer" if args.trace else "end_to_end"]
    values = phase.layers if args.trace else phase.e2e
    metrics = {metric["name"]: {"value": values[metric["name"]],
                                "unit": metric["unit"]}
               for metric in declared}
    print(json.dumps({"perfbench": {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "environment": environment(), **phase.detail}}))
    print(json.dumps({"correct": phase.failed == 0,
                      "attempted": phase.attempted, "failed": phase.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
