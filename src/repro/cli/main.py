"""Argument parsing and sub-command dispatch for the ``gcon-repro`` CLI.

The sub-commands themselves live in :mod:`repro.cli.commands`, one module
per family (experiments, sweep, dist, serving, graph, obs); each registers
its parsers through ``configure(subparsers)``.  This module only assembles
the tree and dispatches — ``build_parser``/``main`` stay importable from
here, which is the surface the console scripts, ``python -m repro.cli``
and the test suite bind to.
"""

from __future__ import annotations

import argparse
import sys

from repro.cli.commands import COMMAND_MODULES
from repro.version import __version__


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcon-repro",
        description="Reproduction of GCON (ICDE 2025): DP GCNs via objective perturbation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for module in COMMAND_MODULES:
        module.configure(subparsers)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv if argv is not None else sys.argv[1:])
    return args.func(args)
