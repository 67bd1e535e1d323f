"""The command registry: one module per command family.

Each module exposes ``configure(subparsers)`` which registers its parsers
and binds each one's ``func`` default to the handler;
:func:`repro.cli.main.build_parser` walks :data:`COMMAND_MODULES` in order.
Adding a command means adding a module here (or a parser to an existing
one) — ``main.py`` never changes, and ``tests/test_docs.py`` walks the
live argparse tree so ``docs/cli.md`` must name whatever is registered.
"""

from repro.cli.commands import (
    dist,
    experiments,
    graph,
    obs,
    serving,
    sweep,
)

COMMAND_MODULES = (
    experiments,
    sweep,
    dist,
    serving,
    graph,
    obs,
)

__all__ = ["COMMAND_MODULES"]
