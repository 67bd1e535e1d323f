"""Observability command: ``trace``."""

from __future__ import annotations

import sys


def command_trace(args) -> int:
    """List recent traces, or pretty-print one trace as a span tree."""
    from repro.obs.aggregate import (
        fetch_recent_traces,
        fetch_trace_spans,
        render_trace_list,
        render_trace_tree,
    )

    try:
        if args.trace_id is None:
            print(render_trace_list(
                fetch_recent_traces(args.url, limit=args.limit)))
            return 0
        spans = fetch_trace_spans(args.url, args.trace_id)
    except (OSError, ValueError) as error:
        # URLError carries the socket-level cause in ``reason``.
        print(f"cannot reach {args.url}: {getattr(error, 'reason', error)}",
              file=sys.stderr)
        return 1
    if not spans:
        print(f"trace {args.trace_id} not found on {args.url}",
              file=sys.stderr)
        return 1
    print(render_trace_tree(spans))
    return 0


def configure(subparsers) -> None:
    trace = subparsers.add_parser(
        "trace", help="list or pretty-print request traces from servers")
    trace.add_argument("trace_id", nargs="?", default=None,
                       help="trace id to render as a span tree (omit to "
                            "list recent traces)")
    trace.add_argument("--url", required=True, metavar="URL",
                       help="server base URL, e.g. http://127.0.0.1:8151")
    trace.add_argument("--limit", type=int, default=10,
                       help="how many recent traces to list")
    trace.set_defaults(func=command_trace)
