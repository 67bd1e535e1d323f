"""The ``graph`` command family: live mutation of a server's serving graph.

``repro graph update`` posts an edge-delta batch to a running server's
``POST /v1/graph/update`` (explicit edges, server-side sampled edges, or
both); ``repro graph status`` reads ``GET /v1/graph/status``.  Both talk to
one server over HTTP, and an update changes only that server's graph.
"""

from __future__ import annotations

import json
import sys
import urllib.error
import urllib.request

DEFAULT_SERVER = "http://127.0.0.1:8151"


def _parse_edge(text: str) -> list:
    u, sep, v = text.partition(":")
    if not sep or not u.strip().isdigit() or not v.strip().isdigit():
        raise ValueError(f"edges are given as U:V with integer node ids, "
                         f"got {text!r}")
    return [int(u), int(v)]


def _request_json(url: str, *, body: dict | None = None,
                  timeout: float = 30.0):
    """One JSON round-trip; returns ``(status, payload)`` and treats an
    HTTP error with a JSON body (the server's 4xx shapes) as an answer."""
    data = None
    headers = {"Connection": "close"}
    if body is not None:
        data = json.dumps(body).encode("utf-8")
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(url, data=data, headers=headers,
                                     method="POST" if body is not None
                                     else "GET")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return int(response.status), json.loads(response.read())
    except urllib.error.HTTPError as error:
        try:
            return int(error.code), json.loads(error.read())
        except (OSError, ValueError):
            return int(error.code), {"error": str(error)}


def command_graph_update(args) -> int:
    """Apply one edge-delta batch to a running server's serving graph."""
    try:
        inserts = [_parse_edge(edge) for edge in (args.insert or [])]
        deletes = [_parse_edge(edge) for edge in (args.delete or [])]
    except ValueError as error:
        print(f"graph update failed: {error}", file=sys.stderr)
        return 2
    payload: dict = {}
    if inserts:
        payload["insert"] = inserts
    if deletes:
        payload["delete"] = deletes
    if args.sample_insert:
        payload["sample_insert"] = args.sample_insert
    if args.sample_delete:
        payload["sample_delete"] = args.sample_delete
    if args.seed is not None:
        payload["seed"] = args.seed
    if args.graph:
        payload["graph"] = args.graph
    if not payload:
        print("graph update failed: nothing to apply; give --insert/--delete "
              "edges or --sample-insert/--sample-delete counts",
              file=sys.stderr)
        return 2
    url = args.server.rstrip("/") + "/v1/graph/update"
    try:
        status, answer = _request_json(url, body=payload,
                                       timeout=args.timeout)
    except (urllib.error.URLError, OSError) as error:
        print(f"graph update failed: {args.server} unreachable ({error})",
              file=sys.stderr)
        return 1
    if status != 200:
        print(f"graph update failed ({status}): "
              f"{answer.get('error', answer)}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(answer, indent=2, sort_keys=True))
        return 0
    timings = answer.get("timings_ms", {})
    print(f"graph {answer.get('graph')}: epoch "
          f"{answer.get('previous_epoch')} -> {answer.get('epoch')} "
          f"(digest {str(answer.get('digest'))[:16]}…)")
    print(f"  +{answer.get('inserted', 0)} edge(s), "
          f"-{answer.get('deleted', 0)} edge(s), "
          f"{len(answer.get('endpoints', []))} touched node(s)")
    print(f"  sessions refreshed: {answer.get('sessions_refreshed', 0)} "
          f"(apply {timings.get('apply', 0):g}ms, "
          f"re-propagate {timings.get('repropagate', 0):g}ms)")
    return 0


def command_graph_status(args) -> int:
    """Print a running server's versioned-graph status."""
    url = args.server.rstrip("/") + "/v1/graph/status"
    try:
        status, answer = _request_json(url, timeout=args.timeout)
    except (urllib.error.URLError, OSError) as error:
        print(f"graph status failed: {args.server} unreachable ({error})",
              file=sys.stderr)
        return 1
    if status != 200:
        print(f"graph status failed ({status}): "
              f"{answer.get('error', answer)}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(answer, indent=2, sort_keys=True))
        return 0
    graphs = answer.get("graphs", {})
    if not graphs:
        print("no serving graph loaded yet (serve a prediction first)")
    for key in sorted(graphs):
        info = graphs[key]
        print(f"graph {key}: epoch {info.get('epoch')} "
              f"(digest {str(info.get('digest'))[:16]}…)")
        print(f"  {info.get('nodes')} node(s), {info.get('edges')} edge(s), "
              f"{info.get('updates')} update(s) applied; retained epochs "
              f"{info.get('retained_epochs')}")
    stats = answer.get("stats", {})
    if stats:
        print(f"rebuilds: {stats.get('sessions_rebuilt_incremental', 0)} "
              f"incremental, {stats.get('sessions_rebuilt_full', 0)} full; "
              f"rows recomputed {stats.get('rows_recomputed', 0)}, "
              f"reused {stats.get('rows_reused', 0)}")
    return 0


def configure(subparsers) -> None:
    graph = subparsers.add_parser(
        "graph", help="inspect or mutate a running server's serving graph")
    graph_sub = graph.add_subparsers(dest="graph_command", required=True)

    update = graph_sub.add_parser(
        "update", help="apply an edge-delta batch (inserts/deletes) to the "
                       "serving graph; the epoch advances atomically")
    update.add_argument("--server", default=DEFAULT_SERVER,
                        help=f"server base URL (default: {DEFAULT_SERVER})")
    update.add_argument("--insert", action="append", metavar="U:V",
                        help="edge to insert, as two node ids U:V; repeat "
                             "for a batch")
    update.add_argument("--delete", action="append", metavar="U:V",
                        help="edge to delete, as two node ids U:V; repeat "
                             "for a batch")
    update.add_argument("--sample-insert", type=int, default=0,
                        dest="sample_insert", metavar="N",
                        help="additionally insert N server-sampled random "
                             "non-edges (at most 1000 sampled edges per "
                             "update, inserts and deletes together)")
    update.add_argument("--sample-delete", type=int, default=0,
                        dest="sample_delete", metavar="N",
                        help="additionally delete N server-sampled random "
                             "existing edges (counts toward the same "
                             "1000-edge limit)")
    update.add_argument("--seed", type=int, default=None,
                        help="seed for the server-side edge sampling")
    update.add_argument("--graph", default=None, metavar="KEY",
                        help="graph store key to update (only needed when "
                             "the server holds several graphs)")
    update.add_argument("--timeout", type=float, default=120.0,
                        help="seconds to wait for apply + re-propagation")
    update.add_argument("--json", action="store_true",
                        help="print the full update response as JSON")
    update.set_defaults(func=command_graph_update)

    status = graph_sub.add_parser(
        "status", help="show the serving graph's epoch, digest and "
                       "update/rebuild counters")
    status.add_argument("--server", default=DEFAULT_SERVER,
                        help=f"server base URL (default: {DEFAULT_SERVER})")
    status.add_argument("--timeout", type=float, default=10.0,
                        help="seconds to wait for the status response")
    status.add_argument("--json", action="store_true",
                        help="print the full status payload as JSON")
    status.set_defaults(func=command_graph_status)
