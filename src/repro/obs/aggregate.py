"""The client half of ``repro trace``: fetch and render one server's traces.

``repro trace`` fetches a ``/debug/traces`` listing, or one trace's span
set from ``/debug/traces/<id>``, from the server that took the requests,
and renders the tree by ``parent_id`` links.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

DEFAULT_TIMEOUT = 5.0


def _get(base_url: str, path: str, timeout: float) -> bytes:
    request = urllib.request.Request(base_url.rstrip("/") + path,
                                     headers={"Connection": "close"})
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.read()


def fetch_recent_traces(base_url: str, *, limit: int = 10,
                        timeout: float = DEFAULT_TIMEOUT) -> list[dict]:
    """The newest ``limit`` summaries of the server's ``/debug/traces``.

    Raises :class:`OSError` (``urllib.error.URLError``) when the server
    cannot be reached and :class:`ValueError` when its answer is not JSON.
    """
    payload = json.loads(_get(base_url, "/debug/traces", timeout))
    return payload.get("traces", [])[:limit]


def fetch_trace_spans(base_url: str, trace_id: str, *,
                      timeout: float = DEFAULT_TIMEOUT) -> list[dict]:
    """One trace's spans; empty when the server answers 404 (it does not
    hold the trace).  Raises like :func:`fetch_recent_traces` otherwise."""
    try:
        body = _get(base_url, f"/debug/traces/{trace_id}", timeout)
    except urllib.error.HTTPError as error:
        if error.code == 404:
            return []
        raise
    return json.loads(body).get("spans", [])


def render_trace_list(rows) -> str:
    if not rows:
        return "no traces recorded"
    lines = [f"{'trace_id':<34} {'root':<12} {'spans':>5} {'ms':>10}"]
    for row in rows:
        lines.append(f"{row.get('trace_id', ''):<34} "
                     f"{row.get('root', ''):<12} "
                     f"{row.get('span_count', 0):>5} "
                     f"{row.get('duration_ms', 0.0):>10.3f}")
    return "\n".join(lines)


def render_trace_tree(spans) -> str:
    """ASCII tree of one trace: nesting by ``parent_id``, siblings in
    start order, orphans promoted to roots."""
    if not spans:
        return "trace has no spans"
    by_id = {span["span_id"]: span for span in spans}
    children: dict[str | None, list[dict]] = {}
    roots: list[dict] = []
    for span in spans:
        parent = span.get("parent_id")
        if parent and parent in by_id:
            children.setdefault(parent, []).append(span)
        else:
            roots.append(span)
    for siblings in children.values():
        siblings.sort(key=lambda span: span.get("start_ns", 0))
    roots.sort(key=lambda span: span.get("start_ns", 0))

    lines = [f"trace {spans[0]['trace_id']} "
             f"({len(spans)} span{'s' if len(spans) != 1 else ''})"]

    def _describe(span: dict) -> str:
        attrs = span.get("attrs") or {}
        noted = " ".join(f"{key}={attrs[key]}"
                         for key in sorted(attrs)
                         if isinstance(attrs[key], (str, int, float, bool)))
        status = span.get("status", "ok")
        flag = "" if status == "ok" else f" [{status}]"
        text = f"{span['name']} {span.get('duration_ms', 0.0):.3f}ms{flag}"
        return f"{text}  ({noted})" if noted else text

    def _walk(span: dict, prefix: str, is_last: bool) -> None:
        branch = "└─ " if is_last else "├─ "
        lines.append(prefix + branch + _describe(span))
        child_prefix = prefix + ("   " if is_last else "│  ")
        kids = children.get(span["span_id"], [])
        for index, child in enumerate(kids):
            _walk(child, child_prefix, index == len(kids) - 1)

    for index, root in enumerate(roots):
        _walk(root, "", index == len(roots) - 1)
    return "\n".join(lines)
