"""Tests for the selector-loop HTTP frontend (framing, 400s, keep-alive,
bounded connections, graceful drain)."""

from __future__ import annotations

import io
import json
import re
import socket
import threading
import time
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import GCONConfig
from repro.core.model import GCON
from repro.exceptions import ConfigurationError
from repro.graphs.datasets import load_dataset
from repro.obs.prometheus import parse_prometheus_text
from repro.serving import (
    InferenceService,
    ModelRegistry,
    parse_predict_payload,
    serve_http,
)
from repro.serving.httpd import (
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    _BadRequest,
    _parse_request,
)

_TOKEN = st.from_regex(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]{1,12}", fullmatch=True)
_FRAMING = ("content-length", "transfer-encoding")


@st.composite
def _requests(draw):
    """The bytes of one well-formed request, body framed by Content-Length."""
    method = draw(st.sampled_from(["GET", "POST", "PUT", "DELETE"]))
    path = draw(st.from_regex(r"/[a-z0-9/._-]{0,16}", fullmatch=True))
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0"]))
    fields = draw(st.lists(st.tuples(
        _TOKEN.filter(lambda name: name.lower() not in _FRAMING),
        st.from_regex(r"([!-~]([ !-~]{0,14}[!-~])?)?", fullmatch=True)),
        max_size=4))
    body = draw(st.binary(max_size=64))
    if body or draw(st.booleans()):
        fields.append(("Content-Length", str(len(body))))
    head = "".join(f"{name}: {value}\r\n" for name, value in fields)
    raw = f"{method} {path} {version}\r\n{head}\r\n".encode("latin-1")
    return raw + body


# Fragments that steer arbitrary bytes into the parser's deeper branches.
_FRAGMENTS = st.one_of(
    st.binary(max_size=6),
    st.sampled_from([b"\r\n", b"\r\n\r\n", b"GET / HTTP/1.1", b"HTTP/1.0",
                     b"Content-Length:", b"Transfer-Encoding:",
                     b"Connection: close", b":", b" ", b"\t", b"0", b"7",
                     b"-1", b"+3", b"1_0", b"\xb2"]))


def _pop_all(buf: bytearray) -> list:
    popped = []
    while (request := _parse_request(buf)) is not None:
        popped.append(request)
    return popped


@pytest.fixture(scope="module")
def graph():
    return load_dataset("cora_ml", scale=0.06, seed=0)


@pytest.fixture(scope="module")
def model(graph):
    config = GCONConfig(epsilon=2.0, alpha=0.8, encoder_epochs=20,
                        encoder_dim=8, encoder_hidden=16)
    return GCON(config).fit(graph, seed=7)


@pytest.fixture()
def service(tmp_path, model, graph):
    registry = ModelRegistry(tmp_path / "reg")
    registry.publish(model, "demo", inference_mode="private",
                     training={"dataset": "cora_ml", "scale": 0.06,
                               "graph_seed": 0})
    return InferenceService(registry, graph=graph)


@pytest.fixture()
def server(service):
    server = serve_http(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    service.close()


def _raw(server, payload: bytes, *, reads: int = 1) -> list[bytes]:
    """One blocking socket conversation: send bytes, read ``reads`` responses."""
    port = server.server_address[1]
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        sock.sendall(payload)
        responses, buf = [], b""
        while len(responses) < reads:
            chunk = sock.recv(65536)
            if not chunk:
                break
            buf += chunk
            while True:
                split = _split_one_response(buf)
                if split is None:
                    break
                response, buf = split
                responses.append(response)
        return responses


def _split_one_response(buf: bytes):
    head_end = buf.find(b"\r\n\r\n")
    if head_end < 0:
        return None
    head = buf[:head_end].decode("latin-1")
    length = 0
    for line in head.split("\r\n")[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    total = head_end + 4 + length
    if len(buf) < total:
        return None
    return buf[:total], buf[total:]


def _status(response: bytes) -> int:
    return int(response.split(b" ", 2)[1])


def _body(response: bytes) -> dict:
    return json.loads(response.split(b"\r\n\r\n", 1)[1])


class TestParseRequest:
    def test_incomplete_returns_none_and_consumes_nothing(self):
        buf = bytearray(b"GET /healthz HTTP/1.1\r\nHost: x")
        assert _parse_request(buf) is None
        assert bytes(buf).startswith(b"GET")

    def test_complete_request_is_popped_from_buffer(self):
        buf = bytearray(b"POST /v1/predict HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}"
                        b"GET /stats HTTP/1.1\r\n\r\n")
        method, path, headers, body, keep_alive = _parse_request(buf)
        assert (method, path, body, keep_alive) == ("POST", "/v1/predict",
                                                    b"{}", True)
        method, path, _headers, body, _ka = _parse_request(buf)
        assert (method, path, body) == ("GET", "/stats", b"")
        assert not buf

    def test_keep_alive_defaults_by_version(self):
        http11 = bytearray(b"GET / HTTP/1.1\r\n\r\n")
        assert _parse_request(http11)[4] is True
        closing = bytearray(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert _parse_request(closing)[4] is False
        http10 = bytearray(b"GET / HTTP/1.0\r\n\r\n")
        assert _parse_request(http10)[4] is False

    @pytest.mark.parametrize("raw", [
        b"NONSENSE\r\n\r\n",
        b"GET /x HTTP/1.1\r\nBroken-Header-No-Colon\r\n\r\n",
        b"GET /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
        b"GET /x HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        # Read as 10, 3 and 3 before: int() takes "_" and "+", and
        # str.strip() a form feed.
        b"POST /x HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n0123456789",
        b"POST /x HTTP/1.1\r\nContent-Length: +3\r\n\r\nabc",
        b"POST /x HTTP/1.1\r\nContent-Length: \x0c3\r\n\r\nabc",
        # More digits than int() converts from text.
        pytest.param(b"POST /x HTTP/1.1\r\nContent-Length: " + b"9" * 5000
                     + b"\r\n\r\n", id="content-length-5000-digits"),
        # RFC 9112 §6.3: differing lengths leave the framing ambiguous.
        b"POST /x HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 5"
        b"\r\n\r\nabcde",
        # RFC 9112 §5.1: no whitespace between field name and colon, nor
        # before the name (obsolete line folding).
        b"POST /x HTTP/1.1\r\nContent-Length : 3\r\n\r\nabc",
        b"GET /x HTTP/1.1\r\n X-Folded: y\r\n\r\n",
        # No transfer coding is decoded, so none is accepted.
        b"POST /x HTTP/1.1\r\nTransfer-Encoding: gzip\r\n"
        b"Content-Length: 3\r\n\r\nabc",
    ])
    def test_malformed_framing_raises_bad_request(self, raw):
        with pytest.raises(_BadRequest):
            _parse_request(bytearray(raw))

    @pytest.mark.parametrize("name", [b"content-length", b"CONTENT-LENGTH",
                                      b"cOnTeNt-LeNgTh"])
    def test_field_names_are_case_insensitive(self, name):
        buf = bytearray(b"POST /x HTTP/1.1\r\n" + name + b": 3\r\n\r\nabcGET")
        _method, _path, headers, body, _ka = _parse_request(buf)
        assert (headers["content-length"], body) == ("3", b"abc")
        assert buf == b"GET"

    def test_field_values_lose_surrounding_blanks_and_tabs(self):
        buf = bytearray(b"POST /x HTTP/1.1\r\nContent-Length: \t3 \t\r\n"
                        b"X-Note:  two  words\t\r\n\r\nabc")
        _method, _path, headers, body, _ka = _parse_request(buf)
        assert body == b"abc"
        assert headers["x-note"] == "two  words"

    def test_query_string_is_dropped_from_the_path(self):
        buf = bytearray(b"GET /debug/traces?limit=3&x=y HTTP/1.1\r\n\r\n")
        assert _parse_request(buf)[1] == "/debug/traces"

    def test_partial_body_waits_and_keeps_the_buffer(self):
        raw = b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nabc"
        buf = bytearray(raw)
        assert _parse_request(buf) is None
        assert buf == raw
        buf += b"de"
        assert _parse_request(buf)[3] == b"abcde"

    def test_connection_tokens_are_case_insensitive(self):
        http10 = bytearray(b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")
        assert _parse_request(http10)[4] is True
        http11 = bytearray(b"GET / HTTP/1.1\r\nConnection: CLOSE\r\n\r\n")
        assert _parse_request(http11)[4] is False

    def test_body_over_the_limit_is_413_before_it_arrives(self):
        head = b"POST /x HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
        assert _parse_request(bytearray(head % MAX_BODY_BYTES)) is None
        with pytest.raises(_BadRequest) as excinfo:
            _parse_request(bytearray(head % (MAX_BODY_BYTES + 1)))
        assert excinfo.value.status == 413

    def test_head_at_the_limit_is_accepted(self):
        """``MAX_HEADER_BYTES`` counts the head with its blank line; one
        byte more is a 431."""
        start = b"GET / HTTP/1.1\r\nX-Pad: "
        pad = MAX_HEADER_BYTES - len(start) - len(b"\r\n\r\n")
        head = start + b"a" * pad + b"\r\n\r\n"
        assert len(head) == MAX_HEADER_BYTES
        assert _parse_request(bytearray(head))[0] == "GET"
        with pytest.raises(_BadRequest) as excinfo:
            _parse_request(bytearray(start + b"a" * (pad + 1) + b"\r\n\r\n"))
        assert excinfo.value.status == 431

    def test_repeated_equal_content_length_is_one_length(self):
        buf = bytearray(b"POST /x HTTP/1.1\r\nContent-Length: 3\r\n"
                        b"Content-Length: 3\r\n\r\nabc")
        assert _parse_request(buf)[3] == b"abc"

    def test_oversized_header_rejected(self):
        with pytest.raises(_BadRequest) as excinfo:
            _parse_request(bytearray(b"GET /" + b"a" * 40000))
        assert excinfo.value.status == 431
        # Complete, too: the bound does not depend on how the head arrived.
        complete = (b"GET / HTTP/1.1\r\nX-Big: " + b"a" * MAX_HEADER_BYTES
                    + b"\r\n\r\n")
        with pytest.raises(_BadRequest) as excinfo:
            _parse_request(bytearray(complete))
        assert excinfo.value.status == 431

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_requests(), min_size=1, max_size=4), st.data())
    def test_chunked_feeding_pops_the_same_requests(self, requests, data):
        """Pipelined well-formed requests pop the same tuples whether the
        bytes arrive whole or split at arbitrary offsets."""
        stream = b"".join(requests)
        whole = _pop_all(bytearray(stream))
        assert len(whole) == len(requests)
        cuts = sorted(data.draw(st.lists(
            st.integers(min_value=0, max_value=len(stream)), max_size=8)))
        buf, popped = bytearray(), []
        for start, end in zip([0, *cuts], [*cuts, len(stream)]):
            buf += stream[start:end]
            popped += _pop_all(buf)
        assert popped == whole
        assert not buf

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_FRAGMENTS, max_size=24))
    def test_arbitrary_bytes_pop_wait_or_reject(self, fragments):
        """Any input pops requests, waits for more, or raises _BadRequest;
        no other exception escapes the parser."""
        buf = bytearray(b"".join(fragments))
        try:
            for request in _pop_all(buf):
                assert len(request) == 5
        except _BadRequest as error:
            assert error.status in (400, 413, 431)


class TestPredictPayloadValidation:
    """Every malformed payload is a ConfigurationError (→ 400), never a 500."""

    @pytest.mark.parametrize("payload", [
        ["not", "a", "dict"],
        {},
        {"model": 7, "nodes": [0]},
        {"model": "demo"},
        {"model": "demo", "nodes": []},
        {"model": "demo", "nodes": [0, "one"]},
        {"model": "demo", "nodes": [0, 1.5]},
        {"model": "demo", "nodes": [True]},
        {"model": "demo", "nodes": [2 ** 63]},   # overflows int64 -> 400, not 500
        {"model": "demo", "nodes": [-(2 ** 63) - 1]},
        {"model": "demo", "nodes": [0], "mode": 3},
        {"model": "demo", "nodes": [0], "top_k": 0},
        {"model": "demo", "nodes": [0], "top_k": "two"},
        {"model": "demo", "nodes": [0], "top_k": True},
    ])
    def test_malformed_payloads_rejected(self, payload):
        with pytest.raises(ConfigurationError):
            parse_predict_payload(payload)

    def test_valid_payload_parses(self):
        request = parse_predict_payload(
            {"model": "demo@latest", "nodes": [0, 3], "top_k": 2,
             "proba": True})
        assert request.ref == "demo@latest"
        assert request.nodes == [0, 3]
        assert request.top_k == 2
        assert request.proba is True
        assert request.mode is None


class TestHttpFraming:
    def test_malformed_json_body_is_400_with_message(self, server):
        responses = _raw(server,
                         b"POST /v1/predict HTTP/1.1\r\n"
                         b"Content-Length: 9\r\n\r\n{not json")
        assert _status(responses[0]) == 400
        assert "JSON" in _body(responses[0])["error"]

    def test_non_integer_nodes_are_400_not_500(self, server):
        body = json.dumps({"model": "demo", "nodes": [0, 2.5]}).encode()
        responses = _raw(server,
                         b"POST /v1/predict HTTP/1.1\r\n"
                         b"Content-Length: %d\r\n\r\n%s" % (len(body), body))
        assert _status(responses[0]) == 400
        assert "non-empty list of integers" in _body(responses[0])["error"]

    def test_overflowing_node_index_is_400_not_500(self, server):
        body = json.dumps({"model": "demo", "nodes": [2 ** 80]}).encode()
        responses = _raw(server,
                         b"POST /v1/predict HTTP/1.1\r\n"
                         b"Content-Length: %d\r\n\r\n%s" % (len(body), body))
        assert _status(responses[0]) == 400
        assert "64-bit" in _body(responses[0])["error"]

    def test_keep_alive_serves_many_requests_on_one_connection(self, server):
        body = json.dumps({"model": "demo", "nodes": [0, 1]}).encode()
        request = (b"POST /v1/predict HTTP/1.1\r\n"
                   b"Content-Length: %d\r\n\r\n%s" % (len(body), body))
        responses = _raw(server, request * 3 + b"GET /stats HTTP/1.1\r\n\r\n",
                         reads=4)
        assert len(responses) == 4
        assert all(_status(r) == 200 for r in responses)
        assert b"Connection: keep-alive" in responses[0]
        predictions = [_body(r) for r in responses[:3]]
        assert all(p["labels"] == predictions[0]["labels"]
                   for p in predictions)
        assert _body(responses[3])["batcher"]["requests"] >= 3

    def test_connection_close_is_honoured(self, server):
        responses = _raw(server, b"GET /healthz HTTP/1.1\r\n"
                                 b"Connection: close\r\n\r\n")
        assert _status(responses[0]) == 200
        assert b"Connection: close" in responses[0]

    def test_unknown_method_is_405(self, server):
        responses = _raw(server, b"DELETE /stats HTTP/1.1\r\n\r\n")
        assert _status(responses[0]) == 405

    def test_malformed_request_line_is_400_and_closes(self, server):
        responses = _raw(server, b"GARBAGE\r\n\r\n")
        assert _status(responses[0]) == 400
        assert b"Connection: close" in responses[0]

    @pytest.mark.parametrize("raw", [
        b"POST /v1/predict HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n",
        b"POST /v1/predict HTTP/1.1\r\nContent-Length : 2\r\n\r\n",
        b"POST /v1/predict HTTP/1.1\r\nTransfer-Encoding: gzip\r\n"
        b"Content-Length: 2\r\n\r\n",
    ])
    def test_ambiguous_framing_is_400_and_closes(self, server, raw):
        """The connection closes on the 400, so bytes after a head whose
        framing was refused are never read as the next request."""
        responses = _raw(server, raw + b"{}GET /healthz HTTP/1.1\r\n\r\n",
                         reads=2)
        assert len(responses) == 1
        assert _status(responses[0]) == 400
        assert b"Connection: close" in responses[0]

    def test_complete_oversized_head_is_431(self, server):
        responses = _raw(server, b"GET /healthz HTTP/1.1\r\nX-Big: "
                         + b"a" * MAX_HEADER_BYTES + b"\r\n\r\n")
        assert _status(responses[0]) == 431

    def test_retired_alerts_endpoint_is_404(self, server):
        responses = _raw(server, b"GET /alerts HTTP/1.1\r\n"
                                 b"Connection: close\r\n\r\n")
        assert _status(responses[0]) == 404

    def test_retired_fleet_endpoint_is_404(self, server):
        responses = _raw(server, b"GET /fleet HTTP/1.1\r\n"
                                 b"Connection: close\r\n\r\n")
        assert _status(responses[0]) == 404


def _predict_request(body: dict, *extra_headers: bytes) -> bytes:
    data = json.dumps(body).encode()
    return (b"POST /v1/predict HTTP/1.1\r\n" + b"".join(extra_headers)
            + b"Content-Length: %d\r\nConnection: close\r\n\r\n%s"
            % (len(data), data))


def _await_line(stream: io.StringIO, pattern: str,
                timeout: float = 10.0) -> str:
    """The first line of ``stream`` matching ``pattern`` in full, waiting
    up to ``timeout`` seconds for the server thread to write it."""
    deadline = time.monotonic() + timeout
    while True:
        for line in stream.getvalue().splitlines():
            if re.fullmatch(pattern, line):
                return line
        assert time.monotonic() < deadline, \
            f"no line matched {pattern!r}; last written: " \
            f"{stream.getvalue()[-300:]!r}"
        time.sleep(0.01)


class TestOneProcess:
    """Every request is answered by the process that took it: nothing is
    routed on, and no routing state is reported."""

    def test_a_request_marked_as_forwarded_is_served_here(self, server,
                                                         model, graph):
        nodes = [0, 3, 7]
        (response,) = _raw(server, _predict_request(
            {"model": "demo", "nodes": nodes}, b"X-Fleet-Forwarded: 1\r\n"))
        assert _status(response) == 200
        offline = model.decision_scores(graph, mode="private")[nodes]
        assert np.array_equal(np.asarray(_body(response)["scores"]), offline)

    def test_metrics_export_connection_gauges_and_no_routing_counters(
            self, server):
        (response,) = _raw(server, b"GET /metrics HTTP/1.1\r\n"
                                   b"Connection: close\r\n\r\n")
        text = response.split(b"\r\n\r\n", 1)[1].decode()
        names = {name for name, _labels, _value
                 in parse_prometheus_text(text)}
        assert {"repro_open_connections", "repro_parked_requests"} <= names
        assert not [name for name in names if "fleet" in name]

    def test_stats_line_names_each_model_and_the_shed_count(self, service):
        stream = io.StringIO()
        server = serve_http(service, port=0, log_stream=stream,
                            stats_interval=0.05)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            _await_line(stream, r"\[serve\] stats: no traffic yet \| shed=0")
            (response,) = _raw(server, _predict_request(
                {"model": "demo", "nodes": [1]}))
            assert _status(response) == 200
            _await_line(stream, r"\[serve\] stats: demo@[0-9a-f]+:\S+: n=1 "
                                r"p50=[0-9.]+ms p95=[0-9.]+ms p99=[0-9.]+ms "
                                r"\| shed=0")
        finally:
            server.shutdown()
            server.server_close()
            service.close()


class TestConnectionBounds:
    def test_excess_connections_get_503(self, service):
        server = serve_http(service, port=0, max_connections=1)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        port = server.server_address[1]
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=5.0) as first:
                # Make sure the first connection is registered by the loop.
                first.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
                assert first.recv(65536)
                with socket.create_connection(("127.0.0.1", port),
                                              timeout=5.0) as second:
                    data = second.recv(65536)
                    assert b"503" in data.split(b"\r\n", 1)[0]
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_shutdown_drains_inflight_requests(self, service):
        server = serve_http(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        port = server.server_address[1]
        try:
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/v1/predict",
                data=json.dumps({"model": "demo", "nodes": [0]}).encode(),
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=10.0) as response:
                assert response.status == 200
        finally:
            server.shutdown()
            server.server_close()
            service.close()
        assert not thread.is_alive() or thread.join(5.0) is None
