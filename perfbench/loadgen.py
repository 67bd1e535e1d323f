"""Load generation against a ``repro serve`` process.

* :class:`ServerProcess` launches ``repro serve`` through the launcher,
  times its set-up (launch to the readiness line on stderr), reads its peak
  resident set from ``/proc`` and stops it with SIGINT so that exit
  handlers (the span dump) run.
* :class:`Connection` is a minimal keep-alive HTTP/1.1 client on a raw
  socket: requests are pre-rendered bytes, responses are framed by
  ``Content-Length``.  It keeps the generator's own CPU cost per request
  small, which matters on a machine whose cores the server shares.
* :func:`closed_loop` drives any number of connections from one thread:
  each connection sends its next request as soon as the previous answer
  arrives.  :func:`mixed_loop` adds an open-loop writer beside one
  closed-loop reader: the writer's requests fall due on a fixed schedule and
  each is timed from its due time, so a stall also delays the ones behind it.
"""

from __future__ import annotations

import json
import os
import re
import selectors
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path

_READY = re.compile(r"^serving .* on http://([^:]+):(\d+) ")


def request_bytes(method: str, path: str, payload=None) -> bytes:
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    head = (f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n")
    return head.encode("latin-1") + body


class Connection:
    """One keep-alive connection with at most one request in flight."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = bytearray()
        self.sent_at = 0
        self.context = None  # whatever the driver wants back with the answer

    def send(self, data: bytes, context=None) -> None:
        self.context = context
        self.sent_at = time.monotonic_ns()
        self.sock.sendall(data)

    def receive(self):
        """Read what has arrived; ``(status, body)`` once an answer is whole."""
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise ConnectionError("the server closed the connection")
        self.buffer += chunk
        return self._pop()

    def _pop(self):
        head_end = self.buffer.find(b"\r\n\r\n")
        if head_end < 0:
            return None
        head = bytes(self.buffer[:head_end]).decode("latin-1")
        length = 0
        for line in head.split("\r\n")[1:]:
            name, _sep, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        end = head_end + 4 + length
        if len(self.buffer) < end:
            return None
        status = int(head.split(" ", 2)[1])
        body = bytes(self.buffer[head_end + 4:end])
        del self.buffer[:end]
        return status, body

    def request(self, data: bytes):
        """Send and block for the answer."""
        self.send(data)
        while True:
            answer = self._pop() or self.receive()
            if answer is not None:
                return answer

    def close(self) -> None:
        self.sock.close()


class ServerProcess:
    """A ``repro serve`` child process started through the launcher."""

    def __init__(self, root: Path, registry: Path, ref: str, *,
                 spans: Path | None = None, timeout: float = 150.0):
        command = [sys.executable, str(root / "perfbench" / "launch.py")]
        if spans is not None:
            command += ["--spans", str(spans)]
        command += ["--", "serve", "--registry", str(registry), "--model", ref,
                    "--port", "0", "--quiet"]
        started = time.monotonic()
        self.process = subprocess.Popen(command, cwd=root,
                                        stdout=subprocess.DEVNULL,
                                        stderr=subprocess.PIPE, text=True)
        self.log: deque = deque(maxlen=50)
        self.port = None
        deadline = started + timeout
        while self.port is None:
            line = self.process.stderr.readline()
            if not line or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("repro serve did not become ready:\n"
                                   + "".join(self.log))
            self.log.append(line)
            match = _READY.match(line)
            if match:
                self.port = int(match.group(2))
        self.setup_s = time.monotonic() - started
        self._drain = threading.Thread(target=self._drain_stderr, daemon=True)
        self._drain.start()

    def _drain_stderr(self) -> None:
        for line in self.process.stderr:
            self.log.append(line)

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        kib = int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1))
        return kib / 1024.0

    def stop(self) -> int:
        """SIGINT (the server's clean shutdown), then SIGKILL if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if getattr(self, "_drain", None) is not None:
            self._drain.join(timeout=10)
        self.process.stderr.close()
        return self.process.returncode


def closed_loop(connections, next_request, until_ns: int, on_answer) -> None:
    """Keep one request in flight per connection until ``until_ns``.

    ``next_request(connection) -> (bytes, context)``; ``on_answer(connection,
    status, body, sent_ns, done_ns)`` sees every answer, including those of
    requests still in flight when the window closes.
    """
    selector = selectors.DefaultSelector()
    for connection in connections:
        selector.register(connection.sock, selectors.EVENT_READ, connection)
        connection.send(*next_request(connection))
    busy = len(connections)
    while busy:
        events = selector.select(timeout=60)
        if not events:
            raise TimeoutError("no answer from the server for 60 s")
        for key, _mask in events:
            connection = key.data
            answer = connection.receive()
            while answer is not None:
                done = time.monotonic_ns()
                on_answer(connection, answer[0], answer[1], connection.sent_at,
                          done)
                if done < until_ns:
                    connection.send(*next_request(connection))
                else:
                    busy -= 1
                    selector.unregister(connection.sock)
                    break
                answer = connection._pop()
    selector.close()


def mixed_loop(reader: Connection, next_read, on_read, writer: Connection,
               updates, start_ns: int, interval_ns: int, until_ns: int,
               on_update) -> None:
    """A closed-loop reader beside an open-loop writer.

    Update ``k`` of ``updates`` falls due at ``start_ns + k * interval_ns``
    while due before ``until_ns``; it is sent when due, or as soon as the
    previous update has been answered if that is later.
    ``on_update(index, status, body, due_ns, sent_ns, done_ns)``.
    """
    selector = selectors.DefaultSelector()
    selector.register(reader.sock, selectors.EVENT_READ, reader)
    selector.register(writer.sock, selectors.EVENT_READ, writer)
    reader.send(*next_read(reader))
    reading = True
    index = 0
    in_flight = None  # (index, due) of the update on the wire

    def due(k: int) -> int:
        return start_ns + k * interval_ns

    while reading or in_flight is not None or (
            index < len(updates) and due(index) < until_ns):
        now = time.monotonic_ns()
        if in_flight is None and index < len(updates) \
                and due(index) < until_ns and now >= due(index):
            writer.send(updates[index])
            in_flight = (index, due(index))
            index += 1
        wait_ns = 60_000_000_000
        if in_flight is None and index < len(updates) and due(index) < until_ns:
            wait_ns = max(0, due(index) - time.monotonic_ns())
        if not reading and in_flight is None and wait_ns >= 60_000_000_000:
            break
        events = selector.select(timeout=wait_ns / 1e9)
        if not events and wait_ns >= 60_000_000_000:
            raise TimeoutError("no answer from the server for 60 s")
        for key, _mask in events:
            connection = key.data
            answer = connection.receive()
            while answer is not None:
                done = time.monotonic_ns()
                if connection is writer:
                    k, due_ns = in_flight
                    on_update(k, answer[0], answer[1], due_ns, writer.sent_at,
                              done)
                    in_flight = None
                    break
                on_read(reader, answer[0], answer[1], reader.sent_at, done)
                if done < until_ns:
                    reader.send(*next_read(reader))
                else:
                    reading = False
                    break
                answer = connection._pop()
    selector.close()


def wait_peak_rss(process: subprocess.Popen) -> tuple[int, float]:
    """Wait for ``process``; its exit code and the peak resident set in MB of
    it and every descendant it waited for (``ru_maxrss`` from ``wait4``)."""
    _pid, status, usage = os.wait4(process.pid, 0)
    process.returncode = os.waitstatus_to_exitcode(status)
    return process.returncode, usage.ru_maxrss / 1024.0
