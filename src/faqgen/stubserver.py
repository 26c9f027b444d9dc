"""HTTP server exposing the deterministic stub backends over the wire protocol.

POST /v1/domain           {"context": s}                                    -> {"domain": s}
POST /v1/questions        {"context": s, "domain": s, "cap": n}             -> {"questions": [s, ...]}
POST /v1/answer_phrase    {"context": s, "question": s}                     -> {"answer_phrase": s}
POST /v1/complete_answer  {"context": s, "question": s, "answer_phrase": s} -> {"answer": s}
GET  /v1/health                                                             -> {"status": "ok"}

Each POST is answered by the same stub handler the gateway calls in-process
(``gateway.STUB_HANDLERS``), which reads the request's context only as far
as its step needs. Heads are read by the gateway's ``read_head``. Statuses:
400 for a malformed request line or header line, or a body not framed by
one ``Content-Length`` of ASCII digits; 404 for an unknown path; 413 for a
declared body over ``MAX_BODY_BYTES``, which is not read; 414 and 431 for a
request line or header line over 64 KiB, 431 for over 100 headers; 422 for
an invalid body, or one whose reply would echo a lone surrogate; 501 for a
method other than GET and POST; 505 for HTTP/2 or later. Every reply has an
HTTP/1.1 status line and a JSON body, {"error": s} unless it is a 200, and
is a pure function of the request. A connection stays open for the next
request, except after a reply to an HTTP/1.0 request without ``Connection:
keep-alive``, to one with ``Connection: close``, or to one whose body was
not read. ``Expect: 100-continue`` gets ``100 Continue`` before the body is
read. A client that goes away, or sends no whole request head and body
within ``REQUEST_SECONDS``, ends only its own connection, with no reply.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import socket
import socketserver
import sys
import time
from email.utils import formatdate
from functools import lru_cache
from http import HTTPStatus

from .gateway import (
    MAX_BODY_BYTES,  # the bound of a request body, kept importable from here
    STUB_HANDLERS,
    ProtocolError,
    RequestRejected,
    SocketReader,
    body_length,
    read_head,
)

_ROUTES = {f"/v1/{step}": handler for step, handler in STUB_HANDLERS.items()}

REQUEST_SECONDS = 30.0  # to send a request's head and body, idle time included

_VERSION = re.compile(r"HTTP/(\d{1,10})\.(\d{1,10})", re.ASCII)


class BindFailure(OSError):
    """The requested bind address could not be acquired."""


class StubBackendServer(socketserver.ThreadingTCPServer):
    """The stub backend, bound to *address* (host, port) when constructed."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int]):
        try:
            super().__init__(address, _StubHandler)
        except OSError as exc:
            raise BindFailure(f"cannot bind {address[0]}:{address[1]}: {exc}") from exc

    def handle_error(self, request, client_address) -> None:
        # A client gone, or too slow to send a request, ends only its connection.
        if not isinstance(sys.exc_info()[1], (ConnectionError, TimeoutError)):
            super().handle_error(request, client_address)


@lru_cache(maxsize=1)
def _date(second: int) -> str:
    """A Date header's value: one call per second of ``time.time()``."""
    return formatdate(second, usegmt=True)


def _request_line(line: str) -> tuple[str, str, bool]:
    """A request's method and target, and whether it is HTTP/1.1 or later."""
    words = line.split()
    version = _VERSION.fullmatch(words[-1]) if len(words) >= 3 else None
    if version and int(version[1]) >= 2:
        raise ProtocolError(f"HTTP version not supported: {words[-1]}", 505)
    if len(words) != 3 or not version or version[1] != "1":
        raise ProtocolError("request line is not: method, target, HTTP/1.x")
    return words[0], words[1], int(version[2]) >= 1


class _StubHandler(socketserver.BaseRequestHandler):
    """Answers the requests of one connection in turn, each reply in one
    write with Nagle off, so no reply waits for the client's delayed ACK."""

    def handle(self) -> None:
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = io.BufferedReader(SocketReader(self.request))
        try:
            while self._answer():
                pass
        except ProtocolError as refusal:
            self._send(refusal.status, {"error": str(refusal)}, close=True)

    def _answer(self) -> bool:
        """Read one request and reply to it; whether the connection stays open."""
        self.rfile.raw.deadline = time.monotonic() + REQUEST_SECONDS
        (method, path, http11), headers = read_head(self.rfile, _request_line)
        path = "/" + path.lstrip("/") if path.startswith("//") else path
        connection = headers.get("connection", "").lower()
        keep_open = connection == "keep-alive" or (http11 and connection != "close")
        if (method, path) == ("GET", "/v1/health"):
            # A GET's body, if it declares one, is never read.
            return self._send(200, {"status": "ok"}, close=True)
        if method not in ("GET", "POST"):
            raise ProtocolError(f"unsupported method: {method}", 501)
        handler = _ROUTES.get(path) if method == "POST" else None
        if handler is None:
            raise ProtocolError(f"no such endpoint: {path}", 404)
        # One Content-Length (``body_length``): two lengths, or a length and
        # chunks, would frame the body two ways.
        if "transfer-encoding" in headers:
            raise ProtocolError("a body needs one Content-Length of ASCII digits")
        length = body_length(headers.get("content-length", "0"))
        if http11 and headers.get("expect", "").lower() == "100-continue":
            # Sent at once: the client holds the body back until it arrives.
            self.request.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        try:
            body = json.loads(self.rfile.read(length).decode("utf-8") or "null")
            if not isinstance(body, dict):
                raise RequestRejected("request body must be a JSON object")
            status, payload = 200, handler(body, None, None)
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError):
            status, payload = 422, {"error": "request body is not valid JSON"}
        except RequestRejected as exc:
            status, payload = 422, {"error": str(exc)}
        return self._send(status, payload, close=not keep_open)

    def _send(self, status: int, payload: dict, close: bool) -> bool:
        """Send one reply in one write; whether the connection stays open."""
        try:
            data = json.dumps(payload, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError:
            # The reply holds a lone surrogate (JSON "\ud800") from the request.
            status, data = 422, b'{"error": "request body holds a lone surrogate"}'
        head = (
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
            f"Date: {_date(int(time.time()))}\r\n"
            "Content-Type: application/json; charset=utf-8\r\n"
            f"Content-Length: {len(data)}\r\n"
            + ("Connection: close\r\n\r\n" if close else "\r\n")
        )
        self.request.sendall(head.encode("ascii") + data)
        return not close


def serve_stub(host: str, port: int) -> None:
    """Run the stub backend on (host, port) until interrupted, printing the
    bound address (with the port the OS chose for port 0) once it is bound."""
    with StubBackendServer((host, port)) as server:
        bound_host, bound_port = server.server_address[:2]
        print(f"stub backend listening on {bound_host}:{bound_port}", flush=True)
        with contextlib.suppress(KeyboardInterrupt):
            server.serve_forever()
