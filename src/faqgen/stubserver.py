"""HTTP server exposing the deterministic stub backends over the wire protocol.

POST /v1/domain           {"context": s}                                    -> {"domain": s}
POST /v1/questions        {"context": s, "domain": s, "cap": n}             -> {"questions": [s, ...]}
POST /v1/answer_phrase    {"context": s, "question": s}                     -> {"answer_phrase": s}
POST /v1/complete_answer  {"context": s, "question": s, "answer_phrase": s} -> {"answer": s}
GET  /v1/health                                                             -> {"status": "ok"}

Each POST is answered by the same stub handler the gateway calls in-process
(``gateway.STUB_HANDLERS``), which reads the request's context only as far
as its step needs; this module reads the HTTP/1.1 framing itself, routes and
sets status codes: 400 for a malformed request line or header line, or a
body not framed by one ``Content-Length`` of ASCII digits; 404 for an unknown
path; 413 for a declared body over ``MAX_BODY_BYTES``, which is not read; 414
and 431 for a request line or header line over 64 KiB, and 431 for more than
100 headers; 422 for an invalid body, or one whose reply would echo a lone
surrogate, which UTF-8 cannot encode; 501 for a method other than GET and
POST; 505 for HTTP/2 or later. Every reply has an HTTP/1.1 status line and a
JSON body, {"error": s} unless it is a 200, and is a pure function of the
request. A connection stays open for the next request, except after a reply
to an HTTP/1.0 request without ``Connection: keep-alive``, to one with
``Connection: close``, or to one whose body was not read. ``Expect:
100-continue`` gets ``100 Continue`` before the body is read. A client that
goes away before its reply is sent ends only its own connection.
"""

from __future__ import annotations

import contextlib
import json
import re
import socketserver
import sys
from email.utils import formatdate
from http import HTTPStatus

from .gateway import STUB_HANDLERS, RequestRejected

_ROUTES = {f"/v1/{step}": handler for step, handler in STUB_HANDLERS.items()}

MAX_BODY_BYTES = 16 * 1024 * 1024
MAX_LINE_BYTES = 64 * 1024
MAX_HEADERS = 100

_VERSION = re.compile(r"HTTP/(\d{1,10})\.(\d{1,10})", re.ASCII)


class BindFailure(OSError):
    """The requested bind address could not be acquired."""


class _Refused(Exception):
    """A request refused with (status, message); its body is not read."""


class StubBackendServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int]):
        try:
            super().__init__(address, _StubHandler)
        except OSError as exc:
            raise BindFailure(f"cannot bind {address[0]}:{address[1]}: {exc}") from exc

    def handle_error(self, request, client_address) -> None:
        # A client that went away before its reply was sent ends only its
        # own connection; anything else still prints its traceback.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


class _StubHandler(socketserver.StreamRequestHandler):
    """Answers the requests of one connection in turn, each reply in one
    write, so no reply waits for the client's delayed ACK (Nagle)."""

    disable_nagle_algorithm = True

    def handle(self) -> None:
        try:
            while self._answer():
                pass
        except _Refused as refusal:
            self._send(refusal.args[0], {"error": refusal.args[1]}, close=True)

    def _line(self, status: int, what: str) -> bytes:
        line = self.rfile.readline(MAX_LINE_BYTES + 1)
        if len(line) > MAX_LINE_BYTES:
            raise _Refused(status, f"{what} over {MAX_LINE_BYTES} bytes")
        return line

    def _answer(self) -> bool:
        """Read one request and reply to it; whether the connection stays open."""
        line = self._line(414, "request line")
        if not line:
            return False
        words = str(line, "latin-1").split()
        version = _VERSION.fullmatch(words[-1]) if len(words) >= 3 else None
        if version and int(version[1]) >= 2:
            raise _Refused(505, f"HTTP version not supported: {words[-1]}")
        if len(words) != 3 or not version or version[1] != "1":
            raise _Refused(400, "request line is not: method, target, HTTP/1.x")
        headers: dict[str, str] = {}
        for _ in range(MAX_HEADERS + 1):
            line = self._line(431, "header line")
            if line in (b"\r\n", b"\n", b""):
                break
            name, colon, value = str(line, "latin-1").partition(":")
            if not colon or not name or name != name.strip():
                raise _Refused(400, "header line is not: name, ':', value")
            name, value = name.lower(), value.strip(" \t\r\n")
            # A repeated header's values are joined: two lengths are no number.
            headers[name] = f"{headers[name]}, {value}" if name in headers else value
        else:
            raise _Refused(431, f"more than {MAX_HEADERS} headers")
        method, path = words[0], words[1]
        path = "/" + path.lstrip("/") if path.startswith("//") else path
        http11 = int(version[2]) >= 1
        connection = headers.get("connection", "").lower()
        keep_open = connection == "keep-alive" or (http11 and connection != "close")
        if method == "GET":
            # A GET's body, if it declares one, is never read.
            if path != "/v1/health":
                raise _Refused(404, f"no such endpoint: {path}")
            return self._send(200, {"status": "ok"}, close=True)
        if method != "POST":
            raise _Refused(501, f"unsupported method: {method}")
        handler = _ROUTES.get(path)
        if handler is None:
            raise _Refused(404, f"no such endpoint: {path}")
        # One Content-Length of ASCII digits: int() would also take "+2" and
        # "1_0", and two lengths would frame the body two ways.
        length = headers.get("content-length", "0")
        if not (length.isascii() and length.isdigit()) or "transfer-encoding" in headers:
            raise _Refused(400, "a body needs one Content-Length of ASCII digits")
        if int(length) > MAX_BODY_BYTES:
            raise _Refused(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        if http11 and headers.get("expect", "").lower() == "100-continue":
            # Sent at once: the client holds the body back until it arrives.
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        try:
            body = json.loads(self.rfile.read(int(length)).decode("utf-8") or "null")
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
            f"Date: {formatdate(usegmt=True)}\r\n"
            "Content-Type: application/json; charset=utf-8\r\n"
            f"Content-Length: {len(data)}\r\n"
            + ("Connection: close\r\n\r\n" if close else "\r\n")
        )
        self.wfile.write(head.encode("ascii") + data)
        return not close


def create_server(host: str, port: int) -> StubBackendServer:
    """Build a ready-to-serve stub backend bound to (host, port), answering
    with the packaged lexicon."""
    return StubBackendServer((host, port))


def serve_stub(host: str, port: int) -> None:
    """Run the stub backend on (host, port) until interrupted, printing the
    bound address (with the port the OS chose for port 0) once it is bound."""
    with create_server(host, port) as server:
        bound_host, bound_port = server.server_address[:2]
        print(f"stub backend listening on {bound_host}:{bound_port}", flush=True)
        with contextlib.suppress(KeyboardInterrupt):
            server.serve_forever()
