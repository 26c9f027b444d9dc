"""HTTP server exposing the deterministic stub backends over the wire protocol.

POST /v1/domain           {"context": s}                                    -> {"domain": s}
POST /v1/questions        {"context": s, "domain": s, "cap": n}             -> {"questions": [s, ...]}
POST /v1/answer_phrase    {"context": s, "question": s}                     -> {"answer_phrase": s}
POST /v1/complete_answer  {"context": s, "question": s, "answer_phrase": s} -> {"answer": s}
GET  /v1/health                                                             -> {"status": "ok"}

Each POST is answered by the same stub handler the gateway calls in-process
(``gateway.STUB_HANDLERS``), which splits the request's context into the
sentences the in-process stub reads from its chunk; this module only routes,
frames and sets status codes. Malformed HTTP framing (including a request
line without an HTTP/1.x version, and a body not framed by a
``Content-Length`` of ASCII digits) returns 400, a declared body longer than
``MAX_BODY_BYTES`` 413 (the body is not read) and an invalid body 422. The
errors ``http.server`` detects itself keep their status (414, 431, 501,
505). Every reply has an HTTP/1.1 status line and a JSON body, {"error": s}
unless it is a 200. A request whose reply would carry a lone surrogate
escaped in its body, which UTF-8 cannot encode, also gets 422. Responses are
pure functions of the request bodies.
Connections stay open for further requests (HTTP/1.1), except after a reply
to a request whose body was not read. A client that goes away before its
reply is sent ends only its own connection.
"""

from __future__ import annotations

import contextlib
import json
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .gateway import STUB_HANDLERS, RequestRejected

_ROUTES = {f"/v1/{step}": handler for step, handler in STUB_HANDLERS.items()}

MAX_BODY_BYTES = 16 * 1024 * 1024


class BindFailure(OSError):
    """The requested bind address could not be acquired."""


class StubBackendServer(ThreadingHTTPServer):
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


class _StubHandler(BaseHTTPRequestHandler):
    """Keeps each connection open for the next request (HTTP/1.1) and sends
    each reply in one write, so no reply waits for the client's delayed ACK
    (Nagle). A reply sent without reading the request's body closes the
    connection, so that body is never parsed as the next request."""

    protocol_version = "HTTP/1.1"
    wbufsize = -1
    # A reply larger than the write buffer still goes out in two writes.
    disable_nagle_algorithm = True

    def log_message(self, fmt: str, *args) -> None:
        pass

    def parse_request(self) -> bool:
        # http.server answers a blank request line with nothing, and takes
        # a two-word GET for HTTP/0.9, whose reply has no status line.
        if super().parse_request():
            if self.request_version.startswith("HTTP/1."):
                return True
            self.send_error(400, "request line has no HTTP/1.x version")
        elif not self.requestline.split():
            self.send_error(400, "blank request line")
        return False

    def send_error(self, code: int, message: str | None = None, explain: str | None = None) -> None:
        # http.server calls this for the errors it detects itself; it would
        # send an HTML body, and no status line before the request line
        # gave a version.
        self.request_version = self.protocol_version
        self._send(code, {"error": message or self.responses[code][0]}, close=True)

    def do_GET(self) -> None:
        # A GET's body, if it declares one, is never read.
        if self.path == "/v1/health":
            self._send(200, {"status": "ok"}, close=True)
        else:
            self._send(404, {"error": f"no such endpoint: {self.path}"}, close=True)

    def do_POST(self) -> None:
        handler = _ROUTES.get(self.path)
        if handler is None:
            self._send(404, {"error": f"no such endpoint: {self.path}"}, close=True)
            return
        # One Content-Length of ASCII digits: int() would also take "+2" and
        # "1_0", and two lengths would frame the body two ways.
        lengths = self.headers.get_all("Content-Length", ["0"])
        length_text = lengths[0].strip(" \t")
        if (
            len(lengths) != 1
            or not (length_text.isascii() and length_text.isdigit())
            or "Transfer-Encoding" in self.headers
        ):
            self._send(
                400, {"error": "a body needs one Content-Length of ASCII digits"}, close=True
            )
            return
        length = int(length_text)
        if length > MAX_BODY_BYTES:
            self._send(
                413, {"error": f"request body exceeds {MAX_BODY_BYTES} bytes"}, close=True
            )
            return
        try:
            body = json.loads(self.rfile.read(length).decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError):
            self._send(422, {"error": "request body is not valid JSON"})
            return
        if not isinstance(body, dict):
            self._send(422, {"error": "request body must be a JSON object"})
            return
        try:
            self._send(200, handler(body, None, None))
        except RequestRejected as exc:
            self._send(422, {"error": str(exc)})

    def _send(self, status: int, payload: dict, close: bool = False) -> None:
        try:
            data = json.dumps(payload, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError:
            # The reply holds a lone surrogate (JSON "\ud800") from the request.
            status, data = 422, b'{"error": "request body holds a lone surrogate"}'
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(data)))
        if close:
            # Also sets close_connection, so this connection ends here.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)


def create_server(host: str, port: int) -> StubBackendServer:
    """Build a ready-to-serve stub backend bound to (host, port), answering
    with the packaged lexicon."""
    return StubBackendServer((host, port))


def serve_stub(host: str, port: int) -> None:
    """Run the stub backend on (host, port) until interrupted.

    The bound address (with the port the OS chose for port 0) is printed to
    stdout only once the socket is bound.
    """
    with create_server(host, port) as server:
        bound_host, bound_port = server.server_address[:2]
        print(f"stub backend listening on {bound_host}:{bound_port}", flush=True)
        with contextlib.suppress(KeyboardInterrupt):
            server.serve_forever()
