from __future__ import annotations

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import faqgen.chunker
from faqgen.stubserver import create_server

FIXTURES = Path(__file__).parent / "fixtures"


def serve_in_thread(server) -> None:
    # A short poll interval keeps shutdown() from waiting out the default 0.5 s.
    threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    ).start()


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def fixture_document_text() -> str:
    return (FIXTURES / "fixture_doc.txt").read_text(encoding="utf-8")


@pytest.fixture
def tokenized(monkeypatch) -> list[str]:
    """Every text passed to ``chunker.word_tokens`` by faqgen from now on, in
    call order, through whichever module's name for it."""
    seen: list[str] = []
    original = faqgen.chunker.word_tokens

    def counting(text):
        seen.append(text)
        return original(text)

    for name, module in list(sys.modules.items()):
        if name.startswith("faqgen.") and getattr(module, "word_tokens", None) is original:
            monkeypatch.setattr(module, "word_tokens", counting)
    return seen


@pytest.fixture(scope="session")
def stub_server_url():
    """A live stub backend on an ephemeral port (stateless, shared per session)."""
    server = create_server("127.0.0.1", 0)
    serve_in_thread(server)
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()


class _CannedHandler(BaseHTTPRequestHandler):
    def log_message(self, fmt, *args):
        pass

    def do_POST(self):
        script = self.server.script.get(self.path)
        if not script:
            self._reply(404, {"error": "unscripted path"})
            return
        self.server.hits[self.path] = self.server.hits.get(self.path, 0) + 1
        status, payload, *headers = script.pop(0) if len(script) > 1 else script[0]
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length)
        self.server.requests.append((self.path, json.loads(body or b"null")))
        self._reply(status, payload, *headers)

    def _reply(self, status, payload, headers=None):
        if isinstance(payload, (bytes, str)):
            data = payload.encode("utf-8") if isinstance(payload, str) else payload
        else:
            data = json.dumps(payload, ensure_ascii=False).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)


class CannedBackend(ThreadingHTTPServer):
    """Serves scripted (status, payload) or (status, payload, headers)
    responses per path, in order; the last entry repeats. A str/bytes
    payload is sent verbatim (for malformed body tests)."""

    daemon_threads = True

    def __init__(self, script):
        self.script = {path: list(entries) for path, entries in script.items()}
        self.hits: dict[str, int] = {}
        self.requests: list[tuple[str, object]] = []
        super().__init__(("127.0.0.1", 0), _CannedHandler)


@pytest.fixture
def canned_backend():
    servers = []

    def _start(script) -> tuple[str, CannedBackend]:
        server = CannedBackend(script)
        serve_in_thread(server)
        servers.append(server)
        return f"http://127.0.0.1:{server.server_address[1]}", server

    yield _start
    for server in servers:
        server.shutdown()
        server.server_close()
