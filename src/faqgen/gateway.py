"""Gateway to the four model steps: domain, questions, answer phrase, answer.

Each step builds one request of the fixed JSON wire protocol. A remote HTTP
backend answers it when the step has a URL; otherwise the built-in
deterministic stub for that step does (``STUB_HANDLERS``, which the stub
server also serves). In-process a stub reads the chunk's sentences and the
tokens the chunk computed once for all steps (``Chunk.sentence_tokens``).
Over HTTP it splits the request's context, which gives the same sentences,
only as far as its scan reads, and tokenizes each sentence when the scan
reaches it. Either way the stubs take tokens and content tokens from
``chunker``'s token rules, and the reply is parsed and normalised by the
same code, so offline and HTTP runs give the same results. Stub outputs are
pure functions of their inputs so end-to-end runs are reproducible offline.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import socket
import sys
import threading
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice
from typing import Callable, Iterable
from urllib.parse import quote, unquote, urlsplit

from .chunker import TERMINALS, Chunk, content_tokens, is_text, iter_sentences, word_tokens
from .domains import DOMAINS, DomainLexicon, classify, parse_domain

DEFAULT_QUESTION_CAP = 5
DEFAULT_TIMEOUT_MS = 10_000
DEFAULT_MAX_RETRIES = 2
MAX_RETRY_LIMIT = 10
MAX_TIMEOUT_MS = 86_400_000  # one day; a socket timeout cannot exceed about 9.2e9 s
RETRY_BASE_DELAY_SECONDS = 0.2

# Version 1 stub question template; changing it changes every stub output.
QUESTION_TEMPLATE_V1 = "What does the passage state about {anchor}?"
ANSWER_PHRASE_TOKEN_LIMIT = 6


class GatewayError(Exception):
    """Base class for backend-related failures."""


class BackendUnavailable(GatewayError):
    """All attempts against a backend endpoint failed."""


class RequestRejected(GatewayError):
    """The backend rejected the request as invalid (non-retryable)."""


class EmptyGeneration(GatewayError):
    """A generation step produced nothing usable."""


@dataclass(frozen=True)
class BackendEndpointSet:
    """Endpoint URLs for the four model steps; an absent URL selects the stub."""

    domain_url: str | None = None
    questions_url: str | None = None
    answer_phrase_url: str | None = None
    complete_answer_url: str | None = None
    timeout_ms: int = DEFAULT_TIMEOUT_MS
    max_retries: int = DEFAULT_MAX_RETRIES

    def __post_init__(self) -> None:
        if self.timeout_ms < 1:
            raise ValueError(f"timeout_ms must be >= 1, got {self.timeout_ms}")
        if self.timeout_ms > MAX_TIMEOUT_MS:
            raise ValueError(f"timeout_ms must be <= {MAX_TIMEOUT_MS}, got {self.timeout_ms}")
        if not 0 <= self.max_retries <= MAX_RETRY_LIMIT:
            raise ValueError(
                f"max_retries must be in 0..{MAX_RETRY_LIMIT}, got {self.max_retries}"
            )


@dataclass(frozen=True)
class GeneratedQuestion:
    """A question generated for one chunk; (chunk_index, q_index) is unique."""

    chunk_index: int
    q_index: int
    text: str

    def __post_init__(self) -> None:
        if not self.text or not self.text.endswith("?"):
            raise ValueError(f"question text must end with '?': {self.text!r}")


@dataclass(frozen=True)
class AnswerPhrase:
    """The keyword or keyphrase answering a question."""

    text: str

    def __post_init__(self) -> None:
        if not self.text or self.text != self.text.strip():
            raise ValueError(f"answer phrase must be non-empty and trimmed: {self.text!r}")


@dataclass(frozen=True)
class CompletedAnswer:
    """A full-sentence, readable answer."""

    text: str

    def __post_init__(self) -> None:
        if not self.text or self.text[-1] not in TERMINALS:
            raise ValueError(
                f"completed answer must end with terminal punctuation: {self.text!r}"
            )


# Per process, how to reach each of the last _MAX_ROUTES URLs (``_resolve``); per
# thread, a connection per origin, closed at thread end or past _MAX_ROUTES origins.
_resolve_lock = threading.Lock()
_thread = threading.local()
_MAX_ROUTES = 32
MAX_LINE_BYTES = 64 * 1024
MAX_HEADERS = 100
MAX_BODY_BYTES = 16 * 1024 * 1024
_HEX_DIGITS = "0123456789abcdefABCDEF"


class ProtocolError(OSError):
    """A refused HTTP/1.x message: malformed, or not one a server (*status*) serves."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


class SocketReader(io.RawIOBase):
    """*sock*'s reads, each waiting at most until ``deadline``; never closes it."""

    def __init__(self, sock, deadline: float = 0.0) -> None:
        self.sock, self.deadline = sock, deadline

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        self.sock.settimeout(_time_left(self.deadline))
        return self.sock.recv_into(buffer)


def read_head(file: io.BufferedReader, start_line: Callable[[str], tuple]) -> tuple:
    """One HTTP/1.x message head from *file*: its start line as *start_line*
    parses it, before any header is read, and its headers by lower-cased name.
    Raises ConnectionResetError when *file* ends first, and ProtocolError."""
    line = file.readline(MAX_LINE_BYTES + 1)
    if not line:
        raise ConnectionResetError("connection closed before the message")
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"start line over {MAX_LINE_BYTES} bytes", 414)
    start, headers = start_line(str(line, "latin-1")), {}
    for _ in range(MAX_HEADERS + 1):
        line = file.readline(MAX_LINE_BYTES + 1)
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(f"header line over {MAX_LINE_BYTES} bytes", 431)
        if line in (b"\r\n", b"\n", b""):
            return start, headers
        name, colon, value = str(line, "latin-1").partition(":")
        if not colon or not name or name != name.strip():
            raise ProtocolError("header line is not: name, ':', value")
        name, value = name.lower(), value.strip(" \t\r\n")
        # A repeated header's values are joined: two lengths are no number.
        headers[name] = f"{headers[name]}, {value}" if name in headers else value
    raise ProtocolError(f"more than {MAX_HEADERS} headers", 431)


def body_length(text: str, base: int = 10, read: int = 0) -> int:
    """The body length *text* declares in ASCII digits of *base*: 10 for a
    Content-Length, 16 for a chunk size, after *read* bytes of the body.
    ``int()`` would also take "+2", "1_0" and "0x2". Raises ProtocolError:
    413 when the body would pass ``MAX_BODY_BYTES``, else 400."""
    if not text or text.strip(_HEX_DIGITS if base == 16 else "0123456789"):
        raise ProtocolError(f"a body length must be ASCII digits, not {text[:20]!r}")
    # Nine significant digits are past the bound in either base, and int()
    # refuses a string of thousands.
    size = int(text.lstrip("0")[:9] or "0", base)
    if read + size > MAX_BODY_BYTES:
        raise ProtocolError(f"body exceeds {MAX_BODY_BYTES} bytes", 413)
    return size


def _status_line(line: str) -> tuple[int, bool]:
    """A reply's status, three ASCII digits, and whether the reply is HTTP/1.0."""
    words = line.split(None, 2)
    status = words[1] if len(words) >= 2 and words[0].startswith("HTTP/1.") else ""
    if len(status) != 3 or not status.isdecimal():  # int() would also take "1_0" and "+10"
        raise ProtocolError(f"not a status line: {line[:80]!r}")
    return int(status), words[0] == "HTTP/1.0"


class _Connection:
    """A kept-alive connection by *route* (``_resolve``); ``sock`` is None when closed."""

    def __init__(self, route: tuple) -> None:
        self.route, self.sock = route, None

    def open(self, deadline: float) -> None:
        """Connect, tunnelled and in TLS as routed; the caller closes it on a failure."""
        address, tunnel, tls = self.route
        self.sock = sock = socket.create_connection(address, _time_left(deadline))
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if tunnel:
            sock.sendall(tunnel)
            status = read_head(io.BufferedReader(SocketReader(sock, deadline)), _status_line)[0]
            if status[0] != 200:
                raise OSError(f"proxy refused the tunnel: HTTP {status[0]}")
        if tls:
            sock.settimeout(_time_left(deadline))
            self.sock = sock = tls[0].wrap_socket(sock, server_hostname=tls[1])
        self.file = io.BufferedReader(SocketReader(sock))

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None


class _Connections(dict):
    """One thread's connections by origin; closes them when dropped."""

    def __del__(self) -> None:
        for connection in self.values():
            connection.close()


def _route(url: str) -> tuple[_Connection, bytes]:
    """This thread's connection for *url*, and a POST's head for it (``_resolve``)."""
    with _resolve_lock:
        key, head, route = _resolve(url)
    connections = getattr(_thread, "connections", {})
    connection = connections.get(key)
    if connection is None:
        if not connections or len(connections) >= _MAX_ROUTES:
            connections = _thread.connections = _Connections()
        connection = connections[key] = _Connection(route)
    return connection, head


def _proxy(scheme: str, name: str, port: int | None) -> str | None:
    """The proxy for a *scheme* URL to host *name*: ``<scheme>_proxy``, else
    ``all_proxy`` (either case), with ``http://`` if it names no scheme. None
    when ``no_proxy`` (else ``NO_PROXY``) is ``*`` or lists the name or a
    domain suffix of it, with *port* or without, or for an IPv4 address, a
    network ``a.b.c.d/n`` holding it."""
    import ipaddress
    from urllib.request import getproxies, proxy_bypass_environment

    proxy = next(filter(None, map(getproxies().get, (scheme, "all"))), None)
    no_proxy = os.environ.get("no_proxy") or os.environ.get("NO_PROXY") or ""
    for entry in no_proxy.split(","):
        with contextlib.suppress(ValueError):  # not an IPv4 address and network
            if ipaddress.IPv4Address(name) in ipaddress.IPv4Network(entry.strip(), strict=False):
                return None
    if not proxy or proxy_bypass_environment(f"{name}:{port}" if port else name, {"no": no_proxy}):
        return None
    return proxy if "://" in proxy else f"http://{proxy}"


@lru_cache(maxsize=_MAX_ROUTES)  # a URL that raises is not kept
def _resolve(url: str) -> tuple:
    """How to reach *url*, reading the environment: the proxy (``_proxy``),
    the CA bundle (``REQUESTS_CA_BUNDLE``, else ``CURL_CA_BUNDLE``, else the
    system store) and ``.netrc`` credentials (``$NETRC``, else ``~/.netrc`` or
    ``~/_netrc``), else the URL's own. A plain-HTTP proxy is sent the absolute
    URI; an HTTPS URL is tunnelled through it (CONNECT). Returns the
    connection's key (origin and proxy), a POST's head up to its
    Content-Length value, and the route: the address to connect to, the
    CONNECT request, the SSL context and host name. The host name goes out in
    its IDNA form; it, the path and the query are percent-encoded (UTF-8)
    where a URL cannot hold them. Raises ValueError or OSError when *url* or
    a setting cannot be used."""
    import base64
    import netrc

    def basic(user: str, password: str) -> str:
        return "Basic " + base64.b64encode(f"{user}:{password}".encode("latin-1")).decode()

    def requote(text: str) -> str:  # and a '%' that begins no escape as '%25'
        return re.sub("%(?![0-9A-Fa-f]{2})", "%25", quote(text, safe="!#$%&'()*+,/:;=?@[]~"))

    parts = urlsplit(url)
    if parts.scheme not in ("http", "https") or not parts.hostname or parts.port == 0:
        raise ValueError(f"not an http(s) URL with a host and a nonzero port: {url!r}")
    name = requote(parts.hostname.encode("idna").decode())  # raises for a name no resolver takes
    host = f"[{name}]" if ":" in name else name
    port = parts.port or (443 if parts.scheme == "https" else 80)
    origin = f"{host}:{port}"
    netloc = origin if parts.port else host
    fields = f"Host: {netloc}\r\nAccept-Encoding: identity\r\nContent-Type: application/json\r\n"
    netrc_files = [os.environ["NETRC"]] if "NETRC" in os.environ else ["~/.netrc", "~/_netrc"]
    netrc_file = next(filter(os.path.exists, map(os.path.expanduser, netrc_files)), None)
    entry = None
    if netrc_file:
        with contextlib.suppress(netrc.NetrcParseError, OSError):
            entry = netrc.netrc(netrc_file).authenticators(name)
    if entry and any(entry):
        fields += f"Authorization: {basic(entry[0] or entry[1] or '', entry[2] or '')}\r\n"
    elif parts.password is not None and (parts.username or parts.password):
        fields += f"Authorization: {basic(unquote(parts.username), unquote(parts.password))}\r\n"
    path, query = requote(parts.path), parts.query and "?" + requote(parts.query)
    target = (path or "/") + query
    address, tunnel, tls = (name, port), None, None
    proxy = _proxy(parts.scheme, name, parts.port)
    if proxy:
        proxy_parts = urlsplit(proxy)
        if proxy_parts.scheme != "http" or not proxy_parts.hostname or proxy_parts.port == 0:
            raise ValueError(f"not a plain-HTTP proxy: {proxy!r}")
        user, password = proxy_parts.username, proxy_parts.password
        auth = basic(unquote(user), unquote(password)) if user and password is not None else ""
        auth = f"Proxy-Authorization: {auth}\r\n" if auth else ""
        address = (proxy_parts.hostname, proxy_parts.port or 80)
        if parts.scheme == "https":
            tunnel = f"CONNECT {origin} HTTP/1.1\r\nHost: {origin}\r\n{auth}\r\n".encode()
        else:
            target = f"http://{netloc}{path}{query}"
            fields += auth
    if parts.scheme == "https":
        import ssl

        ca = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
        where = {"capath": ca} if ca and os.path.isdir(ca) else {"cafile": ca}
        tls = ssl.create_default_context(**where), name
    head = f"POST {target} HTTP/1.1\r\n{fields}Content-Length: ".encode("ascii")
    return (parts.scheme, name, port, proxy), head, (address, tunnel, tls)


# ROADMAP item 1 (the run record) deletes this __getattr__.
def __getattr__(name: str):
    """``requests``, imported on first use (PEP 562): bench/tracing.py counts posts through it."""
    if name == "requests":
        import requests

        return requests
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _time_left(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("timed out")
    return left


def _read_exact(file: io.BufferedReader, size: int) -> bytes:
    data = file.read(size)
    if len(data) != size:
        raise ProtocolError(f"reply body is {len(data)} bytes, not {size}")
    return data


def _exchange(connection: _Connection, request: bytes, deadline: float) -> tuple[int, bytes]:
    """Send *request* over *connection* in one write and read the whole reply,
    its final status and body past any interim (1xx) reply, reopening once a
    kept-alive connection found closed before the first reply: after one, the
    server has the request. A failure, Connection: close and HTTP/1.0 close it."""
    try:
        for last in (False, True) if connection.sock else (True,):
            try:
                if connection.sock is None:
                    connection.open(deadline)
                connection.file.raw.deadline = deadline
                connection.sock.settimeout(_time_left(deadline))
                connection.sock.sendall(request)
                head = read_head(connection.file, _status_line)
                break
            except ConnectionError:
                if last:
                    raise
                connection.close()
        while head[0][0] < 200:  # an interim reply: 100 Continue, 103 Early Hints, ...
            head = read_head(connection.file, _status_line)
        (status, close), headers = head
        file = connection.file
        if status in (204, 304):
            data = b""
        elif headers.get("transfer-encoding", "").lower() == "chunked":
            pieces, read = [], 0
            while size := body_length(
                str(file.readline(MAX_LINE_BYTES + 1), "latin-1").split(";")[0].strip(), 16, read
            ):
                pieces.append(_read_exact(file, size))
                _read_exact(file, 2)
                read += size
            while file.readline(MAX_LINE_BYTES + 1) not in (b"\r\n", b"\n", b""):
                pass  # a trailer field
            data = b"".join(pieces)
        elif "content-length" in headers:
            data = _read_exact(file, body_length(headers["content-length"]))
        else:
            data, close = file.read(MAX_BODY_BYTES + 1), True
            if len(data) > MAX_BODY_BYTES:
                raise ProtocolError(f"body exceeds {MAX_BODY_BYTES} bytes", 413)
        if close or "close" in headers.get("connection", "").lower():
            connection.close()
        return status, data
    except BaseException:
        connection.close()
        raise


def _error_detail(data: bytes) -> str:
    """What a rejection's body says: its JSON ``error``, else its first 200
    characters."""
    try:
        reply = json.loads(data)
    except (ValueError, RecursionError):
        reply = None
    if isinstance(reply, dict):
        detail = reply.get("error", "")
    else:
        detail = data.decode("utf-8", "replace")[:200]
    return detail if is_text(detail) else ascii(detail)


def post_json(url: str, payload: dict, endpoints: BackendEndpointSet) -> dict:
    """POST *payload* as JSON, in one write over this thread's kept-alive
    connection to *url*'s origin, and return the reply's JSON object.

    Interim (1xx) replies are skipped. Connection errors, timeouts, malformed
    replies, 5xx responses and bodies that are not a JSON object are retried
    up to ``max_retries`` extra times, with backoff. Any other final status
    but 200 raises :class:`RequestRejected` at once, a redirect (3xx) too.
    ``timeout_ms`` bounds the whole call: each socket operation waits at most
    for the time left, and no attempt or sleep starts that it cannot hold
    (:class:`BackendUnavailable` names the last error). A connection the
    server closed before replying is opened again once, without spending a
    retry. The environment's proxy, CA bundle and ``.netrc`` settings for
    *url* are read on the first call to it, for every thread. No cookies
    are kept.
    """
    deadline = time.monotonic() + endpoints.timeout_ms / 1000.0
    try:
        connection, head = _route(url)
    except (ValueError, OSError) as exc:
        raise BackendUnavailable(f"{url} cannot be used: {exc}") from exc
    body = json.dumps(payload).encode()
    request = b"%b%d\r\n\r\n%b" % (head, len(body), body)
    delay, attempts, last_error = RETRY_BASE_DELAY_SECONDS, 0, None
    while attempts <= endpoints.max_retries:
        if attempts:
            if time.monotonic() + delay >= deadline:
                break
            time.sleep(delay)
            delay *= 2
        attempts += 1
        try:
            status, data = _exchange(connection, request, deadline)
            if status < 500 and status != 200:
                raise RequestRejected(
                    f"{url} rejected request: HTTP {status} {_error_detail(data)}".rstrip()
                )
            reply = json.loads(data) if status == 200 else None
        except (OSError, ValueError, RecursionError) as exc:
            last_error = exc
            continue
        if isinstance(reply, dict):
            return reply
        last_error = RuntimeError(
            f"HTTP {status}" if status != 200 else "response body is not a JSON object"
        )
    raise BackendUnavailable(f"{url} unavailable after {attempts} attempt(s): {last_error}")


# ---------------------------------------------------------------------------
# Stub handlers, one per step: one wire-protocol request body in, one reply
# body out. In-process the gateway also passes the request's chunk, and the
# handler reads the chunk's sentences and their tokens, computed once for all
# steps. The stub server passes None: the handler finds and tokenizes each
# sentence of the request's context only when its scan reaches it, since the
# questions handler stops after *cap* sentences and the answer handlers at the
# question's sentence. Invalid requests raise RequestRejected, which the stub
# server sends as 422.
# ---------------------------------------------------------------------------


def _required_text(body: dict, key: str) -> str:
    value = body.get(key)
    if not isinstance(value, str) or not value.strip():
        raise RequestRejected(f"blank or missing {key!r}")
    return value


def _tokenized(context: str, chunk: Chunk | None) -> Iterable[tuple[str, list[str]]]:
    """Each sentence of *context* with its tokens (stopwords kept): the
    chunk's, else each sentence of *context* found and tokenized when
    reached."""
    if chunk is None:
        return ((sentence, word_tokens(sentence)) for sentence in iter_sentences(context))
    return zip(chunk.sentences, chunk.sentence_tokens)


def _domain_stub(body: dict, lexicon: DomainLexicon | None, chunk: Chunk | None) -> dict:
    context = _required_text(body, "context")
    tokens = None if chunk is None else chain.from_iterable(chunk.sentence_tokens)
    return {"domain": classify(context, lexicon, tokens)}


def _questions_stub(body: dict, lexicon: DomainLexicon | None, chunk: Chunk | None) -> dict:
    """One templated question per content-bearing sentence among the first
    *cap*, about its first content token."""
    context = _required_text(body, "context")
    domain = body.get("domain", "")
    if domain not in DOMAINS:
        raise RequestRejected(f"unknown domain: {domain!r}")
    cap = body.get("cap", DEFAULT_QUESTION_CAP)
    if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
        raise RequestRejected(f"cap must be an integer >= 1, got {cap!r}")
    questions = []
    # A cap past the sentence count reads every sentence; islice takes at most sys.maxsize.
    for _, tokens in islice(_tokenized(context, chunk), min(cap, sys.maxsize)):
        content = content_tokens(tokens)
        if content:
            questions.append(QUESTION_TEMPLATE_V1.format(anchor=content[0]))
    return {"questions": questions}


def _answer_source(body: dict, chunk: Chunk | None) -> tuple[str, list[str]]:
    """The sentence a stub answer comes from, with its tokens: the first
    sentence holding the question's anchor (its last content token), else
    the first sentence. The anchor is never a stopword, so a sentence's
    tokens hold it exactly when its content tokens do."""
    context = _required_text(body, "context")
    anchor = content_tokens(word_tokens(_required_text(body, "question")))[-1:]
    first = None
    for sentence, tokens in _tokenized(context, chunk):
        if not anchor or anchor[0] in tokens:
            return sentence, tokens
        first = first or (sentence, tokens)
    return first


def _answer_phrase_stub(body: dict, lexicon: DomainLexicon | None, chunk: Chunk | None) -> dict:
    """The first six content tokens of the source sentence; a stopword-only
    sentence gives its first six plain tokens."""
    sentence, tokens = _answer_source(body, chunk)
    content = content_tokens(tokens)
    tokens = (content or tokens)[:ANSWER_PHRASE_TOKEN_LIMIT]
    if not tokens:
        raise RequestRejected(f"no usable tokens in sentence {sentence!r}")
    return {"answer_phrase": " ".join(tokens)}


def _complete_answer_stub(body: dict, lexicon: DomainLexicon | None, chunk: Chunk | None) -> dict:
    """The full source sentence the phrase was drawn from, punctuation ensured."""
    sentence, _ = _answer_source(body, chunk)
    _required_text(body, "answer_phrase")
    return {"answer": sentence if sentence[-1] in TERMINALS else sentence + "."}


# Keyed by step name: the stub server serves each at POST /v1/<step>, and a
# step's URL field in BackendEndpointSet is <step>_url.
STUB_HANDLERS: dict[str, Callable[[dict, DomainLexicon | None, Chunk | None], dict]] = {
    "domain": _domain_stub,
    "questions": _questions_stub,
    "answer_phrase": _answer_phrase_stub,
    "complete_answer": _complete_answer_stub,
}


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def _dispatch(
    step: str,
    request: dict,
    endpoints: BackendEndpointSet | None,
    chunk: Chunk,
    lexicon: DomainLexicon | None = None,
) -> tuple[dict, str]:
    """The reply to *request* and who sent it: the step's remote backend when
    it has a URL, else its built-in stub, which reads *chunk*, the chunk
    whose context the request carries."""
    url = getattr(endpoints, f"{step}_url") if endpoints else None
    if url:
        return post_json(url, request, endpoints), url
    return STUB_HANDLERS[step](request, lexicon, chunk), f"{step} stub"


def _reply_text(reply: dict, key: str, source: str) -> str:
    """The reply's *key*, which must be text (``is_text``) that is not
    blank, trimmed."""
    value = reply.get(key)
    if not is_text(value):
        raise BackendUnavailable(f"{source} returned malformed {key} body")
    text = value.strip()
    if not text:
        raise EmptyGeneration(f"{source} returned blank {key}")
    return text


def identify_domain(
    chunk: Chunk,
    lexicon: DomainLexicon | None = None,
    endpoints: BackendEndpointSet | None = None,
) -> str:
    """Assign *chunk* one of the 17 domains.

    The built-in stub is the lexicon classifier. The trimmed label must
    belong to the closed set, or :class:`~faqgen.domains.InvalidDomain` is
    raised.
    """
    reply, source = _dispatch("domain", {"context": chunk.context}, endpoints, chunk, lexicon)
    return parse_domain(_reply_text(reply, "domain", source))


def generate_questions(
    chunk: Chunk,
    domain: str,
    cap: int = DEFAULT_QUESTION_CAP,
    endpoints: BackendEndpointSet | None = None,
) -> list[GeneratedQuestion]:
    """Generate up to *cap* questions for *chunk*, conditioned on *domain*.

    The reply's texts are trimmed, blanks dropped, truncated to *cap*, given
    a '?' when they lack one, and exact duplicates dropped keeping the first
    occurrence. Raises :class:`EmptyGeneration` when nothing is left.
    """
    if not chunk.context.strip():
        raise ValueError("context must be non-empty")
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    request = {"context": chunk.context, "domain": domain, "cap": cap}
    reply, source = _dispatch("questions", request, endpoints, chunk)
    raw = reply.get("questions")
    if not isinstance(raw, list) or not all(is_text(q) for q in raw):
        raise BackendUnavailable(f"{source} returned malformed questions body")
    texts = [q.strip() for q in raw if q.strip()][:cap]
    texts = list(dict.fromkeys(t if t.endswith("?") else t + "?" for t in texts))
    if not texts:
        raise EmptyGeneration(f"{source} returned zero questions")
    return [
        GeneratedQuestion(chunk_index=chunk.index, q_index=index, text=text)
        for index, text in enumerate(texts)
    ]


def extract_answer_phrase(
    chunk: Chunk,
    question: GeneratedQuestion,
    endpoints: BackendEndpointSet | None = None,
) -> AnswerPhrase:
    """Extract the keyword/keyphrase answering *question* from *chunk*."""
    if not chunk.context.strip():
        raise ValueError("context must be non-empty")
    request = {"context": chunk.context, "question": question.text}
    reply, source = _dispatch("answer_phrase", request, endpoints, chunk)
    return AnswerPhrase(text=_reply_text(reply, "answer_phrase", source))


def complete_answer(
    chunk: Chunk,
    question: GeneratedQuestion,
    phrase: AnswerPhrase,
    endpoints: BackendEndpointSet | None = None,
) -> CompletedAnswer:
    """Elaborate *phrase* into a complete, readable answer sentence, ending
    in terminal punctuation ('.' is added when the reply has none)."""
    request = {"context": chunk.context, "question": question.text, "answer_phrase": phrase.text}
    reply, source = _dispatch("complete_answer", request, endpoints, chunk)
    text = _reply_text(reply, "answer", source)
    if text[-1] not in TERMINALS:
        text += "."
    return CompletedAnswer(text=text)
