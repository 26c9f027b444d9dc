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

import io
import json
import os
import ssl
import sys
import threading
import time
from dataclasses import dataclass
from functools import lru_cache
from http.client import HTTPConnection, HTTPException, HTTPResponse, HTTPSConnection
from itertools import chain, islice
from typing import Callable, Iterable
from urllib.parse import urlsplit

import requests

from .chunker import TERMINALS, Chunk, content_tokens, iter_sentences, word_tokens
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


# Per process, how to reach each of the last _MAX_ROUTES URLs used (``_resolve``);
# per thread, one kept-alive connection per origin (http.client's are not
# thread-safe), all closed when the thread ends or opens one past _MAX_ROUTES.
_resolve_lock = threading.Lock()
_thread = threading.local()
_MAX_ROUTES = 32


class _Connections(dict):
    """One thread's connections by origin; closes them when dropped."""

    def __del__(self) -> None:
        for connection in self.values():
            connection.close()


def _route(url: str) -> tuple[HTTPConnection, str, dict[str, str]]:
    """This thread's connection for *url*, the request target and headers."""
    with _resolve_lock:
        key, target, headers, address, tunnel, context = _resolve(url)
    connections = getattr(_thread, "connections", {})
    connection = connections.get(key)
    if connection is None:
        if not connections or len(connections) >= _MAX_ROUTES:
            connections = _thread.connections = _Connections()
        if context is None:
            connection = HTTPConnection(*address)
        else:
            connection = HTTPSConnection(*address, context=context)
            if tunnel:
                connection.set_tunnel(*tunnel)
        connections[key] = connection
    return connection, target, headers


@lru_cache(maxsize=_MAX_ROUTES)  # a URL that raises is not kept
def _resolve(url: str) -> tuple:
    """How to reach *url*, reading the environment: the proxy (``HTTP_PROXY``,
    ``HTTPS_PROXY``, ``NO_PROXY``), the CA bundle (``REQUESTS_CA_BUNDLE``, else
    ``CURL_CA_BUNDLE``) and ``.netrc`` credentials, else the URL's own.

    A plain-HTTP proxy is sent the absolute URI, and an HTTPS URL is
    tunnelled through it (CONNECT); the proxy URL's credentials become
    ``Proxy-Authorization``. Returns the connection's key (its origin and
    proxy), the request target and headers, the address to connect to, the
    tunnel, and the SSL context of an HTTPS URL. Raises ValueError or
    OSError when *url* or a setting cannot be used."""
    url = requests.utils.requote_uri(url)
    parts = urlsplit(url)
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ValueError(f"not an http(s) URL: {url!r}")
    parts.hostname.encode("idna")  # raises for a name no resolver takes
    port = parts.port or (443 if parts.scheme == "https" else 80)
    headers = {"Content-Type": "application/json"}
    credentials = requests.utils.get_netrc_auth(url) or requests.utils.get_auth_from_url(url)
    if any(credentials):
        headers["Authorization"] = requests.auth._basic_auth_str(*credentials)
    target = parts.path or "/"
    if parts.query:
        target += "?" + parts.query
    address, tunnel = (parts.hostname, port), None
    proxy = requests.utils.select_proxy(url, requests.utils.get_environ_proxies(url))
    if proxy:
        proxy = requests.utils.prepend_scheme_if_needed(proxy, "http")
        proxy_parts = urlsplit(proxy)
        if proxy_parts.scheme != "http" or not proxy_parts.hostname:
            raise ValueError(f"not a plain-HTTP proxy: {proxy!r}")
        user, password = requests.utils.get_auth_from_url(proxy)
        proxy_headers = {}
        if user:
            proxy_headers["Proxy-Authorization"] = requests.auth._basic_auth_str(user, password)
        address = (proxy_parts.hostname, proxy_parts.port or 80)
        if parts.scheme == "https":
            tunnel = (parts.hostname, port, proxy_headers)
        else:
            target = requests.utils.urldefragauth(url)
            headers.update(proxy_headers)
    context = None
    if parts.scheme == "https":
        ca = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
        ca = ca or requests.utils.DEFAULT_CA_BUNDLE_PATH
        context = ssl.create_default_context(
            **({"capath": ca} if os.path.isdir(ca) else {"cafile": ca})
        )
    return (parts.scheme, parts.hostname, port, proxy), target, headers, address, tunnel, context


def _time_left(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("timed out")
    return left


class _DeadlineReader(io.RawIOBase):
    """The file http.client reads a reply from (``makefile``), a proxy's reply
    to CONNECT too; each read waits at most until *deadline*. It reads *sock*'s
    file from makefile, which keeps the descriptor open after *sock* closes."""

    def __init__(self, sock, deadline: float) -> None:
        self.sock, self.deadline = sock, deadline
        self.file = sock.makefile("rb", buffering=0)

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int | None:
        self.sock.settimeout(_time_left(self.deadline))
        return self.file.readinto(buffer)

    def close(self) -> None:
        self.file.close()
        super().close()

    def makefile(self, mode: str) -> io.BufferedReader:
        return io.BufferedReader(self)


def _exchange(
    connection: HTTPConnection, target: str, body: bytes, headers: dict[str, str], deadline: float
) -> tuple[int, bytes]:
    """POST *body* over *connection* and read the whole reply: its status
    and body. Each socket operation waits at most until *deadline*.

    A kept-alive connection found closed before any reply arrives is opened
    again once. Any failure, and a status below 200, closes the connection,
    as http.client does itself after a reply that ends it; the next request
    opens it again."""
    reopen = connection.sock is not None
    connection.response_class = lambda sock, *args, **kwargs: HTTPResponse(
        _DeadlineReader(sock, deadline), *args, **kwargs
    )
    try:
        while True:
            connection.timeout = _time_left(deadline)
            if connection.sock is not None:
                connection.sock.settimeout(connection.timeout)
            try:
                connection.request("POST", target, body, headers)
                response = connection.getresponse()
                break
            except ConnectionError:
                if not reopen:
                    raise
                reopen = False
                connection.close()
        data = response.read()
        if response.status < 200:
            raise HTTPException(f"HTTP {response.status} is not a final reply")
        return response.status, data
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
    return detail if _is_text(detail) else ascii(detail)


def post_json(url: str, payload: dict, endpoints: BackendEndpointSet) -> dict:
    """POST *payload* as JSON and return the reply's JSON object.

    Connection errors, timeouts, protocol errors (including an informational
    status that is the only reply), 5xx responses and bodies that are not a
    JSON object are retried up to ``max_retries`` extra times, with backoff.
    Any other status but 200 raises :class:`RequestRejected` at once; a
    redirect (3xx) is not followed, so it is rejected too.

    ``timeout_ms`` bounds the whole call, reply bodies and backoff included:
    each socket timeout is the time left, and no attempt or sleep starts
    that the time left cannot hold (:class:`BackendUnavailable` names the
    last error).

    Each thread keeps one connection per backend origin alive across calls,
    and opens it again once, without spending a retry, when the server
    turns out to have closed it before replying. The environment's proxy,
    CA bundle and ``.netrc`` settings for *url* are read on the process's
    first call to it, for every thread; a later change to the environment is
    not seen for that URL. No cookies are kept.
    """
    deadline = time.monotonic() + endpoints.timeout_ms / 1000.0
    try:
        connection, target, headers = _route(url)
    except (ValueError, OSError) as exc:
        raise BackendUnavailable(f"{url} cannot be used: {exc}") from exc
    body = json.dumps(payload).encode()
    delay = RETRY_BASE_DELAY_SECONDS
    last_error: Exception | None = None
    attempts = 0
    while attempts <= endpoints.max_retries:
        if attempts:
            if time.monotonic() + delay >= deadline:
                break
            time.sleep(delay)
            delay *= 2
        attempts += 1
        try:
            status, data = _exchange(connection, target, body, headers, deadline)
        except (HTTPException, OSError) as exc:
            last_error = exc
            continue
        if status >= 500:
            last_error = RuntimeError(f"HTTP {status}")
            continue
        if status != 200:
            raise RequestRejected(
                f"{url} rejected request: HTTP {status} {_error_detail(data)}".rstrip()
            )
        try:
            reply = json.loads(data)
        except (ValueError, RecursionError) as exc:
            last_error = exc
            continue
        if isinstance(reply, dict):
            return reply
        last_error = RuntimeError("response body is not a JSON object")
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
# Each step's URL field name, made once: a name formatted per call would be a
# new string each time, which CPython's type attribute cache keeps alive.
_URL_FIELDS = {step: f"{step}_url" for step in STUB_HANDLERS}


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
    url = getattr(endpoints, _URL_FIELDS[step]) if endpoints else None
    if url:
        return post_json(url, request, endpoints), url
    return STUB_HANDLERS[step](request, lexicon, chunk), f"{step} stub"


def _is_text(value: object) -> bool:
    """Whether *value* is a string that UTF-8 can encode. JSON can escape a
    lone surrogate, which UTF-8 cannot; a reply holding one is malformed."""
    if not isinstance(value, str):
        return False
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _reply_text(reply: dict, key: str, source: str) -> str:
    """The reply's *key*, which must be text (``_is_text``) that is not
    blank, trimmed."""
    value = reply.get(key)
    if not _is_text(value):
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
    if not isinstance(raw, list) or not all(_is_text(q) for q in raw):
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
