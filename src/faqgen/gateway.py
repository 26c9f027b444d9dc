"""Gateway to the four model steps: domain, questions, answer phrase, answer.

Each step builds one request of the fixed JSON wire protocol. A remote HTTP
backend answers it when the step has a URL; otherwise the built-in
deterministic stub for that step does (``STUB_HANDLERS``, which the stub
server also serves). In-process a stub reads the chunk's sentences and the
tokens the chunk computed once for all steps (``Chunk.sentence_tokens``).
Over HTTP it splits the request's context, which gives the same sentences,
and tokenizes each sentence only when its scan reaches it. Either way the
stubs take tokens and content tokens from ``chunker``'s token rules, and the
reply is parsed and normalised by the same code, so offline and HTTP runs
give the same results. Stub outputs are pure functions of their inputs so
end-to-end runs are reproducible offline.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from http.cookiejar import DefaultCookiePolicy
from itertools import chain, islice
from typing import Callable, Iterable

import requests

from .chunker import TERMINALS, Chunk, content_tokens, segment_sentences, word_tokens
from .domains import DOMAINS, DomainLexicon, classify, parse_domain

DEFAULT_QUESTION_CAP = 5
DEFAULT_TIMEOUT_MS = 10_000
DEFAULT_MAX_RETRIES = 2
MAX_RETRY_LIMIT = 10
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


# Per thread: a session, which keeps its connections alive between calls,
# and per URL the settings requests would otherwise read from the
# environment on every call. A requests.Session is not documented as
# thread-safe, so each thread has its own; it goes when the thread ends.
_thread = threading.local()


def _session_and_settings(url: str) -> tuple[requests.Session, dict]:
    """This thread's session, and the proxies (``HTTP_PROXY``, ``NO_PROXY``),
    CA bundle (``REQUESTS_CA_BUNDLE``) and ``.netrc`` credentials for *url*."""
    try:
        session, url_settings = _thread.session, _thread.url_settings
    except AttributeError:
        session = _thread.session = requests.Session()
        # Calls pass the settings read below, so the session itself does
        # not scan the environment on every call.
        session.trust_env = False
        # Keep no cookies, so each request is what a one-off post would send.
        session.cookies.set_policy(DefaultCookiePolicy(allowed_domains=[]))
        url_settings = _thread.url_settings = {}
    settings = url_settings.get(url)
    if settings is None:
        session.trust_env = True
        settings = session.merge_environment_settings(url, {}, None, None, None)
        session.trust_env = False
        settings["auth"] = requests.utils.get_netrc_auth(url)
        url_settings[url] = settings
    return session, settings


def post_json(url: str, payload: dict, endpoints: BackendEndpointSet) -> dict:
    """POST *payload* as JSON, retrying transient failures with backoff.

    Connection errors, timeouts, 5xx responses and unparseable bodies are
    retried up to ``max_retries`` extra times; other non-200 statuses raise
    :class:`RequestRejected` immediately.

    Each thread keeps one connection per backend alive across calls. The
    environment's proxy, CA bundle and ``.netrc`` settings for *url* are
    read on the thread's first call to it; a later change to the
    environment is not seen by that thread for that URL.
    """
    session, settings = _session_and_settings(url)
    attempts = endpoints.max_retries + 1
    delay = RETRY_BASE_DELAY_SECONDS
    last_error: Exception | None = None
    for attempt in range(attempts):
        if attempt:
            time.sleep(delay)
            delay *= 2
        try:
            response = session.post(
                url, json=payload, timeout=endpoints.timeout_ms / 1000.0, **settings
            )
        except requests.RequestException as exc:
            last_error = exc
            continue
        if response.status_code >= 500:
            last_error = RuntimeError(f"HTTP {response.status_code}")
            continue
        if response.status_code != 200:
            try:
                reply = response.json()
            except (ValueError, RecursionError):
                reply = None
            detail = reply.get("error", "") if isinstance(reply, dict) else response.text[:200]
            if not _is_text(detail):
                detail = ascii(detail)
            raise RequestRejected(
                f"{url} rejected request: HTTP {response.status_code} {detail}".rstrip()
            )
        try:
            body = response.json()
        except (ValueError, RecursionError) as exc:
            last_error = exc
            continue
        if not isinstance(body, dict):
            last_error = RuntimeError("response body is not a JSON object")
            continue
        return body
    raise BackendUnavailable(f"{url} unavailable after {attempts} attempt(s): {last_error}")


# ---------------------------------------------------------------------------
# Stub handlers, one per step: one wire-protocol request body in, one reply
# body out. In-process the gateway also passes the request's chunk, and the
# handler reads the chunk's sentences and their tokens, computed once for all
# steps. The stub server passes None: the handler splits the request's context
# and tokenizes each sentence only when its scan reaches it, since the answer
# handlers stop at the question's sentence. Invalid requests raise
# RequestRejected, which the stub server sends as 422.
# ---------------------------------------------------------------------------


def _required_text(body: dict, key: str) -> str:
    value = body.get(key)
    if not isinstance(value, str) or not value.strip():
        raise RequestRejected(f"blank or missing {key!r}")
    return value


def _tokenized(context: str, chunk: Chunk | None) -> Iterable[tuple[str, list[str]]]:
    """Each sentence of *context* with its tokens (stopwords kept): the
    chunk's, else *context* split, each sentence tokenized when reached."""
    if chunk is None:
        return ((sentence, word_tokens(sentence)) for sentence in segment_sentences(context))
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
    for _, tokens in islice(_tokenized(context, chunk), cap):
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
