from __future__ import annotations

import contextlib
import gc
import json
import socket
import socketserver
import ssl
import statistics
import sys
import threading
import time
import unittest.mock
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, CannedBackend, serve_in_thread
from faqgen import gateway
from faqgen.chunker import Chunk, SourceDocument, iter_sentences, segment_sentences
from faqgen.domains import InvalidDomain, default_lexicon
from faqgen.gateway import (
    RETRY_BASE_DELAY_SECONDS,
    AnswerPhrase,
    BackendEndpointSet,
    BackendUnavailable,
    EmptyGeneration,
    GatewayError,
    GeneratedQuestion,
    STUB_HANDLERS,
    RequestRejected,
    complete_answer,
    extract_answer_phrase,
    generate_questions,
    identify_domain,
    post_json,
)
from faqgen.pipeline import FaqResult, PipelineConfig, run
from faqgen.stubserver import StubBackendServer
from oracles import (
    oracle_domain,
    oracle_sentences,
    oracle_stub_answer,
    oracle_stub_answer_phrase,
    oracle_stub_questions,
    oracle_stub_source,
    oracle_tokens,
)

THREE_SENTENCES = "Cats sleep daily. Dogs bark loudly. Birds fly south."

MARKET_RESEARCH_CONTEXT = (
    "Primary market research is a customised research technique that marketing "
    "professionals and businesses use to collect original information in the field. "
    "It is conducted directly by the person or organisation that stands to gain from "
    "the responses and can be performed through surveys, interviews, or focus groups."
)
MARKET_RESEARCH_QUESTION = "What is primary market research?"
MARKET_RESEARCH_PHRASE = "a customised research technique to collect original information"
MARKET_RESEARCH_ANSWER = (
    "Primary market research is a customised research technique that marketing "
    "professionals and businesses use to collect original information in the field."
)


def chunk_of(context: str, index: int = 0) -> Chunk:
    return Chunk(index=index, sentences=tuple(segment_sentences(context)))


def stub_reply(step: str, **body) -> dict:
    """The step's stub handler's reply to *body*, given the context's chunk
    as the gateway gives it in-process."""
    return STUB_HANDLERS[step](body, None, chunk_of(body["context"]))


def dead_endpoints(**kwargs) -> BackendEndpointSet:
    # 127.0.0.1:9 is reliably refused
    return BackendEndpointSet(max_retries=0, timeout_ms=500, **kwargs)


class TestStubQuestions:
    def test_three_sentence_fixture(self):
        questions = generate_questions(chunk_of(THREE_SENTENCES), "Diaries and Daily Life")
        assert [q.text for q in questions] == [
            "What does the passage state about cats?",
            "What does the passage state about dogs?",
            "What does the passage state about birds?",
        ]
        assert [(q.chunk_index, q.q_index) for q in questions] == [(0, 0), (0, 1), (0, 2)]

    def test_cap_saturation(self):
        context = " ".join(f"Topic{i} is sentence number {i} here." for i in range(8))
        questions = generate_questions(chunk_of(context, 4), "Gaming", cap=5)
        assert len(questions) == 5

    @pytest.mark.parametrize("over_http", [False, True])
    def test_repeated_anchor_yields_one_question(self, stub_server_url, over_http):
        # every sentence anchors on "sentence", so the five stub texts are equal
        context = " ".join(f"Sentence number {i} talks about topic{i}." for i in range(8))
        endpoints = BackendEndpointSet(
            questions_url=f"{stub_server_url}/v1/questions" if over_http else None,
            max_retries=0,
        )
        questions = generate_questions(
            chunk_of(context, 4), "Gaming", cap=5, endpoints=endpoints
        )
        assert [q.text for q in questions] == ["What does the passage state about sentence?"]

    @pytest.mark.parametrize("over_http", [False, True])
    def test_stub_rejection_is_request_rejected(self, stub_server_url, over_http):
        endpoints = BackendEndpointSet(
            questions_url=f"{stub_server_url}/v1/questions" if over_http else None,
            max_retries=0,
        )
        with pytest.raises(RequestRejected, match="unknown domain"):
            generate_questions(chunk_of(THREE_SENTENCES), "Astrology", endpoints=endpoints)

    def test_skips_content_free_sentences(self):
        context = "It is. Dogs bark loudly."
        reply = stub_reply("questions", context=context, domain="Gaming", cap=5)
        assert reply == {"questions": ["What does the passage state about dogs?"]}

    def test_cap_below_one_rejected(self):
        with pytest.raises(ValueError):
            generate_questions(chunk_of(THREE_SENTENCES), "Gaming", cap=0)

    def test_blank_context_rejected(self):
        with pytest.raises(ValueError):
            generate_questions(chunk_of("  "), "Gaming")

    def test_pure_function(self):
        first = stub_reply("questions", context=THREE_SENTENCES, domain="Gaming", cap=5)
        second = stub_reply("questions", context=THREE_SENTENCES, domain="Gaming", cap=5)
        assert first == second


class TestStubAnswerPhrase:
    def test_entanglement_fixture(self):
        context = "Entanglement describes a peculiar connection between particles."
        question = GeneratedQuestion(
            chunk_index=0, q_index=0,
            text="What does the passage state about entanglement?",
        )
        phrase = extract_answer_phrase(chunk_of(context), question)
        assert phrase.text == "entanglement describes peculiar connection between particles"

    def test_anchor_missing_falls_back_to_first_sentence(self):
        question = GeneratedQuestion(
            chunk_index=0, q_index=0, text="What does the passage state about zebras?"
        )
        phrase = extract_answer_phrase(chunk_of(THREE_SENTENCES), question)
        assert phrase.text == "cats sleep daily"

    def test_phrase_capped_at_six_tokens(self):
        context = (
            "Gardens bloom yearly with roses tulips daisies lilies orchids and ferns."
        )
        reply = stub_reply(
            "answer_phrase", context=context,
            question="What does the passage state about gardens?",
        )
        assert len(reply["answer_phrase"].split()) == 6

    def test_stopword_only_sentence_uses_plain_tokens(self):
        context = "It is. Dogs bark loudly."
        # anchor absent everywhere -> first sentence, which has no content tokens
        reply = stub_reply(
            "answer_phrase", context=context,
            question="What does the passage state about zebras?",
        )
        assert reply == {"answer_phrase": "it is"}


class TestStubCompleteAnswer:
    def test_returns_source_sentence(self):
        question = GeneratedQuestion(
            chunk_index=0, q_index=1, text="What does the passage state about dogs?"
        )
        phrase = AnswerPhrase(text="dogs bark loudly")
        answer = complete_answer(chunk_of(THREE_SENTENCES), question, phrase)
        assert answer.text == "Dogs bark loudly."

    def test_appends_missing_terminal_punctuation(self):
        context = "Dogs bark loudly"
        reply = stub_reply(
            "complete_answer", context=context,
            question="What does the passage state about dogs?", answer_phrase="dogs",
        )
        assert reply == {"answer": "Dogs bark loudly."}

    def test_stub_answers_are_verbatim_sentences(self):
        questions = stub_reply("questions", context=THREE_SENTENCES, domain="Gaming", cap=5)
        for question_text in questions["questions"]:
            reply = stub_reply(
                "complete_answer", context=THREE_SENTENCES,
                question=question_text, answer_phrase="x",
            )
            assert reply["answer"] in THREE_SENTENCES


# Content words (some lexicon terms), stopwords, tokens with edge punctuation,
# a punctuation-only token and guarded abbreviations, with and without their
# period: a sentence ending in "Dr" gets "Dr." and never ends there.
STUB_WORDS = ["cats", "Dogs", "quantum", "music", "football", "melody", "the", "it",
              "is", "of", "--", '"cats"', "(music)", "'quantum'", "--melody--",
              "Cats,", "Dr", "Dr.", "e.g", "e.g.", "vs."]
STUB_SENTENCE = st.builds(
    lambda words, end: (lambda text: text[:1].upper() + text[1:])(" ".join(words)) + end,
    st.lists(st.sampled_from(STUB_WORDS), min_size=1, max_size=7),
    st.sampled_from([".", "!", "?", "", "...", '."', "?!"]),
)
STUB_CONTEXT = st.lists(STUB_SENTENCE, min_size=1, max_size=5).map(" ".join).filter(
    lambda text: text.strip()
)
# Anchored in a context or outside every context ("zebras"), or with no
# content token at all (stopwords and "--" only).
STUB_QUESTION = st.lists(
    st.sampled_from(["cats", "dogs", "melody", "zebras", "the", "it", "is", "--"]),
    min_size=1, max_size=4,
).map(lambda words: " ".join(words).capitalize() + "?")


class TestStubHandlerOracles:
    """Each step's stub handler, given the context's chunk in-process or
    None as in the stub server, answers as the oracle built from
    ``oracle_sentences`` and ``oracle_tokens`` says."""

    @given(STUB_CONTEXT, STUB_QUESTION, st.integers(min_value=1, max_value=7))
    @settings(max_examples=300, deadline=None)
    def test_handlers_match_oracles(self, context, question, cap):
        lexicon = default_lexicon()
        expected = {
            "domain": {"domain": oracle_domain(context, dict(lexicon.entries))},
            "questions": {"questions": oracle_stub_questions(context, cap)},
            "complete_answer": {"answer": oracle_stub_answer(context, question)},
        }
        phrase = oracle_stub_answer_phrase(context, question)
        if phrase is not None:
            expected["answer_phrase"] = {"answer_phrase": phrase}
        body = {"context": context, "domain": "Gaming", "cap": cap,
                "question": question, "answer_phrase": "x"}
        for chunk in (chunk_of(context), None):
            for step, handler in STUB_HANDLERS.items():
                if step in expected:
                    assert handler(body, lexicon, chunk) == expected[step], step
                else:
                    source = oracle_stub_source(context, question)
                    message = f"no usable tokens in sentence {source!r}"
                    with pytest.raises(RequestRejected) as caught:
                        handler(body, lexicon, chunk)
                    assert str(caught.value) == message

    @pytest.mark.parametrize("in_process", [True, False])
    def test_questions_cap_past_sys_maxsize_reads_every_sentence(self, in_process):
        body = {"context": THREE_SENTENCES, "domain": "Gaming", "cap": 10**30}
        chunk = chunk_of(THREE_SENTENCES) if in_process else None
        reply = STUB_HANDLERS["questions"](body, None, chunk)
        assert reply == {"questions": oracle_stub_questions(THREE_SENTENCES, 10**30)}

    @pytest.mark.parametrize("in_process", [True, False])
    def test_answer_phrase_tokenizes_each_sentence_once(self, tokenized, in_process):
        body = {"context": THREE_SENTENCES, "question": "What does the passage state about dogs?"}
        chunk = chunk_of(THREE_SENTENCES) if in_process else None
        reply = STUB_HANDLERS["answer_phrase"](body, None, chunk)
        assert reply == {"answer_phrase": "dogs bark loudly"}
        assert "Dogs bark loudly." in tokenized
        assert len(tokenized) == len(set(tokenized)), tokenized

    def test_server_path_tokenizes_up_to_the_source_sentence(self, tokenized):
        # Without a chunk the handler splits the context and stops
        # tokenizing at the sentence holding the anchor.
        body = {"context": THREE_SENTENCES, "question": "What does the passage state about dogs?",
                "answer_phrase": "dogs"}
        STUB_HANDLERS["complete_answer"](body, None, None)
        assert tokenized == [body["question"], "Cats sleep daily.", "Dogs bark loudly."]

    @given(STUB_CONTEXT, STUB_QUESTION, st.integers(min_value=1, max_value=7))
    @settings(max_examples=200, deadline=None)
    def test_server_path_reads_no_sentence_past_the_one_it_needs(self, context, question, cap):
        # The questions handler draws its first *cap* sentences from the
        # scan, and each answer handler those up to its source sentence.
        sentences = oracle_sentences(context)
        anchor = oracle_tokens(question)[-1:]
        sources = [index for index, sentence in enumerate(sentences)
                   if not anchor or anchor[0] in oracle_tokens(sentence)]
        read_to = sources[0] + 1 if sources else len(sentences)
        body = {"context": context, "domain": "Gaming", "cap": cap,
                "question": question, "answer_phrase": "x"}
        drawn = []

        def counted(text):
            for sentence in iter_sentences(text):
                drawn.append(sentence)
                yield sentence

        with unittest.mock.patch.object(gateway, "iter_sentences", counted):
            for step, expected in [("questions", sentences[:cap]),
                                   ("answer_phrase", sentences[:read_to]),
                                   ("complete_answer", sentences[:read_to])]:
                drawn.clear()
                with contextlib.suppress(RequestRejected):
                    STUB_HANDLERS[step](body, None, None)
                assert drawn == expected, step


class TestEndpointSetValidation:
    def test_defaults_are_valid(self):
        endpoints = BackendEndpointSet()
        assert endpoints.questions_url is None

    def test_bounds(self):
        with pytest.raises(ValueError):
            BackendEndpointSet(timeout_ms=0)
        with pytest.raises(ValueError):
            BackendEndpointSet(max_retries=11)
        with pytest.raises(ValueError):
            BackendEndpointSet(max_retries=-1)

    def test_timeout_is_at_most_one_day(self):
        # No socket timeout holds 9999999999999 ms: such a value is a bad
        # config, not an OverflowError from the first call's connect.
        assert BackendEndpointSet(timeout_ms=gateway.MAX_TIMEOUT_MS).timeout_ms == 86_400_000
        with pytest.raises(ValueError, match="timeout_ms must be <= 86400000"):
            BackendEndpointSet(timeout_ms=9_999_999_999_999)


class TestRemoteQuestions:
    def test_dedup_preserves_first_occurrence(self, canned_backend):
        url, _ = canned_backend(
            {"/v1/questions": [(200, {"questions": ["Q1?", "Q1?", "Q2?"]})]}
        )
        endpoints = BackendEndpointSet(questions_url=f"{url}/v1/questions", max_retries=0)
        questions = generate_questions(
            chunk_of("Some context here."), "Gaming", endpoints=endpoints
        )
        assert [q.text for q in questions] == ["Q1?", "Q2?"]
        assert [q.q_index for q in questions] == [0, 1]

    def test_truncates_to_cap_before_dedup(self, canned_backend):
        url, _ = canned_backend(
            {"/v1/questions": [(200, {"questions": ["A?", "B?", "C?", "D?"]})]}
        )
        endpoints = BackendEndpointSet(questions_url=f"{url}/v1/questions", max_retries=0)
        questions = generate_questions(
            chunk_of("Some context here."), "Gaming", cap=2, endpoints=endpoints
        )
        assert [q.text for q in questions] == ["A?", "B?"]

    def test_missing_question_mark_normalized(self, canned_backend):
        url, _ = canned_backend(
            {"/v1/questions": [(200, {"questions": ["Where is the stadium"]})]}
        )
        endpoints = BackendEndpointSet(questions_url=f"{url}/v1/questions", max_retries=0)
        questions = generate_questions(chunk_of("Some context."), "Sports", endpoints=endpoints)
        assert questions[0].text == "Where is the stadium?"

    def test_zero_questions_is_empty_generation(self, canned_backend):
        url, _ = canned_backend({"/v1/questions": [(200, {"questions": []})]})
        endpoints = BackendEndpointSet(questions_url=f"{url}/v1/questions", max_retries=0)
        with pytest.raises(EmptyGeneration):
            generate_questions(chunk_of("Some context."), "Gaming", endpoints=endpoints)

    def test_request_carries_context_domain_cap(self, canned_backend):
        url, server = canned_backend({"/v1/questions": [(200, {"questions": ["Q?"]})]})
        endpoints = BackendEndpointSet(questions_url=f"{url}/v1/questions", max_retries=0)
        generate_questions(chunk_of("Ctx sentence.", 3), "Music", cap=2, endpoints=endpoints)
        assert server.requests == [
            ("/v1/questions", {"context": "Ctx sentence.", "domain": "Music", "cap": 2})
        ]

    def test_connection_refused_backend_unavailable(self):
        endpoints = dead_endpoints(questions_url="http://127.0.0.1:9/v1/questions")
        with pytest.raises(BackendUnavailable):
            generate_questions(chunk_of("Some context."), "Gaming", endpoints=endpoints)

    def test_retry_recovers_after_transient_500(self, canned_backend):
        url, server = canned_backend(
            {
                "/v1/questions": [
                    (500, {"error": "flaky"}),
                    (200, {"questions": ["Recovered?"]}),
                ]
            }
        )
        endpoints = BackendEndpointSet(questions_url=f"{url}/v1/questions", max_retries=1)
        questions = generate_questions(chunk_of("Some context."), "Gaming", endpoints=endpoints)
        assert [q.text for q in questions] == ["Recovered?"]
        assert server.hits["/v1/questions"] == 2

    def test_exhausted_retries_raise(self, canned_backend):
        url, server = canned_backend({"/v1/questions": [(500, {"error": "down"})]})
        endpoints = BackendEndpointSet(questions_url=f"{url}/v1/questions", max_retries=1)
        with pytest.raises(BackendUnavailable):
            generate_questions(chunk_of("Some context."), "Gaming", endpoints=endpoints)
        assert server.hits["/v1/questions"] == 2

    def test_422_is_rejected_without_retry(self, canned_backend):
        url, server = canned_backend({"/v1/questions": [(422, {"error": "bad"})]})
        endpoints = BackendEndpointSet(questions_url=f"{url}/v1/questions", max_retries=3)
        with pytest.raises(RequestRejected):
            generate_questions(chunk_of("Some context."), "Gaming", endpoints=endpoints)
        assert server.hits["/v1/questions"] == 1

    def test_non_object_4xx_body_is_rejected(self, canned_backend):
        url, server = canned_backend({"/v1/questions": [(400, [1, 2])]})
        endpoints = BackendEndpointSet(questions_url=f"{url}/v1/questions", max_retries=3)
        with pytest.raises(RequestRejected, match=r"HTTP 400 \[1, 2\]"):
            generate_questions(chunk_of("Some context."), "Gaming", endpoints=endpoints)
        assert server.hits["/v1/questions"] == 1

    def test_deeply_nested_body_is_retried_then_unavailable(self, canned_backend):
        url, server = canned_backend({"/v1/questions": [(200, "[" * 200_000)]})
        endpoints = BackendEndpointSet(questions_url=f"{url}/v1/questions", max_retries=1)
        with pytest.raises(BackendUnavailable):
            generate_questions(chunk_of("Some context."), "Gaming", endpoints=endpoints)
        assert server.hits["/v1/questions"] == 2

    def test_deeply_nested_4xx_body_keeps_text_detail(self, canned_backend):
        url, server = canned_backend({"/v1/questions": [(400, "[" * 200_000)]})
        endpoints = BackendEndpointSet(questions_url=f"{url}/v1/questions", max_retries=3)
        with pytest.raises(RequestRejected, match=r"HTTP 400 \[\[\["):
            generate_questions(chunk_of("Some context."), "Gaming", endpoints=endpoints)
        assert server.hits["/v1/questions"] == 1

    def test_malformed_body_is_unavailable(self, canned_backend):
        url, _ = canned_backend({"/v1/questions": [(200, {"nope": 1})]})
        endpoints = BackendEndpointSet(questions_url=f"{url}/v1/questions", max_retries=0)
        with pytest.raises(BackendUnavailable):
            generate_questions(chunk_of("Some context."), "Gaming", endpoints=endpoints)


class TestRemoteAnswerPhrase:
    def test_trimming_invariant(self, canned_backend):
        url, _ = canned_backend(
            {"/v1/answer_phrase": [(200, {"answer_phrase": "  tensions between states "})]}
        )
        endpoints = BackendEndpointSet(
            answer_phrase_url=f"{url}/v1/answer_phrase", max_retries=0
        )
        question = GeneratedQuestion(chunk_index=0, q_index=0, text="What caused it?")
        phrase = extract_answer_phrase(chunk_of("A context sentence."), question, endpoints)
        assert phrase.text == "tensions between states"

    def test_blank_chunk_is_refused(self):
        question = GeneratedQuestion(chunk_index=0, q_index=0, text="What caused it?")
        with pytest.raises(ValueError, match="^context must be non-empty$"):
            extract_answer_phrase(Chunk(index=0, sentences=()), question)

    def test_blank_phrase_is_empty_generation(self, canned_backend):
        url, _ = canned_backend({"/v1/answer_phrase": [(200, {"answer_phrase": "  "})]})
        endpoints = BackendEndpointSet(
            answer_phrase_url=f"{url}/v1/answer_phrase", max_retries=0
        )
        question = GeneratedQuestion(chunk_index=0, q_index=0, text="What caused it?")
        with pytest.raises(EmptyGeneration):
            extract_answer_phrase(chunk_of("A context sentence."), question, endpoints)


class TestRemoteCompleteAnswer:
    def test_table_row_passthrough(self, canned_backend):
        url, server = canned_backend(
            {"/v1/complete_answer": [(200, {"answer": MARKET_RESEARCH_ANSWER})]}
        )
        endpoints = BackendEndpointSet(
            complete_answer_url=f"{url}/v1/complete_answer", max_retries=0
        )
        question = GeneratedQuestion(chunk_index=0, q_index=0, text=MARKET_RESEARCH_QUESTION)
        phrase = AnswerPhrase(text=MARKET_RESEARCH_PHRASE)
        answer = complete_answer(chunk_of(MARKET_RESEARCH_CONTEXT), question, phrase, endpoints)
        assert answer.text == MARKET_RESEARCH_ANSWER
        assert server.requests[0][1] == {
            "context": MARKET_RESEARCH_CONTEXT,
            "question": MARKET_RESEARCH_QUESTION,
            "answer_phrase": MARKET_RESEARCH_PHRASE,
        }

    def test_terminal_punctuation_normalized(self, canned_backend):
        url, _ = canned_backend(
            {"/v1/complete_answer": [(200, {"answer": "An unterminated reply"})]}
        )
        endpoints = BackendEndpointSet(
            complete_answer_url=f"{url}/v1/complete_answer", max_retries=0
        )
        question = GeneratedQuestion(chunk_index=0, q_index=0, text="What is it?")
        answer = complete_answer(chunk_of("Ctx."), question, AnswerPhrase(text="x"), endpoints)
        assert answer.text == "An unterminated reply."


@contextlib.contextmanager
def serving(server):
    """Serve *server* in a thread; yields its base URL."""
    threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    ).start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()


# 400 questions: a reply larger than the stub server's 8 KiB write buffer.
LONG_CONTEXT = " ".join(f"Topic{i} is sentence number {i} here." for i in range(400))


# Interim replies sent before the 200 on a path's connection.
INTERIM_REPLIES = {
    "/v1/processing": b"HTTP/1.1 102 Processing\r\n\r\n",
    "/v1/hints": b"HTTP/1.1 103 Early Hints\r\nLink: </style.css>; rel=preload\r\n\r\n",
    "/v1/interim": b"HTTP/1.1 102 Processing\r\n\r\n",
}


class AnswersAnyPath(BaseHTTPRequestHandler):
    """Answers every POST with 200 ``{"domain": <path>}`` on a kept-alive
    connection, after the path's interim reply (``INTERIM_REPLIES``), and 0.3 s
    late for /v1/slow and /v1/interim. Records each request's client port in
    ``server.ports``."""

    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):
        pass

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.server.ports.append(self.client_address[1])
        self.wfile.write(INTERIM_REPLIES.get(self.path, b""))
        if self.path in ("/v1/slow", "/v1/interim"):
            time.sleep(0.3)
        data = json.dumps({"domain": self.path}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


@pytest.fixture
def own_routes(monkeypatch):
    """No connections on this thread when the test starts: connections kept
    by earlier tests would move the call at which the thread starts afresh
    (past ``gateway._MAX_ROUTES`` origins)."""
    monkeypatch.setattr(gateway, "_thread", threading.local())


def any_path_server(handler=AnswersAnyPath) -> ThreadingHTTPServer:
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    server.ports = []
    return server


class TestTransport:
    @pytest.mark.parametrize(
        "step,payload",
        [
            ("domain", {"context": THREE_SENTENCES}),
            ("questions", {"context": LONG_CONTEXT, "domain": "Gaming", "cap": 400}),
        ],
    )
    def test_calls_from_one_thread_share_one_connection(self, step, payload):
        server = StubBackendServer(("127.0.0.1", 0))
        ports = []
        accept = server.get_request

        def counted_accept():
            connection, address = accept()
            ports.append(address[1])
            return connection, address

        server.get_request = counted_accept
        seconds = []
        with serving(server) as url:
            for _ in range(20):
                start = time.perf_counter()
                reply = post_json(f"{url}/v1/{step}", payload, BackendEndpointSet())
                seconds.append(time.perf_counter() - start)
                assert step in reply
        assert len(ports) == 1
        # A reply that waits for the client's delayed ACK takes about 40 ms.
        assert statistics.median(seconds) < 0.010

    def test_sends_no_cookies_back(self):
        cookies = []

        class SetsCookie(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, fmt, *args):
                pass

            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                cookies.append(self.headers.get("Cookie"))
                data = b'{"domain": "Gaming"}'
                self.send_response(200)
                self.send_header("Set-Cookie", "session=1; Path=/")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

        server = ThreadingHTTPServer(("127.0.0.1", 0), SetsCookie)
        server.daemon_threads = True
        with serving(server) as url:
            for _ in range(3):
                post_json(f"{url}/v1/domain", {"context": "x"}, BackendEndpointSet())
        assert cookies == [None, None, None]

    def test_connection_sets_tcp_nodelay(self, stub_server_url):
        # Each request goes out in one write, but a write must not wait for
        # the ACK of the one before it on the connection (Nagle).
        url = f"{stub_server_url}/v1/domain"
        post_json(url, {"context": THREE_SENTENCES}, BackendEndpointSet())
        connection = gateway._route(url)[0]
        assert connection.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    def test_each_request_goes_out_in_one_write(self, own_routes, stub_server_url, monkeypatch):
        # A head and body in two writes wake the server twice per call.
        writes = []
        send, caller = socket.socket.sendall, threading.get_ident()

        def recorded(sock, data, *args):
            if threading.get_ident() == caller:
                writes.append(bytes(data))
            return send(sock, data, *args)

        monkeypatch.setattr(socket.socket, "sendall", recorded)
        payload = {"context": THREE_SENTENCES}
        for _ in range(3):
            reply = post_json(f"{stub_server_url}/v1/domain", payload, BackendEndpointSet())
            assert reply == stub_reply("domain", **payload)
        body = json.dumps(payload).encode()
        assert len(writes) == 3
        for write in writes:
            assert write.startswith(b"POST /v1/domain HTTP/1.1\r\n")
            assert write.endswith(b"\r\nContent-Length: %d\r\n\r\n%b" % (len(body), body))

    def test_connection_closed_after_reply_is_reopened_without_a_retry(self):
        class ClosesSilently(AnswersAnyPath):
            def do_POST(self):
                super().do_POST()
                # No "Connection: close": the client finds out on its next call.
                self.close_connection = True

        server = any_path_server(ClosesSilently)
        endpoints = BackendEndpointSet(max_retries=0)
        with serving(server) as url:
            start = time.perf_counter()
            replies = [post_json(f"{url}/v1/domain", {"context": "x"}, endpoints)
                       for _ in range(3)]
            seconds = time.perf_counter() - start
        assert replies == [{"domain": "/v1/domain"}] * 3
        assert len(set(server.ports)) == 3
        assert seconds < RETRY_BASE_DELAY_SECONDS

    def test_close_after_interim_reply_spends_the_attempt(self, own_routes):
        # A server that has sent 100 Continue has the request: a close after
        # it fails the attempt, and the request is not sent again.
        class ClosesAfterInterim(AnswersAnyPath):
            def do_POST(self):
                if self.path != "/v1/closes":
                    return super().do_POST()
                self.rfile.read(int(self.headers["Content-Length"]))
                self.server.ports.append(self.client_address[1])
                self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
                self.close_connection = True

        server = any_path_server(ClosesAfterInterim)
        with serving(server) as url:
            post_json(f"{url}/v1/domain", {}, BackendEndpointSet())
            with pytest.raises(BackendUnavailable):
                post_json(f"{url}/v1/closes", {}, BackendEndpointSet(max_retries=0))
        # Once, on the kept-alive connection of the call before.
        assert len(server.ports) == 2
        assert len(set(server.ports)) == 1

    @pytest.mark.parametrize("path", ["/v1/slow", "/v1/interim"])
    def test_failed_exchange_drops_the_kept_alive_connection(self, own_routes, path):
        # A reply that comes too late, after an interim (1xx) reply or not,
        # fails the call; what the server sends after it must not answer the next.
        server = any_path_server()
        with serving(server) as url:
            healthy = [post_json(f"{url}/v1/domain", {}, BackendEndpointSet())]
            with pytest.raises(BackendUnavailable):
                post_json(f"{url}{path}", {}, BackendEndpointSet(timeout_ms=100, max_retries=0))
            healthy.append(post_json(f"{url}/v1/domain", {}, BackendEndpointSet()))
        assert healthy == [{"domain": "/v1/domain"}] * 2
        assert len(set(server.ports)) == 2

    @pytest.mark.parametrize("path", ["/v1/processing", "/v1/hints"])
    def test_interim_reply_is_skipped(self, own_routes, path):
        # 102 Processing and 103 Early Hints (with its Link header) come before
        # the final reply: each call takes one attempt, on one kept-alive connection.
        server = any_path_server()
        with serving(server) as url:
            replies = [post_json(f"{url}{path}", {}, BackendEndpointSet()) for _ in range(2)]
        assert replies == [{"domain": path}] * 2
        assert len(server.ports) == 2
        assert len(set(server.ports)) == 1

    def test_thread_closes_its_connections_when_it_ends(self, stub_server_url):
        def post():
            post_json(f"{stub_server_url}/v1/domain", {"context": "x"}, BackendEndpointSet())

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            thread = threading.Thread(target=post)
            thread.start()
            thread.join(10)
            gc.collect()
        assert not thread.is_alive()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_many_urls_do_not_keep_many_connections(self, own_routes, monkeypatch):
        server = any_path_server()
        with serving(server) as url:
            for index in range(gateway._MAX_ROUTES + 1):
                post_json(f"{url}/v1/{index}", {}, BackendEndpointSet())
        # Every URL is on one origin, so they all share one connection.
        assert len(set(server.ports)) == 1
        # A third origin past two closes the thread's connections, so calling
        # the first origin again opens a new one.
        monkeypatch.setattr(gateway, "_MAX_ROUTES", 2)
        monkeypatch.setattr(gateway, "_thread", threading.local())
        servers = [any_path_server() for _ in range(3)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with contextlib.ExitStack() as stack:
                urls = [stack.enter_context(serving(server)) for server in servers]
                connections = []
                for url in urls + urls[:1]:
                    post_json(f"{url}/v1/domain", {}, BackendEndpointSet())
                    connections.append(gateway._route(f"{url}/v1/domain")[0])
            gc.collect()
        assert [connection.sock for connection in connections[:2]] == [None, None]
        assert connections[3] is not connections[0]
        assert [len(set(server.ports)) for server in servers] == [2, 1, 1]
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_each_url_is_resolved_once_per_process(
        self, own_routes, monkeypatch, stub_server_url, fixture_document_text, request
    ):
        # Each run() with several workers starts new threads: they open
        # their own connections, but read the environment for no URL again.
        gateway._resolve.cache_clear()
        request.addfinalizer(gateway._resolve.cache_clear)
        looked_up = []
        original = gateway.requests.utils.get_environ_proxies

        def counted(url, *args, **kwargs):
            looked_up.append(url)
            time.sleep(0.005)  # long enough for the other workers to ask too
            return original(url, *args, **kwargs)

        monkeypatch.setattr(gateway.requests.utils, "get_environ_proxies", counted)
        urls = {f"{step}_url": f"{stub_server_url}/v1/{step}" for step in STUB_HANDLERS}
        config = PipelineConfig(chunk_size_words=10, worker_count=4,
                                endpoints=BackendEndpointSet(**urls, max_retries=0))
        document = SourceDocument.from_text("doc", fixture_document_text)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # threads that race to resolve a URL meet
        try:
            first, second = run(document, config), run(document, config)
        finally:
            sys.setswitchinterval(interval)
        assert first.total_generated > 0
        assert first.to_json() == second.to_json()
        assert sorted(looked_up) == sorted(urls.values())

    def test_redirect_is_rejected_not_followed(self, canned_backend):
        target_url, target = canned_backend({"/v1/domain": [(200, {"domain": "Music"})]})
        moved = {"Location": f"{target_url}/v1/domain"}
        url, server = canned_backend({"/v1/domain": [(307, {"error": "moved"}, moved)]})
        with pytest.raises(RequestRejected, match="HTTP 307 moved"):
            post_json(f"{url}/v1/domain", {"context": "x"}, BackendEndpointSet(max_retries=3))
        assert server.hits == {"/v1/domain": 1}
        assert target.hits == {}

    @pytest.mark.parametrize("url", [
        "ftp://127.0.0.1/v1/domain",
        "http:///v1/domain",
        "http://127.0.0.1:99999/v1/domain",
        f"http://{'a' * 64}.invalid/v1/domain",  # a label no resolver takes
    ])
    def test_unusable_url_is_unavailable_at_once(self, url):
        start = time.perf_counter()
        with pytest.raises(BackendUnavailable, match="cannot be used"):
            post_json(url, {"context": "x"}, BackendEndpointSet(max_retries=10))
        assert time.perf_counter() - start < RETRY_BASE_DELAY_SECONDS


class TestInternationalisedHost:
    # An internationalised name goes out in IDNA (ASCII) form: in the
    # address, the Host header, the connection key and the TLS server name.

    @pytest.mark.parametrize("url, ascii_url", [
        ("http://bücher.example:8080/v1/domain", "http://xn--bcher-kva.example:8080/v1/domain"),
        ("http://user:pw@BÜCHER.example/v1/d?q=ü", "http://user:pw@xn--bcher-kva.example/v1/d?q=ü"),
    ])
    def test_route_is_that_of_the_idna_name(self, url, ascii_url):
        assert gateway._resolve(url) == gateway._resolve(ascii_url)
        assert b"Host: xn--bcher-kva.example" in gateway._resolve(url)[1]

    def test_label_idna_rejects_is_unavailable_at_once(self):
        with pytest.raises(BackendUnavailable, match="cannot be used"):
            post_json("http://b\ufffdcher.invalid/v1/domain", {"context": "x"},
                      BackendEndpointSet(max_retries=10))


class TestCallDeadline:
    """``timeout_ms`` bounds one call in total: attempts, reconnections and
    backoff sleeps."""

    TIMEOUT_MS = 300
    # Scheduling and a one-chunk run; far below one backoff round trip.
    MARGIN_S = 0.5

    @pytest.fixture
    def sleeping_backend(self):
        """A backend that holds every request until the test ends."""
        release = threading.Event()
        hits = []

        class Sleeps(BaseHTTPRequestHandler):
            def log_message(self, fmt, *args):
                pass

            def do_POST(self):
                hits.append(self.path)
                release.wait(10)

        server = ThreadingHTTPServer(("127.0.0.1", 0), Sleeps)
        server.daemon_threads = True
        with serving(server) as url:
            yield url, hits
            release.set()

    def endpoints(self, **urls) -> BackendEndpointSet:
        return BackendEndpointSet(**urls, timeout_ms=self.TIMEOUT_MS, max_retries=10)

    def test_post_json_ends_at_the_deadline(self, sleeping_backend):
        url, hits = sleeping_backend
        start = time.perf_counter()
        with pytest.raises(BackendUnavailable, match="after 1 attempt.*timed out"):
            post_json(f"{url}/v1/domain", {"context": "x"}, self.endpoints())
        seconds = time.perf_counter() - start
        assert self.TIMEOUT_MS / 1000 <= seconds < self.TIMEOUT_MS / 1000 + self.MARGIN_S
        assert hits == ["/v1/domain"]

    @pytest.mark.parametrize("step,kind", [("questions", "ChunkSkipped"),
                                           ("answer_phrase", "QuestionDropped")])
    def test_run_ends_within_the_deadline(self, sleeping_backend, step, kind):
        url, _ = sleeping_backend
        config = PipelineConfig(endpoints=self.endpoints(**{f"{step}_url": f"{url}/v1/{step}"}))
        document = SourceDocument.from_text("doc", "Cats sleep daily.")
        start = time.perf_counter()
        result = run(document, config)
        assert time.perf_counter() - start < self.TIMEOUT_MS / 1000 + self.MARGIN_S
        assert kind in [w.kind for w in result.warnings]


class TestTrickledReply:
    """A reply whose body, or whose status line and headers too, come a byte
    at a time: ``timeout_ms`` bounds their reading too, and a body that ends
    in time is read whole, over the kept-alive connection."""

    BODY = b" " * 40 + b'{"domain": "Gaming"}'

    @pytest.fixture
    def trickling_backend(self):
        """Starts a backend that sends a byte of ``BODY`` per *interval*
        seconds: at /v1/length with a Content-Length, at /v1/chunked as one
        chunk per byte, and at /v1/head with a Content-Length after a status
        line and headers sent a byte per *interval* too."""
        release = threading.Event()
        servers = []

        class Trickles(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, fmt, *args):
                pass

            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                self.server.ports.append(self.client_address[1])
                chunked = self.path == "/v1/chunked"
                reply = TestTrickledReply.BODY
                if self.path == "/v1/head":
                    head = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(reply)
                    reply = head + reply
                else:
                    self.send_response(200)
                    if chunked:
                        self.send_header("Transfer-Encoding", "chunked")
                    else:
                        self.send_header("Content-Length", str(len(reply)))
                    self.end_headers()
                try:
                    for byte in reply:
                        if release.wait(self.server.interval):
                            return
                        piece = bytes([byte])
                        self.wfile.write(b"1\r\n%b\r\n" % piece if chunked else piece)
                    if chunked:
                        self.wfile.write(b"0\r\n\r\n")
                except OSError:  # the client stopped reading
                    self.close_connection = True

        def start(interval: float) -> tuple[str, ThreadingHTTPServer]:
            server = any_path_server(Trickles)
            server.interval = interval
            servers.append(server)
            serve_in_thread(server)
            return f"http://127.0.0.1:{server.server_address[1]}", server

        yield start
        release.set()
        for server in servers:
            server.shutdown()
            server.server_close()

    @pytest.mark.parametrize("framing", ["length", "chunked"])
    def test_trickled_body_ends_at_the_deadline(self, trickling_backend, framing):
        # Sent whole, the body would take 3 s.
        url, _ = trickling_backend(interval=0.05)
        start = time.perf_counter()
        with pytest.raises(BackendUnavailable, match="after 1 attempt.*timed out"):
            post_json(f"{url}/v1/{framing}", {"context": "x"},
                      BackendEndpointSet(timeout_ms=300, max_retries=0))
        assert 0.3 <= time.perf_counter() - start < 0.8

    @pytest.mark.parametrize("framing", ["length", "chunked"])
    def test_trickled_body_in_time_is_read_whole(self, own_routes, trickling_backend, framing):
        url, server = trickling_backend(interval=0.001)
        for _ in range(2):
            reply = post_json(f"{url}/v1/{framing}", {"context": "x"}, BackendEndpointSet())
            assert reply == {"domain": "Gaming"}
        # The first reply was read to its end, so the second call reused its
        # connection.
        assert len(server.ports) == 2
        assert len(set(server.ports)) == 1

    def test_trickled_header_block_ends_at_the_deadline(self, trickling_backend):
        # Sent whole, the status line and headers alone would take 2 s.
        url, _ = trickling_backend(interval=0.05)
        start = time.perf_counter()
        with pytest.raises(BackendUnavailable, match="after 1 attempt.*timed out"):
            post_json(f"{url}/v1/head", {"context": "x"},
                      BackendEndpointSet(timeout_ms=300, max_retries=0))
        assert 0.3 <= time.perf_counter() - start < 0.8

    def test_trickled_proxy_reply_to_connect_ends_at_the_deadline(self, monkeypatch):
        # An HTTPS URL is tunnelled through its proxy, whose reply to CONNECT
        # would take 2 s sent whole.
        listener = socket.create_server(("127.0.0.1", 0))
        release = threading.Event()

        def trickle():
            connection, _ = listener.accept()
            with connection:
                connection.recv(65536)
                for byte in b"HTTP/1.1 200 Connection established\r\n\r\n":
                    if release.wait(0.05):
                        return
                    with contextlib.suppress(OSError):  # the client stopped reading
                        connection.sendall(bytes([byte]))

        thread = threading.Thread(target=trickle)
        thread.start()
        set_proxy_environment(monkeypatch, "")
        monkeypatch.setenv("HTTPS_PROXY", f"http://127.0.0.1:{listener.getsockname()[1]}")
        start = time.perf_counter()
        try:
            with pytest.raises(BackendUnavailable, match="after 1 attempt.*timed out"):
                post_json("https://connect-trickle.invalid/v1/domain", {"context": "x"},
                          BackendEndpointSet(timeout_ms=300, max_retries=0))
            assert 0.3 <= time.perf_counter() - start < 0.8
        finally:
            release.set()
            thread.join(5)
            listener.close()
        assert not thread.is_alive()


MiB = 1024 * 1024
OK_HEAD = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"


class TestReplyFraming:
    """Replies framed each way HTTP/1.1 allows, and framings the client
    refuses: a status that is not three ASCII digits, a length that is not
    ASCII digits, or a body past ``MAX_BODY_BYTES`` (``gateway.body_length``).
    A refused reply is retried like any malformed one, so it ends in
    BackendUnavailable."""

    @pytest.fixture
    def raw_backend(self):
        """Starts a backend that reads each request whole, sends *reply* as it
        is and closes the connection."""
        servers = []

        class SendsReply(socketserver.BaseRequestHandler):
            def handle(self):
                request = b""
                while b"\r\n\r\n" not in request:
                    request += self.request.recv(65536)
                head, _, body = request.partition(b"\r\n\r\n")
                length = int(head.rpartition(b"Content-Length: ")[2])
                while len(body) < length:
                    body += self.request.recv(65536)
                with contextlib.suppress(OSError):  # the client stopped reading
                    self.request.sendall(self.server.reply)

        def start(reply: bytes) -> str:
            server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), SendsReply)
            server.daemon_threads, server.reply = True, reply
            servers.append(server)
            serve_in_thread(server)
            return f"http://127.0.0.1:{server.server_address[1]}/v1/domain"

        yield start
        for server in servers:
            server.shutdown()
            server.server_close()

    @pytest.mark.parametrize(
        "reply, error",
        [
            pytest.param(OK_HEAD + b"Content-Length: 99999999999999\r\n\r\n{}",
                         "body exceeds 16777216 bytes", id="huge-length"),
            pytest.param(OK_HEAD + b"Transfer-Encoding: chunked\r\n\r\nffffffffffffff\r\n{}",
                         "body exceeds 16777216 bytes", id="huge-chunk"),
            pytest.param(OK_HEAD + b"Content-Length: 0_2\r\n\r\n{}",
                         "must be ASCII digits", id="underscore-length"),
            pytest.param(OK_HEAD + b"Transfer-Encoding: chunked\r\n\r\n0x2\r\n{}\r\n0\r\n\r\n",
                         "must be ASCII digits", id="0x-chunk"),
            pytest.param(OK_HEAD + b"Transfer-Encoding: chunked\r\n\r\n800000\r\n"
                         + b" " * (8 * MiB) + b"\r\n800001\r\n",
                         "body exceeds 16777216 bytes", id="chunks-past-the-bound"),
            pytest.param(OK_HEAD + b"\r\n" + b" " * (16 * MiB + 1),
                         "body exceeds 16777216 bytes", id="no-length-past-the-bound"),
            pytest.param(OK_HEAD + b"Content-Length: 20\r\n\r\n{}",
                         "reply body is 2 bytes, not 20", id="cut-short"),
            pytest.param(b"HTTP/1.1 1_0 Odd\r\n\r\n", "not a status line", id="underscore-status"),
            pytest.param(b"HTTP/1.1 +99 Odd\r\n\r\n", "not a status line", id="signed-status"),
        ],
    )
    def test_refused_reply_is_backend_unavailable(self, raw_backend, reply, error):
        url = raw_backend(reply)
        with pytest.raises(BackendUnavailable, match=f"after 1 attempt.*{error}"):
            post_json(url, {"context": "x"}, BackendEndpointSet(max_retries=0))

    @pytest.mark.parametrize(
        "reply",
        [
            pytest.param(OK_HEAD + b"Transfer-Encoding: chunked\r\n\r\n"
                         b"C\r\n{\"domain\": \"\r\n08;name=value\r\nGaming\"}\r\n"
                         b"0\r\nX-Checksum: 1\r\nX-Other: 2\r\n\r\n", id="chunks-and-trailers"),
            pytest.param(OK_HEAD + b"\r\n{\"domain\": \"Gaming\"}", id="read-to-its-end"),
        ],
    )
    def test_reply_is_read_whole(self, raw_backend, reply):
        url = raw_backend(reply)
        for _ in range(2):
            assert post_json(url, {"context": "x"}, BackendEndpointSet(max_retries=0)) == {
                "domain": "Gaming"
            }


class TestLazyTransportImports:
    # requests and ssl load on the first URL that needs them, yet
    # gateway.requests stays the module bench/tracing.py counts posts through.

    def test_gateway_requests_is_the_requests_module(self):
        module = gateway.requests
        assert module is sys.modules["requests"]
        assert callable(module.post)

    def test_other_names_are_absent(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            gateway.no_such_name

    def test_https_url_routes_through_an_ssl_context(self, monkeypatch):
        monkeypatch.delenv("REQUESTS_CA_BUNDLE", raising=False)
        monkeypatch.delenv("CURL_CA_BUNDLE", raising=False)
        _, _, (_, _, tls) = gateway._resolve("https://lazy-ssl.invalid/v1/domain")
        assert isinstance(tls[0], ssl.SSLContext)
        assert tls[1] == "lazy-ssl.invalid"


class TestCaBundleEnvironment:
    # The environment is read once per process and URL, so each case posts
    # to a URL that no other test uses.

    @pytest.mark.parametrize("variable", ["REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE"])
    def test_missing_ca_bundle_makes_https_url_unusable_at_once(
        self, monkeypatch, tmp_path, variable
    ):
        # REQUESTS_CA_BUNDLE wins over CURL_CA_BUNDLE, so neither is left set
        # from the environment the tests run in.
        monkeypatch.delenv("REQUESTS_CA_BUNDLE", raising=False)
        monkeypatch.delenv("CURL_CA_BUNDLE", raising=False)
        monkeypatch.setenv(variable, str(tmp_path / "missing.pem"))
        url = f"https://{variable.lower().replace('_', '-')}.invalid/v1/domain"
        start = time.perf_counter()
        with pytest.raises(BackendUnavailable, match="cannot be used"):
            post_json(url, {"context": "x"}, BackendEndpointSet(max_retries=10))
        assert time.perf_counter() - start < RETRY_BASE_DELAY_SECONDS


TLS = FIXTURES / "tls"


class TestTlsRoundTrip:
    """The stub server over TLS, with the test-only certificate and CAs in
    tests/fixtures/tls. Each case posts to a URL that no other test uses: the
    environment is read once per process and URL."""

    @pytest.fixture
    def tls_stub_server(self, own_routes, monkeypatch):
        """Serves the stub over TLS; yields its port and the client address
        of each connection it accepted."""
        set_proxy_environment(monkeypatch, "")
        server = StubBackendServer(("127.0.0.1", 0))
        context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        context.load_cert_chain(TLS / "server.pem", TLS / "server.key")
        server.socket = context.wrap_socket(server.socket, server_side=True)
        accepted = []
        accept = server.get_request

        def counted_accept():
            connection, address = accept()
            accepted.append(address)
            return connection, address

        server.get_request = counted_accept
        with serving(server):
            yield server.server_address[1], accepted

    def test_calls_share_one_verified_connection(self, tls_stub_server, monkeypatch):
        port, accepted = tls_stub_server
        monkeypatch.setenv("REQUESTS_CA_BUNDLE", str(TLS / "ca.pem"))
        payload = {"context": THREE_SENTENCES}
        for _ in range(2):
            reply = post_json(f"https://localhost:{port}/v1/domain", payload,
                              BackendEndpointSet(max_retries=0))
            assert reply == stub_reply("domain", **payload)
        assert len(accepted) == 1

    def test_ca_that_did_not_sign_the_certificate_is_unavailable(
        self, tls_stub_server, monkeypatch
    ):
        port, _ = tls_stub_server
        monkeypatch.setenv("REQUESTS_CA_BUNDLE", str(TLS / "other-ca.pem"))
        with pytest.raises(BackendUnavailable, match="certificate verify failed"):
            post_json(f"https://127.0.0.1:{port}/v1/domain", {"context": "x"},
                      BackendEndpointSet(max_retries=0))


def set_proxy_environment(monkeypatch, proxy_url: str, no_proxy: str = "") -> None:
    for name in ("HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.lower(), raising=False)
    monkeypatch.setenv("HTTP_PROXY", proxy_url)
    monkeypatch.setenv("NO_PROXY", no_proxy)


class TestProxyEnvironment:
    # The environment is read once per process and URL, so each case posts
    # to a URL that no other test uses.

    def test_http_proxy_receives_the_absolute_uri(self, canned_backend, monkeypatch):
        url = "http://backend.invalid/v1/domain"
        proxy_url, proxy = canned_backend({url: [(200, {"domain": "Gaming"})]})
        set_proxy_environment(monkeypatch, proxy_url)
        reply = post_json(url, {"context": "x"}, BackendEndpointSet(max_retries=0))
        assert reply == {"domain": "Gaming"}
        assert proxy.requests == [(url, {"context": "x"})]

    def test_internationalised_name_reaches_the_proxy_in_idna(self, canned_backend,
                                                               monkeypatch):
        sent = "http://xn--bcher-kva.invalid/v1/domain"
        proxy_url, proxy = canned_backend({sent: [(200, {"domain": "Gaming"})]})
        set_proxy_environment(monkeypatch, proxy_url)
        reply = post_json("http://bücher.invalid/v1/domain", {"context": "x"},
                          BackendEndpointSet(max_retries=0))
        assert reply == {"domain": "Gaming"}
        assert proxy.requests == [(sent, {"context": "x"})]

    def test_no_proxy_host_is_reached_directly(self, canned_backend, monkeypatch):
        # A local backend, so that no test resolves a name.
        proxy_url, proxy = canned_backend({})
        backend_url, backend = canned_backend({"/v1/domain": [(200, {"domain": "Music"})]})
        set_proxy_environment(monkeypatch, proxy_url, no_proxy="127.0.0.1")
        reply = post_json(
            f"{backend_url}/v1/domain", {"context": "x"}, BackendEndpointSet(max_retries=0)
        )
        assert reply == {"domain": "Music"}
        assert backend.requests == [("/v1/domain", {"context": "x"})]
        assert proxy.requests == []

    def test_proxy_that_is_not_plain_http_is_refused(self, monkeypatch, request):
        gateway._resolve.cache_clear()
        request.addfinalizer(gateway._resolve.cache_clear)
        set_proxy_environment(monkeypatch, "https://proxy.invalid:3128")
        url = "http://tls-proxy.invalid/v1/domain"
        with pytest.raises(BackendUnavailable) as excinfo:
            post_json(url, {"context": "x"}, BackendEndpointSet(max_retries=0))
        assert str(excinfo.value) == (
            f"{url} cannot be used: not a plain-HTTP proxy: 'https://proxy.invalid:3128'"
        )

    @pytest.mark.parametrize("scheme,request_line", [
        ("http", "POST http://credentials.invalid/v1/domain"),
        ("https", "CONNECT credentials.invalid:443"),
    ])
    def test_proxy_credentials_become_proxy_authorization(self, monkeypatch, scheme,
                                                          request_line):
        # A plain-HTTP proxy is sent the request; an HTTPS one is tunnelled.
        server = RecordingServer()
        with serving(server) as proxy_url:
            set_proxy_environment(monkeypatch, proxy_url.replace("//", "//user:secret@"))
            monkeypatch.setenv("HTTPS_PROXY", proxy_url.replace("//", "//user:secret@"))
            with pytest.raises(GatewayError):
                post_json(f"{scheme}://credentials.invalid/v1/domain", {"context": "x"},
                          BackendEndpointSet(max_retries=0))
        assert server.seen == [(request_line, "Basic dXNlcjpzZWNyZXQ=", None)]

    def test_netrc_credentials_become_authorization(self, monkeypatch, tmp_path):
        netrc = tmp_path / "netrc"
        netrc.write_text("machine 127.0.0.1 login user password secret\n")
        monkeypatch.setenv("NETRC", str(netrc))
        server = RecordingServer()
        with serving(server) as url:
            with pytest.raises(GatewayError):
                post_json(f"{url}/v1/netrc", {"context": "x"}, BackendEndpointSet(max_retries=0))
        assert server.seen == [("POST /v1/netrc", None, "Basic dXNlcjpzZWNyZXQ=")]


class _RecordingHandler(BaseHTTPRequestHandler):
    def log_message(self, fmt, *args):
        pass

    def _record_and_refuse(self):
        headers = self.headers
        self.server.seen.append((f"{self.command} {self.path}",
                                 headers.get("Proxy-Authorization"), headers.get("Authorization")))
        self.send_error(403)

    do_POST = do_CONNECT = _record_and_refuse


class RecordingServer(ThreadingHTTPServer):
    """Records each request's line and its two credential headers, and
    refuses it with 403."""

    daemon_threads = True

    def __init__(self):
        self.seen: list[tuple[str, str | None, str | None]] = []
        super().__init__(("127.0.0.1", 0), _RecordingHandler)


# Replies a remote backend might send. Text may hold an escaped lone
# surrogate: json.dumps escapes it, so the body itself is ASCII.
REPLY_TEXT = st.one_of(
    st.sampled_from(["Music", "Gaming", "What is it?", "dogs bark", "It is.", " ", ""]),
    st.text(max_size=12),
    st.text(st.characters(categories=["Cs", "Lu", "Zs"]), min_size=1, max_size=4),
)
JSON_REPLY = st.recursive(
    st.none() | st.booleans() | st.integers() | REPLY_TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["error", "domain", "questions"]) | st.text(max_size=4),
                      inner, max_size=3),
    max_leaves=6,
)
STEPS = ("domain", "questions", "answer_phrase", "complete_answer")
REPLY_KEYS = {"domain": "domain", "questions": "questions", "answer_phrase": "answer_phrase",
              "complete_answer": "answer"}


def reply_body(step: str) -> st.SearchStrategy:
    """A reply body for *step*: mostly of the step's shape or an error."""
    key = REPLY_KEYS[step]
    text = st.lists(REPLY_TEXT, max_size=3) if step == "questions" else REPLY_TEXT
    return st.one_of(
        st.builds(json.dumps, st.fixed_dictionaries({key: text})),
        st.builds(json.dumps, st.fixed_dictionaries({"error": REPLY_TEXT})),
        st.builds(json.dumps, JSON_REPLY),
        st.sampled_from([b"[" * 100_000, b"\xff\xfe", b""]),
        st.binary(max_size=30),
    )


# Any status, 1xx and 3xx too: the canned backend sends no Location header,
# so no redirect is followed.
STATUS = st.sampled_from([200, 200, 200, 200, 422, 500, 204, 301, 100]) | st.integers(100, 599)


@pytest.fixture(scope="module")
def any_reply_backend():
    server = CannedBackend({})
    serve_in_thread(server)
    yield f"http://127.0.0.1:{server.server_address[1]}", server
    server.shutdown()
    server.server_close()


class TestAnyReplyProperty:
    @settings(max_examples=60, deadline=None)
    @given(replies=st.fixed_dictionaries(
        {step: st.tuples(STATUS, reply_body(step)) for step in STEPS}
    ))
    def test_each_step_returns_or_raises_gateway_error(self, any_reply_backend, replies):
        url, server = any_reply_backend
        server.script = {f"/v1/{step}": [reply] for step, reply in replies.items()}
        endpoints = BackendEndpointSet(
            **{f"{step}_url": f"{url}/v1/{step}" for step in STEPS},
            max_retries=0, timeout_ms=2000,
        )
        chunk = chunk_of(THREE_SENTENCES)
        question = GeneratedQuestion(chunk_index=0, q_index=0, text="What about dogs?")
        steps = [
            lambda: [identify_domain(chunk, endpoints=endpoints)],
            lambda: [q.text for q in generate_questions(chunk, "Gaming", endpoints=endpoints)],
            lambda: [extract_answer_phrase(chunk, question, endpoints).text],
            lambda: [
                complete_answer(chunk, question, AnswerPhrase("dogs"), endpoints).text
            ],
        ]
        for step, call in zip(STEPS, steps):
            try:
                texts = call()
            except GatewayError:
                continue
            except InvalidDomain:
                assert step == "domain"
                continue
            for text in texts:
                text.encode("utf-8")
        result = run(
            SourceDocument.from_text("doc", THREE_SENTENCES),
            PipelineConfig(endpoints=endpoints, chunk_size_words=3),
        )
        assert isinstance(result, FaqResult)
        result.to_json().encode("utf-8")
