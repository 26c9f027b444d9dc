from __future__ import annotations

import json
import socket
import sys

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from faqgen.chunker import Chunk, SourceDocument, segment_sentences
from faqgen.domains import classify, default_lexicon
from faqgen.gateway import (
    BackendEndpointSet,
    generate_questions,
    stub_answer_phrase,
    stub_complete_answer,
    stub_question_texts,
)
from faqgen.pipeline import PipelineConfig, run
from faqgen.stubserver import MAX_BODY_BYTES, BindFailure, create_server

CONTEXT = "Cats sleep daily. Dogs bark loudly. Birds fly south."

# Lexicon terms, stopwords (stopword-only sentences have no question anchor)
# and a punctuation-only token (a sentence of it has no tokens at all).
WORDS = ["cats", "dogs", "music", "football", "quantum", "melody", "sentence",
         "the", "it", "is", "of", "--"]
SENTENCES = st.builds(
    lambda words, end: " ".join(words).capitalize() + end,
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=8),
    st.sampled_from([".", "!", "?", ""]),
)


def post(url, path, payload):
    return requests.post(f"{url}{path}", json=payload, timeout=5)


class TestHealthAndRouting:
    def test_health(self, stub_server_url):
        response = requests.get(f"{stub_server_url}/v1/health", timeout=5)
        assert response.status_code == 200
        assert response.json() == {"status": "ok"}

    def test_unknown_path_404(self, stub_server_url):
        assert post(stub_server_url, "/v1/nothing", {}).status_code == 404
        assert requests.get(f"{stub_server_url}/v1/missing", timeout=5).status_code == 404

    def test_invalid_json_422(self, stub_server_url):
        response = requests.post(
            f"{stub_server_url}/v1/domain", data=b"not json", timeout=5
        )
        assert response.status_code == 422
        assert "error" in response.json()

    def test_deeply_nested_json_422(self, stub_server_url):
        response = requests.post(
            f"{stub_server_url}/v1/domain", data=b"[" * 200_000, timeout=5
        )
        assert response.status_code == 422
        assert "error" in response.json()
        assert requests.get(f"{stub_server_url}/v1/health", timeout=5).status_code == 200

    @pytest.mark.parametrize(
        "path, body",
        [
            ("/v1/questions", r'{"context": "\ud800 Hello world.", "domain": "Music", "cap": 1}'),
            ("/v1/answer_phrase", r'{"context": "Hello world. \udc00", "question": "What?"}'),
        ],
    )
    def test_lone_surrogate_422(self, stub_server_url, path, body):
        # Valid JSON, but a reply echoing the surrogate cannot be UTF-8.
        response = requests.post(f"{stub_server_url}{path}", data=body.encode(), timeout=5)
        assert response.status_code == 422
        assert isinstance(response.json()["error"], str)
        assert requests.get(f"{stub_server_url}/v1/health", timeout=5).status_code == 200


class TestValidation:
    @pytest.mark.parametrize(
        "path,payload",
        [
            ("/v1/domain", {"context": "   "}),
            ("/v1/questions", {"context": "", "domain": "Gaming", "cap": 3}),
            ("/v1/answer_phrase", {"context": " ", "question": "What?"}),
            ("/v1/complete_answer", {"context": "", "question": "What?", "answer_phrase": "x"}),
        ],
    )
    def test_blank_context_422(self, stub_server_url, path, payload):
        response = post(stub_server_url, path, payload)
        assert response.status_code == 422
        assert "error" in response.json()

    def test_unknown_domain_422(self, stub_server_url):
        response = post(
            stub_server_url,
            "/v1/questions",
            {"context": CONTEXT, "domain": "Astrology", "cap": 3},
        )
        assert response.status_code == 422

    def test_cap_below_one_422(self, stub_server_url):
        response = post(
            stub_server_url,
            "/v1/questions",
            {"context": CONTEXT, "domain": "Gaming", "cap": 0},
        )
        assert response.status_code == 422

    def test_missing_question_422(self, stub_server_url):
        response = post(stub_server_url, "/v1/answer_phrase", {"context": CONTEXT})
        assert response.status_code == 422


class TestRoundTrip:
    def test_questions_match_in_process_stub(self, stub_server_url):
        response = post(
            stub_server_url,
            "/v1/questions",
            {"context": CONTEXT, "domain": "Diaries and Daily Life", "cap": 5},
        )
        assert response.status_code == 200
        assert response.json() == {
            "questions": stub_question_texts(segment_sentences(CONTEXT), 5)
        }

    def test_domain_matches_lexicon_classifier(self, stub_server_url):
        context = "The quantum experiment used new laboratory technology."
        response = post(stub_server_url, "/v1/domain", {"context": context})
        assert response.json() == {"domain": classify(context, default_lexicon())}

    def test_answer_phrase_and_completion_match(self, stub_server_url):
        question = "What does the passage state about dogs?"
        phrase = post(
            stub_server_url, "/v1/answer_phrase", {"context": CONTEXT, "question": question}
        )
        assert phrase.json() == {
            "answer_phrase": stub_answer_phrase(segment_sentences(CONTEXT), question)
        }
        answer = post(
            stub_server_url,
            "/v1/complete_answer",
            {"context": CONTEXT, "question": question, "answer_phrase": phrase.json()["answer_phrase"]},
        )
        assert answer.json() == {
            "answer": stub_complete_answer(segment_sentences(CONTEXT), question)
        }

    def test_gateway_client_against_stub_server_equals_in_process(self, stub_server_url):
        endpoints = BackendEndpointSet(
            questions_url=f"{stub_server_url}/v1/questions", max_retries=0
        )
        chunk = Chunk(index=7, sentences=tuple(segment_sentences(CONTEXT)))
        remote = generate_questions(chunk, "Diaries and Daily Life", endpoints=endpoints)
        local = generate_questions(chunk, "Diaries and Daily Life")
        assert remote == local


def read_reply(sock: socket.socket) -> tuple[bytes, bytes] | None:
    """One reply's status code and body from *sock*, or None when the
    server has closed the connection instead of replying."""
    data = b""
    try:
        while b"\r\n\r\n" not in data:
            chunk = sock.recv(4096)
            if not chunk:
                return None
            data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        length = int(next(
            line.split(b":")[1] for line in head.split(b"\r\n")
            if line.lower().startswith(b"content-length:")
        ))
        while len(body) < length:
            chunk = sock.recv(4096)
            if not chunk:
                return None
            body += chunk
    except ConnectionResetError:
        return None
    return head.split()[1], body


def connect(url: str) -> socket.socket:
    host, port = url.removeprefix("http://").split(":")
    return socket.create_connection((host, int(port)), timeout=5)


def raw_post(url: str, head: str, body: str) -> tuple[bytes, dict]:
    """Send *head* and *body* on one socket and return the reply's status
    code and JSON body."""
    with connect(url) as sock:
        sock.sendall(f"{head}\r\n\r\n{body}".encode("ascii"))
        status, payload = read_reply(sock)
    return status, json.loads(payload)


class TestFraming:
    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_bad_content_length_400(self, stub_server_url, length):
        status, payload = raw_post(
            stub_server_url, f"POST /v1/domain HTTP/1.0\r\nContent-Length: {length}", "{}"
        )
        assert status == b"400"
        assert "error" in payload

    def test_oversized_content_length_413_without_reading_body(self, stub_server_url):
        # Only two bytes of the declared body are ever sent: a server that
        # tried to read it all would wait until the client timed out.
        status, payload = raw_post(
            stub_server_url,
            f"POST /v1/domain HTTP/1.0\r\nContent-Length: {MAX_BODY_BYTES + 1}",
            "{}",
        )
        assert status == b"413"
        assert "error" in payload


DOMAIN_BODY = json.dumps({"context": CONTEXT})
DOMAIN_REQUEST = (
    f"POST /v1/domain HTTP/1.1\r\nHost: stub\r\nContent-Length: {len(DOMAIN_BODY)}"
    f"\r\n\r\n{DOMAIN_BODY}"
).encode("ascii")


def domain_reply() -> tuple[bytes, bytes]:
    body = {"domain": classify(CONTEXT, default_lexicon())}
    return b"200", json.dumps(body, ensure_ascii=False).encode("utf-8")


UNREAD_BODY = '{"context": "x"}'


class TestKeepAlive:
    def test_requests_share_one_connection(self, stub_server_url):
        with connect(stub_server_url) as sock:
            for _ in range(3):
                sock.sendall(DOMAIN_REQUEST)
                assert read_reply(sock) == domain_reply()

    @pytest.mark.parametrize(
        "head,status",
        [
            (f"POST /v1/missing HTTP/1.1\r\nContent-Length: {len(UNREAD_BODY)}", b"404"),
            ("POST /v1/domain HTTP/1.1\r\nContent-Length: abc", b"400"),
            (f"POST /v1/domain HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES + 1}", b"413"),
            # The server reads only bodies framed by Content-Length.
            ("POST /v1/domain HTTP/1.1\r\nTransfer-Encoding: chunked", b"400"),
        ],
    )
    def test_unread_body_is_never_the_next_request(self, stub_server_url, head, status):
        # The server answers before reading the body. If the connection
        # stayed open, the body would be parsed as the next request line.
        with connect(stub_server_url) as sock:
            sock.sendall(f"{head}\r\nHost: stub\r\n\r\n{UNREAD_BODY}".encode("ascii"))
            reply = read_reply(sock)
            assert reply is not None and reply[0] == status
            try:
                sock.sendall(DOMAIN_REQUEST)
            except (BrokenPipeError, ConnectionResetError):
                return
            assert read_reply(sock) in (None, domain_reply())


class TestOfflineEqualsHttp:
    @given(
        sentences=st.lists(SENTENCES, min_size=1, max_size=8),
        chunk_size=st.integers(3, 30),
        cap=st.integers(1, 5),
        count=st.integers(1, 12),
    )
    @settings(max_examples=30, deadline=None)
    def test_pipeline_output_is_the_same(self, stub_server_url, sentences, chunk_size, cap, count):
        document = SourceDocument.from_text("doc", " ".join(sentences))
        offline = PipelineConfig(
            chunk_size_words=chunk_size, question_cap=cap, requested_faq_count=count,
            worker_count=1,
        )
        http = PipelineConfig(
            chunk_size_words=chunk_size, question_cap=cap, requested_faq_count=count,
            worker_count=1,
            endpoints=BackendEndpointSet(
                **{f"{step}_url": f"{stub_server_url}/v1/{step}"
                   for step in ("domain", "questions", "answer_phrase", "complete_answer")},
                max_retries=0,
            ),
        )
        local, remote = run(document, offline), run(document, http)
        assert local.faqs == remote.faqs
        assert local.total_generated == remote.total_generated
        assert local.per_chunk_domains == remote.per_chunk_domains
        assert [(w.kind, w.chunk_index) for w in local.warnings] == [
            (w.kind, w.chunk_index) for w in remote.warnings
        ]
        if not local.warnings and not remote.warnings:
            assert local.to_json() == remote.to_json()


    def test_many_workers_over_http(self, stub_server_url, fixture_document_text):
        # Each worker thread posts through its own session; a session or
        # connection shared between threads could mix up replies.
        document = SourceDocument.from_text("doc", " ".join([fixture_document_text] * 4))
        endpoints = BackendEndpointSet(
            **{f"{step}_url": f"{stub_server_url}/v1/{step}"
               for step in ("domain", "questions", "answer_phrase", "complete_answer")},
            max_retries=0,
        )
        offline = run(document, PipelineConfig(chunk_size_words=10, requested_faq_count=20))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            remote = run(document, PipelineConfig(
                chunk_size_words=10, requested_faq_count=20, worker_count=8, endpoints=endpoints
            ))
        finally:
            sys.setswitchinterval(interval)
        assert not offline.warnings
        assert remote.to_json() == offline.to_json()


class TestBind:
    def test_bind_failure(self, stub_server_url):
        port = int(stub_server_url.rsplit(":", 1)[1])
        with pytest.raises(BindFailure):
            create_server("127.0.0.1", port)
