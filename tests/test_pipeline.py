from __future__ import annotations

import collections
import json
import re
import socketserver
import threading
import time
import zlib
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import faqgen
import faqgen.chunker
import faqgen.gateway
import faqgen.pipeline
from conftest import FIXTURES, serve_in_thread
from faqgen.chunker import Chunk, EmptyDocument, SourceDocument, build_chunks, segment_sentences
from faqgen.domains import DOMAINS, load_lexicon
from faqgen.gateway import STUB_HANDLERS, BackendEndpointSet, BackendUnavailable, RequestRejected
from faqgen.pipeline import PipelineConfig, chunk_domain, process_chunk, run
from faqgen.ranker import rank

THREE_SENTENCES = "Cats sleep daily. Dogs bark loudly. Birds fly south."


def stub_config(**kwargs) -> PipelineConfig:
    defaults = dict(chunk_size_words=30, worker_count=1, requested_faq_count=4)
    defaults.update(kwargs)
    return PipelineConfig(**defaults)


def make_chunk(context: str, index: int = 0) -> Chunk:
    return Chunk(index=index, sentences=tuple(segment_sentences(context)))


class TestProcessChunk:
    def test_three_sentence_stub_composition(self):
        outcome = process_chunk(make_chunk(THREE_SENTENCES), stub_config())
        assert [p.q_index for p in outcome.pairs] == [0, 1, 2]
        assert [p.answer.text for p in outcome.pairs] == [
            "Cats sleep daily.",
            "Dogs bark loudly.",
            "Birds fly south.",
        ]
        assert outcome.domain in DOMAINS
        assert outcome.warnings == []

    def test_single_sentence_chunk(self):
        outcome = process_chunk(make_chunk("Dogs bark loudly."), stub_config())
        assert len(outcome.pairs) == 1
        assert outcome.pairs[0].answer.text == "Dogs bark loudly."

    def test_backend_failure_skips_chunk_with_warning(self):
        config = stub_config(
            endpoints=BackendEndpointSet(
                questions_url="http://127.0.0.1:9/v1/questions",
                max_retries=0,
                timeout_ms=500,
            )
        )
        outcome = process_chunk(make_chunk(THREE_SENTENCES), config)
        assert outcome.pairs == []
        assert [w.kind for w in outcome.warnings] == ["ChunkSkipped"]
        assert outcome.warnings[0].chunk_index == 0

    def test_remote_classifier_failure_falls_back_to_lexicon(self):
        config = stub_config(
            endpoints=BackendEndpointSet(
                domain_url="http://127.0.0.1:9/v1/domain", max_retries=0, timeout_ms=500
            )
        )
        context = "The quantum experiment used new laboratory technology today."
        outcome = process_chunk(make_chunk(context), config)
        assert outcome.domain == "Science and Technology"
        assert [w.kind for w in outcome.warnings] == ["ClassifierFallback"]
        assert len(outcome.pairs) >= 1

    def test_remote_classifier_label_used_when_valid(self, canned_backend):
        url, _ = canned_backend({"/v1/domain": [(200, {"domain": "Literature"})]})
        config = stub_config(
            endpoints=BackendEndpointSet(domain_url=f"{url}/v1/domain", max_retries=0)
        )
        outcome = process_chunk(make_chunk(THREE_SENTENCES), config)
        assert outcome.domain == "Literature"
        assert outcome.warnings == []

    def test_remote_classifier_invalid_label_falls_back(self, canned_backend):
        url, _ = canned_backend({"/v1/domain": [(200, {"domain": "Astrology"})]})
        config = stub_config(
            endpoints=BackendEndpointSet(domain_url=f"{url}/v1/domain", max_retries=0)
        )
        context = "The quantum experiment used new laboratory technology today."
        outcome = process_chunk(make_chunk(context), config)
        assert outcome.domain == "Science and Technology"
        assert [w.kind for w in outcome.warnings] == ["ClassifierFallback"]


class TestConfigLexicon:
    """A config reads the lexicon at its ``lexicon_path`` once, on first use,
    and every step that classifies uses it."""

    @pytest.fixture
    def lexicon_file(self, tmp_path):
        # The packaged lexicon matches no word of THREE_SENTENCES.
        packaged = (Path(faqgen.__file__).parent / "data" / "lexicon_v1.txt").read_text("utf-8")
        path = tmp_path / "lexicon.txt"
        path.write_text(packaged + "Gaming\tcats\n", encoding="utf-8")
        return path

    @pytest.fixture
    def loads(self, monkeypatch) -> list:
        """The path of every lexicon file the pipeline reads from now on. Each
        read is slowed down, so that workers reading at once would overlap."""
        paths = []

        def counted(path):
            paths.append(path)
            time.sleep(0.05)
            return load_lexicon(path)

        monkeypatch.setattr(faqgen.pipeline, "load_lexicon", counted)
        return paths

    def test_process_chunk_and_chunk_domain_use_the_config_lexicon(
        self, lexicon_file, canned_backend
    ):
        config = stub_config(lexicon_path=lexicon_file)
        assert process_chunk(make_chunk(THREE_SENTENCES), stub_config()).domain != "Gaming"
        assert process_chunk(make_chunk(THREE_SENTENCES), config).domain == "Gaming"
        assert chunk_domain(make_chunk(THREE_SENTENCES), config) == ("Gaming", [])
        # The fallback after a label outside the closed set uses it too.
        url, _ = canned_backend({"/v1/domain": [(200, {"domain": "Astrology"})]})
        endpoints = BackendEndpointSet(domain_url=f"{url}/v1/domain", max_retries=0)
        remote = replace(config, endpoints=endpoints)
        domain, warnings = chunk_domain(make_chunk(THREE_SENTENCES), remote)
        assert domain == "Gaming"
        assert [w.kind for w in warnings] == ["ClassifierFallback"]

    def test_runs_on_one_config_read_the_lexicon_once(
        self, lexicon_file, loads, fixture_document_text
    ):
        doc = SourceDocument.from_text("fixture", fixture_document_text)
        config = stub_config(lexicon_path=lexicon_file)
        assert run(doc, config).to_json() == run(doc, config).to_json()
        assert loads == [lexicon_file]
        # A replaced config is a new config, which reads the file again.
        run(doc, replace(config, requested_faq_count=1))
        assert loads == [lexicon_file] * 2

    def test_workers_share_one_read(self, lexicon_file, loads, fixture_document_text):
        doc = SourceDocument.from_text("fixture", fixture_document_text)
        config = stub_config(lexicon_path=lexicon_file, chunk_size_words=5, worker_count=8)
        result = run(doc, config)
        assert len(result.per_chunk_domains) > 1
        assert loads == [lexicon_file]


class TestRun:
    def test_two_chunk_fixture_matches_sequential_reference(self, fixture_document_text):
        doc = SourceDocument.from_text("fixture", fixture_document_text)
        config = stub_config(requested_faq_count=2)
        result = run(doc, config)

        # sequential reference: process each chunk by hand, rank, take top 2
        chunks = build_chunks(doc, config.chunk_size_words)
        reference_pairs = []
        for chunk in chunks:
            outcome = process_chunk(chunk, config)
            reference_pairs.extend((pair, chunk) for pair in outcome.pairs)
        reference = rank(reference_pairs)[:2]
        assert result.faqs == reference
        assert [f.rank for f in result.faqs] == [1, 2]

    def test_over_request_returns_everything_plus_one_warning(self, fixture_document_text):
        doc = SourceDocument.from_text("fixture", fixture_document_text)
        result = run(doc, stub_config(requested_faq_count=100))
        assert len(result.faqs) == result.total_generated == 6
        over = [w for w in result.warnings if w.kind == "OverRequest"]
        assert len(over) == 1
        assert "100" in over[0].message and "6" in over[0].message

    def test_document_is_segmented_once(self, fixture_document_text, monkeypatch):
        calls = []
        original = faqgen.chunker.iter_sentences

        def counted(text):
            calls.append(text)
            return original(text)

        monkeypatch.setattr(faqgen.chunker, "iter_sentences", counted)
        monkeypatch.setattr(faqgen.gateway, "iter_sentences", counted)
        doc = SourceDocument.from_text("fixture", fixture_document_text)
        result = run(doc, stub_config())
        assert result.total_generated > 0
        assert calls == [fixture_document_text]

    def test_run_tokenizes_each_sentence_once(self, fixture_document_text, tokenized):
        # One word_tokens call per sentence, shared by every step and the
        # ranker, plus three per question: its anchor in the answer-phrase
        # and in the completion request, and its question-answer text.
        doc = SourceDocument.from_text("fixture", fixture_document_text)
        result = run(doc, stub_config(requested_faq_count=100))
        assert {w.kind for w in result.warnings} == {"OverRequest"}
        questions = [faq.pair.question.text for faq in result.faqs]
        qa_texts = [f"{faq.pair.question.text} {faq.pair.answer.text}" for faq in result.faqs]
        expected = segment_sentences(fixture_document_text) + questions * 2 + qa_texts
        assert sorted(tokenized) == sorted(expected)

    def test_worker_count_does_not_change_output(self, fixture_document_text):
        doc = SourceDocument.from_text("fixture", fixture_document_text)
        payloads = {
            workers: run(doc, stub_config(worker_count=workers)).to_json()
            for workers in (1, 2, 8)
        }
        assert payloads[1] == payloads[2] == payloads[8]

    def test_conservation_and_chunk_references(self, fixture_document_text):
        doc = SourceDocument.from_text("fixture", fixture_document_text)
        config = stub_config(requested_faq_count=100)
        result = run(doc, config)
        chunks = build_chunks(doc, config.chunk_size_words)
        per_chunk = [len(process_chunk(c, config).pairs) for c in chunks]
        assert result.total_generated == sum(per_chunk)
        chunk_indices = {c.index for c in chunks}
        for faq in result.faqs:
            assert faq.pair.chunk_index in chunk_indices
        assert set(result.per_chunk_domains) == chunk_indices

    def test_scores_non_increasing(self, fixture_document_text):
        doc = SourceDocument.from_text("fixture", fixture_document_text)
        result = run(doc, stub_config(requested_faq_count=6))
        totals = [f.total_score for f in result.faqs]
        assert totals == sorted(totals, reverse=True)

    def test_empty_document_raises(self):
        with pytest.raises(EmptyDocument):
            run(SourceDocument.from_text("empty", "   "), stub_config())

    def test_warnings_in_chunk_order_with_over_request_last(
        self, canned_backend, fixture_document_text
    ):
        url, _ = canned_backend({"/v1/domain": [(200, {"domain": "Nope"})]})
        doc = SourceDocument.from_text("fixture", fixture_document_text)
        config = stub_config(
            chunk_size_words=5,
            worker_count=8,
            requested_faq_count=1000,
            endpoints=BackendEndpointSet(domain_url=f"{url}/v1/domain", max_retries=0),
        )
        result = run(doc, config)
        assert result.total_generated < 1000
        *fallbacks, over_request = result.warnings
        assert over_request.kind == "OverRequest"
        assert {w.kind for w in fallbacks} == {"ClassifierFallback"}
        chunk_count = len(build_chunks(doc, config.chunk_size_words))
        assert chunk_count > 2
        assert [w.chunk_index for w in fallbacks] == list(range(chunk_count))


STEPS = ("domain", "questions", "answer_phrase", "complete_answer")
# A malformed body (each step's field of the wrong type), and a blank generation.
MALFORMED_REPLY = {"domain": 7, "questions": "What?", "answer_phrase": [], "answer": None}
BLANK_REPLY = {"domain": " ", "questions": [" "], "answer_phrase": "", "answer": "\n"}


def outcome_of(seed: int, step: str, payload: dict) -> int:
    """The outcome, 0 to 11, of a call: a CRC of *seed*, the step and the request."""
    return zlib.crc32(f"{seed} {step} {json.dumps(payload, sort_keys=True)}".encode()) % 12


def failing_post_json(seed: int):
    """A replacement for ``gateway.post_json`` whose every outcome is a pure
    function of *seed*, the step and the request body: the stub server's
    reply, or one of five failures."""

    def post_json(url: str, payload: dict, endpoints: BackendEndpointSet) -> dict:
        step = url.rsplit("/", 1)[1]
        outcome = outcome_of(seed, step, payload)
        if outcome == 0:
            raise BackendUnavailable(f"{url} unavailable after 3 attempt(s): HTTP 503")
        if outcome == 1:
            raise RequestRejected(f"{url} rejected request: HTTP 400 bad request")
        if outcome == 2:
            return MALFORMED_REPLY
        if outcome == 3:
            return BLANK_REPLY
        if outcome == 4:  # a body that is not a JSON object, as post_json reports it
            raise BackendUnavailable(
                f"{url} unavailable after 3 attempt(s): response body is not a JSON object"
            )
        return STUB_HANDLERS[step](payload, None, None)

    return post_json


class TestWorkerCountWithFailingCalls:
    @given(seed=st.integers(0, 2**32 - 1), size=st.sampled_from([5, 12, 25]))
    @settings(max_examples=30, deadline=None)
    def test_failing_calls_give_the_same_result_for_any_worker_count(self, seed, size):
        doc = SourceDocument.from_text("fixture", (FIXTURES / "fixture_doc.txt").read_text("utf-8"))
        endpoints = BackendEndpointSet(
            **{f"{step}_url": f"http://backend.invalid/v1/{step}" for step in STEPS}
        )
        results = {}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(faqgen.gateway, "post_json", failing_post_json(seed))
            for workers in (1, 2, 8):
                config = stub_config(chunk_size_words=size, worker_count=workers,
                                     requested_faq_count=3, endpoints=endpoints)
                result = run(doc, config)
                warnings = [(w.kind, w.message, w.chunk_index) for w in result.warnings]
                results[workers] = (result.to_json(), warnings, result.total_generated)
        assert results[1] == results[2] == results[8]


class FailingBackend(socketserver.ThreadingTCPServer):
    """A socket backend that serves the outcomes of ``failing_post_json`` for
    ``seed``, keyed by the same CRC, as HTTP replies: the stub server's reply,
    400, 503 every time, a malformed body, a blank generation, a body that is
    not an object, and 503 on a request's first attempt, then the stub's
    reply. ``attempts`` counts the attempts per step and request body."""

    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _FailingHandler)
        self.seed, self.attempts, self.lock = 0, collections.Counter(), threading.Lock()

    def reply(self, step: str, body: bytes) -> tuple[int, bytes]:
        payload = json.loads(body)
        outcome = outcome_of(self.seed, step, payload)
        with self.lock:
            self.attempts[step, body] += 1
            first = self.attempts[step, body] == 1
        if outcome == 0 or (outcome == 5 and first):
            return 503, b'{"error": "overloaded"}'
        if outcome == 1:
            return 400, b'{"error": "bad request"}'
        if outcome == 2:
            return 200, json.dumps(MALFORMED_REPLY).encode()
        if outcome == 3:
            return 200, json.dumps(BLANK_REPLY).encode()
        if outcome == 4:
            return 200, b"[1]"
        return 200, json.dumps(STUB_HANDLERS[step](payload, None, None)).encode()


class _FailingHandler(socketserver.StreamRequestHandler):
    """Reads each request of a kept-alive connection by hand and replies in one write."""

    def handle(self) -> None:
        while request_line := self.rfile.readline():
            length = 0
            while (line := self.rfile.readline()) not in (b"\r\n", b""):
                name, _, value = line.partition(b":")
                if name.lower() == b"content-length":
                    length = int(value)
            step = request_line.split()[1].decode().rsplit("/", 1)[1]
            status, data = self.server.reply(step, self.rfile.read(length))
            self.wfile.write(b"HTTP/1.1 %d Reply\r\nContent-Length: %d\r\n\r\n%b"
                             % (status, len(data), data))


@pytest.fixture(scope="module")
def failing_backend():
    server = FailingBackend()
    serve_in_thread(server)
    yield server
    server.shutdown()
    server.server_close()


class TestWorkerCountWithFailingReplies:
    @given(seed=st.integers(0, 2**32 - 1), size=st.sampled_from([5, 12, 25]))
    @settings(max_examples=30, deadline=None)
    def test_failing_replies_give_the_same_result_for_any_worker_count(
        self, failing_backend, seed, size
    ):
        doc = SourceDocument.from_text("fixture", (FIXTURES / "fixture_doc.txt").read_text("utf-8"))
        url = f"http://127.0.0.1:{failing_backend.server_address[1]}"
        endpoints = BackendEndpointSet(**{f"{step}_url": f"{url}/v1/{step}" for step in STEPS})
        failing_backend.seed = seed
        results = {}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(faqgen.gateway, "RETRY_BASE_DELAY_SECONDS", 0.001)
            # This thread's connections close when the patch is undone.
            patch.setattr(faqgen.gateway, "_thread", threading.local())
            for workers in (1, 2, 8):
                failing_backend.attempts.clear()
                config = stub_config(chunk_size_words=size, worker_count=workers,
                                     requested_faq_count=3, endpoints=endpoints)
                result = run(doc, config)
                warnings = [(w.kind, w.message, w.chunk_index) for w in result.warnings]
                results[workers] = (result.to_json(), warnings, result.total_generated)
        assert results[1] == results[2] == results[8]


class TestSerialization:
    def test_json_shape_and_field_order(self, fixture_document_text):
        doc = SourceDocument.from_text("fixture", fixture_document_text)
        result = run(doc, stub_config(requested_faq_count=3))
        payload = result.to_json()
        parsed = json.loads(payload)
        assert list(parsed) == ["document_id", "faqs", "total_generated", "warnings"]
        assert list(parsed["faqs"][0]) == [
            "rank",
            "question",
            "answer",
            "answer_phrase",
            "chunk_index",
            "semantic_score",
            "keyword_score",
            "total_score",
            "domain",
        ]
        assert parsed["document_id"] == "fixture"
        assert len(parsed["faqs"]) == 3

    def test_scores_have_six_decimal_places(self, fixture_document_text):
        doc = SourceDocument.from_text("fixture", fixture_document_text)
        payload = run(doc, stub_config(requested_faq_count=3)).to_json()
        for key in ("semantic_score", "keyword_score", "total_score"):
            for match in re.finditer(rf'"{key}": (-?\d+\.\d+)', payload):
                whole, dot, fraction = match.group(1).partition(".")
                assert len(fraction) == 6, match.group(0)

    def test_domains_attached_per_chunk(self, fixture_document_text):
        doc = SourceDocument.from_text("fixture", fixture_document_text)
        result = run(doc, stub_config(requested_faq_count=6))
        assert result.per_chunk_domains == {
            0: "Science and Technology",
            1: "Sports",
        }
        parsed = json.loads(result.to_json())
        for faq in parsed["faqs"]:
            assert faq["domain"] == result.per_chunk_domains[faq["chunk_index"]]

    def test_total_score_decomposition_exact(self, fixture_document_text):
        doc = SourceDocument.from_text("fixture", fixture_document_text)
        result = run(doc, stub_config(requested_faq_count=6))
        for faq in result.faqs:
            assert faq.total_score == faq.semantic_score + faq.keyword_score


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"chunk_size_words": 0},
            {"question_cap": 0},
            {"worker_count": 0},
            {"requested_faq_count": 0},
        ],
    )
    def test_bounds(self, kwargs):
        with pytest.raises(ValueError):
            PipelineConfig(**kwargs)
