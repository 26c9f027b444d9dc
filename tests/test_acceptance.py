"""Acceptance suite: every criterion checked at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

from __future__ import annotations

import functools
import json
import math
import random
import time
from pathlib import Path

import requests

from faqgen.chunker import Chunk, SourceDocument, build_chunks, segment_sentences, word_count
from faqgen.datasets import (
    AE_HEADER,
    build_ae_dataset,
    build_qg_datasets,
    parse_squad,
    qg_filename,
    write_answer_table,
    write_qg_table,
)
from faqgen.domains import DOMAINS, classify, default_lexicon
from faqgen.gateway import (
    DEFAULT_QUESTION_CAP,
    AnswerPhrase,
    CompletedAnswer,
    STUB_HANDLERS,
    GeneratedQuestion,
    generate_questions,
)
from faqgen.pipeline import PipelineConfig, run
from faqgen.ranker import QaPair, rank
from faqgen.reviews import ReviewRecord, aggregate
from oracles import oracle_cosine, oracle_keyword, oracle_rank_order
from test_ranker import scores

FIXTURES = Path(__file__).parent / "fixtures"

VOCAB = [
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel",
    "india", "juliet", "kilo", "lima", "mike", "november", "oscar", "papa",
]


def criterion(number: int, label: str):
    def decorator(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number:02d} FAIL - {label}")
                raise
            print(f"\nACCEPTANCE {number:02d} PASS - {label}")

        return wrapper

    return decorator


def make_sentence(words: int, prefix: str) -> str:
    middle = " ".join(f"{prefix}{i}" for i in range(words - 2))
    return f"Alpha {middle} omega."


def fixture_config(**kwargs) -> PipelineConfig:
    defaults = dict(chunk_size_words=30, worker_count=1, requested_faq_count=4)
    defaults.update(kwargs)
    return PipelineConfig(**defaults)


@criterion(1, "chunk arithmetic: 50,023 words -> 200 x 250 + 23, under 5 s")
def test_chunk_arithmetic_large_document():
    sentences = [make_sentence(25, f"s{i}w") for i in range(2000)]
    sentences.append(make_sentence(23, "tail"))
    text = " ".join(sentences)
    doc = SourceDocument.from_text("synthetic", text)
    assert word_count(doc.raw_text) == 50_023

    started = time.perf_counter()
    chunks = build_chunks(doc, 250)
    elapsed = time.perf_counter() - started

    assert len(chunks) == 201
    assert all(chunk.word_count == 250 for chunk in chunks[:200])
    assert chunks[200].word_count == 23
    assert elapsed < 5.0, f"chunking took {elapsed:.2f}s"


@criterion(2, "ranking oracle equivalence on 100 random pairs and on shared chunks")
def test_ranking_oracle_equivalence():
    rng = random.Random(20240811)
    pairs = []
    oracle_items = []
    for i in range(100):
        # a few deliberate duplicates force exact ties
        if i >= 4 and i % 25 == 0:
            question, answer, context = (
                oracle_items[i - 4][0].rsplit(" ", 1)[0] + "?",
                "alpha bravo charlie.",
                oracle_items[i - 4][1],
            )
        else:
            question = " ".join(rng.choices(VOCAB, k=rng.randint(1, 20))) + "?"
            answer = " ".join(rng.choices(VOCAB, k=rng.randint(1, 30))) + "."
            context = " ".join(rng.choices(VOCAB, k=rng.randint(1, 60)))
        chunk_index = rng.randint(0, 9)
        qa_text = f"{question} {answer}"
        assert len(qa_text.split()) <= 60
        pair = QaPair(
            question=GeneratedQuestion(chunk_index=chunk_index, q_index=i, text=question),
            phrase=AnswerPhrase(text="x"),
            answer=CompletedAnswer(text=answer),
        )
        chunk = Chunk(index=chunk_index, sentences=tuple(segment_sentences(context)))
        pairs.append((pair, chunk))
        oracle_items.append((qa_text, context, chunk_index, i))

        semantic, keyword = scores(question, answer, context)
        assert abs(semantic - oracle_cosine(qa_text, context)) < 1e-9
        assert keyword == oracle_keyword(qa_text, context)
    inputs = [(pairs, oracle_items)]

    # As run() passes them: several pairs share one Chunk object. Chunks 0
    # and 1 share an index but not a context; the last chunk equals chunk 2
    # but is a distinct object.
    chunks = [
        Chunk(index=index, sentences=(" ".join(rng.choices(VOCAB, k=rng.randint(5, 40))),))
        for index in (0, 0, 1, 2)
    ]
    chunks.append(Chunk(index=chunks[3].index, sentences=chunks[3].sentences))
    assert chunks[0].context != chunks[1].context and chunks[4] is not chunks[3]
    pairs = []
    oracle_items = []
    for i in range(60):
        chunk = rng.choice(chunks)
        question = " ".join(rng.choices(VOCAB, k=rng.randint(1, 12))) + "?"
        answer = " ".join(rng.choices(VOCAB, k=rng.randint(1, 20))) + "."
        pair = QaPair(
            question=GeneratedQuestion(chunk_index=chunk.index, q_index=i, text=question),
            phrase=AnswerPhrase(text="x"),
            answer=CompletedAnswer(text=answer),
        )
        pairs.append((pair, chunk))
        oracle_items.append((f"{question} {answer}", chunk.context, chunk.index, i))
    assert {id(chunk) for _, chunk in pairs} == {id(chunk) for chunk in chunks}
    inputs.append((pairs, oracle_items))

    for pairs, oracle_items in inputs:
        scored = rank(pairs)
        expected = oracle_rank_order(oracle_items)
        assert [faq.pair.q_index for faq in scored] == [position for position, _, _ in expected]
        for faq, (_, semantic, keyword) in zip(scored, expected):
            assert abs(faq.semantic_score - semantic) < 1e-9
            assert faq.keyword_score == keyword


@criterion(3, "cosine fixtures: self 1.0, disjoint 0.0, 4/sqrt(18) within 1e-9")
def test_semantic_similarity_fixtures():
    # A question of just "?" and the answer's closing "." add no token.
    assert scores("?", "Cats chase mice daily.", "Cats chase mice daily.")[0] == 1.0
    assert scores("?", "alpha bravo.", "charlie delta")[0] == 0.0
    value = scores("?", "cats chase mice.", "mice chase cats chase")[0]
    assert abs(value - 4 / math.sqrt(18)) < 1e-9
    assert abs(value - 0.9428090415820634) < 1e-9


@criterion(4, "keyword penalty: 450 chars / 5 matches -> 3; zero matches -> 0")
def test_keyword_penalty_formula():
    shared = "alpha bravo charlie delta echo"
    answer = shared + " " + "x" * (450 - len(shared) - 4) + "."
    assert len(f"? {answer}") == 450
    assert scores("?", answer, shared + " filler words")[1] == 3
    # "? ." is the shortest QA text a pair can have.
    for length in (3, 150, 200, 450, 2000):
        answer = "z" * (length - 3) + "."
        assert len(f"? {answer}") == length
        assert scores("?", answer, "alpha bravo charlie")[1] == 0


@criterion(5, "end-to-end stub run matches the golden file; k semantics hold")
def test_end_to_end_golden():
    text = (FIXTURES / "fixture_doc.txt").read_text(encoding="utf-8")
    doc = SourceDocument.from_text("fixture", text)

    payload = run(doc, fixture_config(requested_faq_count=4)).to_json()
    golden = (FIXTURES / "golden_faqresult.json").read_text(encoding="utf-8")
    assert payload == golden

    for k in range(1, 7):
        result = run(doc, fixture_config(requested_faq_count=k))
        assert len(result.faqs) == k
        totals = [faq.total_score for faq in result.faqs]
        assert totals == sorted(totals, reverse=True)
        assert not any(w.kind == "OverRequest" for w in result.warnings)

    result = run(doc, fixture_config(requested_faq_count=100))
    assert len(result.faqs) == result.total_generated == 6
    over = [w for w in result.warnings if w.kind == "OverRequest"]
    assert len(over) == 1


@criterion(6, "worker counts 1/2/8 are byte-identical on 5 fixture documents")
def test_concurrency_determinism():
    rng = random.Random(99)
    topic_words = ["quantum", "football", "melody", "recipe", "novel", "travel"]
    documents = [(FIXTURES / "fixture_doc.txt").read_text(encoding="utf-8")]
    for d in range(4):
        sentences = []
        for s in range(rng.randint(8, 14)):
            words = [rng.choice(topic_words)] + rng.choices(VOCAB, k=rng.randint(6, 14))
            sentences.append(" ".join(words).capitalize() + ".")
        documents.append(" ".join(sentences))

    for position, text in enumerate(documents):
        doc = SourceDocument.from_text(f"doc{position}", text)
        payloads = {
            workers: run(
                doc,
                fixture_config(chunk_size_words=40, worker_count=workers,
                               requested_faq_count=8),
            ).to_json()
            for workers in (1, 2, 8)
        }
        assert payloads[1] == payloads[2] == payloads[8], f"doc{position} diverged"


@criterion(7, "stub server bodies equal the in-process stub; blank context 422")
def test_protocol_round_trip(stub_server_url):
    rng = random.Random(424242)
    lexicon = default_lexicon()

    def random_context():
        sentences = []
        for _ in range(rng.randint(1, 4)):
            words = rng.choices(VOCAB + ["quantum", "football", "melody"], k=rng.randint(3, 10))
            sentences.append(" ".join(words).capitalize() + ".")
        return " ".join(sentences)

    endpoints = ["/v1/domain", "/v1/questions", "/v1/answer_phrase", "/v1/complete_answer"]
    for i in range(20):
        path = endpoints[i % 4]
        context = random_context()
        question = f"What does the passage state about {rng.choice(VOCAB)}?"
        if path == "/v1/domain":
            body = {"context": context}
            expected = {"domain": classify(context, lexicon)}
        elif path == "/v1/questions":
            cap = rng.randint(1, 7)
            body = {"context": context, "domain": rng.choice(DOMAINS), "cap": cap}
        elif path == "/v1/answer_phrase":
            body = {"context": context, "question": question}
        else:
            body = {"context": context, "question": question, "answer_phrase": "x"}
        if path != "/v1/domain":
            step = path.removeprefix("/v1/")
            chunk = Chunk(index=0, sentences=tuple(segment_sentences(context)))
            expected = STUB_HANDLERS[step](body, None, chunk)
        response = requests.post(f"{stub_server_url}{path}", json=body, timeout=5)
        assert response.status_code == 200, (path, response.text)
        assert response.json() == expected, path

    for path in endpoints:
        response = requests.post(
            f"{stub_server_url}{path}",
            json={"context": "   ", "question": "Q?", "domain": "Gaming",
                  "cap": 3, "answer_phrase": "x"},
            timeout=5,
        )
        assert response.status_code == 422, path


@criterion(8, "dataset builders: grouping, pipe joining, AE columns, shortfall")
def test_dataset_builders(tmp_path):
    def qa(question, answer):
        return {"question": question, "answers": [{"text": answer, "answer_start": 0}]}

    payload = {
        "data": [
            {
                "paragraphs": [
                    {
                        "context": "Quantum experiment technology context.",
                        "qas": [qa("SciQ1?", "a1"), qa("SciQ2?", "a2")],
                    },
                    {
                        "context": "Football stadium championship context.",
                        "qas": [qa("SpoQ1?", "b1"), qa("SpoQ2?", "b2"), qa("SpoQ3?", "b3")],
                    },
                ]
            },
            {
                "paragraphs": [
                    {
                        # same bytes as the first context: groups with it
                        "context": "Quantum experiment technology context.",
                        "qas": [qa("SciQ3?", "a3")],
                    },
                    {
                        "context": "Melody concert orchestra context.",
                        "qas": [qa("MusQ1?", "c1"), qa("MusQ2?", "c2"), qa("MusQ3?", "c3")],
                    },
                ]
            },
        ]
    }
    records = parse_squad(json.dumps(payload).encode("utf-8"))
    assert len(records) == 9

    lexicon = default_lexicon()
    tables, shortfalls = build_qg_datasets(
        records, lambda context: classify(context, lexicon), floor=750
    )
    rows = [row for table in tables.values() for row in table]
    assert len(rows) == 3
    assert tables["Science and Technology"][0].questions_list == ("SciQ1?", "SciQ2?", "SciQ3?")
    assert tables["Sports"][0].questions_list == ("SpoQ1?", "SpoQ2?", "SpoQ3?")
    assert tables["Music"][0].questions_list == ("MusQ1?", "MusQ2?", "MusQ3?")

    for domain, table in tables.items():
        write_qg_table(tmp_path / qg_filename(domain), table)
    science = (tmp_path / "qg_science_and_technology.csv").read_text(encoding="utf-8")
    assert "SciQ1? | SciQ2? | SciQ3?" in science

    ae_rows = build_ae_dataset(records, [])
    assert all(row.complete_answer is None for row in ae_rows)
    ae_path = tmp_path / "ae_dataset.csv"
    write_answer_table(ae_path, ae_rows, include_complete=False)
    header = ae_path.read_text(encoding="utf-8").splitlines()[0]
    assert header == ",".join(AE_HEADER)
    assert "Complete Answer" not in header

    shortfall_domains = {entry.domain for entry in shortfalls}
    assert "Science and Technology" in shortfall_domains  # 1 row < 750
    by_domain = {entry.domain: entry for entry in shortfalls}
    assert by_domain["Science and Technology"].rows == 1
    assert by_domain["Science and Technology"].floor == 750


@criterion(9, "review aggregation: rounding, sqrt(0.5) deviation, all-equal zero")
def test_review_aggregation():
    half_case = [
        ReviewRecord("d1", "Gaming", "r1", (8, 8, 8, 8, 8)),
        ReviewRecord("d1", "Gaming", "r2", (9, 8, 8, 8, 8)),
    ]
    assert aggregate(half_case)[0].averages[0] == 9  # mean 8.5

    plain_case = [
        ReviewRecord("d1", "Music", f"r{i}", (s, s, s, s, s))
        for i, s in enumerate((8, 9, 9, 10))
    ]
    (music,) = aggregate(plain_case)
    assert music.domain == "Music"
    assert music.averages == (9, 9, 9, 9, 9)
    deviation = music.stddevs[0]
    assert abs(deviation - math.sqrt(0.5)) < 1e-9
    assert f"{deviation:.2f}" == "0.71"

    equal_case = [
        ReviewRecord(f"d{doc}", "Sports", f"r{rev}", (6, 6, 6, 6, 6))
        for doc in range(3)
        for rev in range(4)
    ]
    (sports,) = aggregate(equal_case)
    assert sports.domain == "Sports"
    assert sports.stddevs == (0.0,) * 5


@criterion(10, "stub question cap: >= 6 sentences yields exactly 5 questions")
def test_stub_question_cap():
    assert DEFAULT_QUESTION_CAP == 5
    rng = random.Random(31337)
    for trial in range(10):
        sentences = []
        for s in range(rng.randint(6, 12)):
            words = [VOCAB[(trial + s) % len(VOCAB)]] + rng.choices(VOCAB, k=rng.randint(2, 8))
            sentences.append(" ".join(words).capitalize() + ".")
        context = " ".join(sentences)
        chunk = Chunk(index=trial, sentences=tuple(segment_sentences(context)))
        questions = generate_questions(chunk, "Gaming")
        assert len(questions) == 5, f"trial {trial}: got {len(questions)}"
