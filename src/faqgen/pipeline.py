"""End-to-end orchestration: chunk, classify, generate, extract, complete, rank.

Chunks are independent and may be processed concurrently; results are merged
by chunk index before ranking, so output is identical for any worker count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from pathlib import Path

from .chunker import DEFAULT_CHUNK_WORDS, Chunk, SourceDocument, build_chunks
from .domains import DomainLexicon, InvalidDomain, default_lexicon, load_lexicon
from .gateway import (
    DEFAULT_QUESTION_CAP,
    BackendEndpointSet,
    GatewayError,
    complete_answer,
    extract_answer_phrase,
    generate_questions,
    identify_domain,
)
from .ranker import QaPair, ScoredFaq, rank


@dataclass(frozen=True, kw_only=True)
class PipelineConfig:
    """Everything a pipeline run needs besides the document itself."""

    chunk_size_words: int = DEFAULT_CHUNK_WORDS
    question_cap: int = DEFAULT_QUESTION_CAP
    endpoints: BackendEndpointSet = field(default_factory=BackendEndpointSet)
    lexicon_path: str | Path | None = None
    worker_count: int = 1
    requested_faq_count: int = 5

    def __post_init__(self) -> None:
        if self.chunk_size_words < 1:
            raise ValueError("chunk_size_words must be >= 1")
        if self.question_cap < 1:
            raise ValueError("question_cap must be >= 1")
        if self.worker_count < 1:
            raise ValueError("worker_count must be >= 1")
        if self.requested_faq_count < 1:
            raise ValueError("requested_faq_count must be >= 1")

    @cached_property
    def lexicon(self) -> DomainLexicon:
        """The lexicon at ``lexicon_path``, else the packaged one, read on first use."""
        return load_lexicon(self.lexicon_path) if self.lexicon_path else default_lexicon()


@dataclass(frozen=True)
class PipelineWarning:
    """A non-fatal event recorded during a run."""

    kind: str
    message: str
    chunk_index: int | None = None


@dataclass
class ChunkOutcome:
    """What one chunk contributed: its domain, surviving pairs, warnings."""

    domain: str
    pairs: list[QaPair]
    warnings: list[PipelineWarning]


@dataclass
class FaqResult:
    """The ranked output of a pipeline run."""

    document_id: str
    faqs: list[ScoredFaq]
    total_generated: int
    warnings: list[PipelineWarning]
    per_chunk_domains: dict[int, str]

    def to_json(self) -> str:
        """Serialize with a fixed field order and 6-decimal scores."""
        faq_items = []
        for faq in self.faqs:
            pair = faq.pair
            domain = self.per_chunk_domains[pair.chunk_index]
            faq_items.append(
                "{"
                f'"rank": {faq.rank}, '
                f'"question": {json.dumps(pair.question.text, ensure_ascii=False)}, '
                f'"answer": {json.dumps(pair.answer.text, ensure_ascii=False)}, '
                f'"answer_phrase": {json.dumps(pair.phrase.text, ensure_ascii=False)}, '
                f'"chunk_index": {pair.chunk_index}, '
                f'"semantic_score": {faq.semantic_score:.6f}, '
                f'"keyword_score": {faq.keyword_score:.6f}, '
                f'"total_score": {faq.total_score:.6f}, '
                f'"domain": {json.dumps(domain, ensure_ascii=False)}'
                "}"
            )
        warning_items = [
            "{"
            f'"kind": {json.dumps(w.kind, ensure_ascii=False)}, '
            f'"message": {json.dumps(w.message, ensure_ascii=False)}'
            "}"
            for w in self.warnings
        ]
        return (
            "{"
            f'"document_id": {json.dumps(self.document_id, ensure_ascii=False)}, '
            f'"faqs": [{", ".join(faq_items)}], '
            f'"total_generated": {self.total_generated}, '
            f'"warnings": [{", ".join(warning_items)}]'
            "}"
        )


def chunk_domain(chunk: Chunk, cfg: PipelineConfig) -> tuple[str, list[PipelineWarning]]:
    """Step 2: the domain of *chunk*, with any warning it raised.

    When the domain step fails, its built-in stub, the lexicon classifier,
    answers instead and a ``ClassifierFallback`` warning says so.
    """
    try:
        return identify_domain(chunk, cfg.lexicon, cfg.endpoints), []
    except (GatewayError, InvalidDomain) as exc:
        warning = PipelineWarning(
            kind="ClassifierFallback",
            message=f"chunk {chunk.index}: remote classification failed "
            f"({exc}); used lexicon fallback",
            chunk_index=chunk.index,
        )
        return identify_domain(chunk, cfg.lexicon), [warning]


def process_chunk(chunk: Chunk, cfg: PipelineConfig) -> ChunkOutcome:
    """Run steps 2-5 on one chunk with the settings and lexicon of *cfg*.

    Never fails the chunk on backend trouble: generation failure skips the
    whole chunk with a warning, per-question failures drop just that
    question. Pairs come back ordered by q_index. The chunk keeps the
    sentence tokens the built-in stubs shared, and ranking reads them too.
    """
    domain, warnings = chunk_domain(chunk, cfg)

    try:
        questions = generate_questions(chunk, domain, cfg.question_cap, cfg.endpoints)
    except GatewayError as exc:
        warnings.append(
            PipelineWarning(
                kind="ChunkSkipped",
                message=f"chunk {chunk.index}: question generation failed: {exc}",
                chunk_index=chunk.index,
            )
        )
        questions = []

    pairs: list[QaPair] = []
    for question in questions:
        try:
            phrase = extract_answer_phrase(chunk, question, cfg.endpoints)
            answer = complete_answer(chunk, question, phrase, cfg.endpoints)
        except GatewayError as exc:
            warnings.append(
                PipelineWarning(
                    kind="QuestionDropped",
                    message=f"chunk {chunk.index} question {question.q_index} "
                    f"dropped: {exc}",
                    chunk_index=chunk.index,
                )
            )
            continue
        pairs.append(QaPair(question=question, phrase=phrase, answer=answer))
    return ChunkOutcome(domain, pairs, warnings)


def run(doc: SourceDocument, cfg: PipelineConfig) -> FaqResult:
    """Run the whole pipeline on *doc* and return the top-k ranked FAQs.

    Chunk processing may be concurrent; ranking starts only once every chunk
    has finished, and the result is byte-identical for any worker count.
    """
    chunks = build_chunks(doc, cfg.chunk_size_words)
    cfg.lexicon  # read here, before any worker, so that workers share one read

    if cfg.worker_count == 1 or len(chunks) == 1:
        outcomes = [process_chunk(chunk, cfg) for chunk in chunks]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=cfg.worker_count) as pool:
            outcomes = list(pool.map(process_chunk, chunks, repeat(cfg)))

    pairs: list[tuple[QaPair, Chunk]] = []
    warnings: list[PipelineWarning] = []
    per_chunk_domains: dict[int, str] = {}
    for chunk, outcome in zip(chunks, outcomes):
        per_chunk_domains[chunk.index] = outcome.domain
        warnings.extend(outcome.warnings)
        pairs.extend((pair, chunk) for pair in outcome.pairs)

    ranked = rank(pairs)
    k = cfg.requested_faq_count
    if k > len(ranked):
        warnings.append(
            PipelineWarning(
                kind="OverRequest",
                message=f"requested {k} FAQs but only {len(ranked)} question-answer "
                f"pairs could be generated from this document",
            )
        )
    return FaqResult(
        document_id=doc.id,
        faqs=ranked[:k],
        total_generated=len(ranked),
        warnings=warnings,
        per_chunk_domains=per_chunk_domains,
    )
