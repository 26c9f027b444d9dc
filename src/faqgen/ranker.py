"""Relevance scoring and ordering of question-answer pairs.

``rank`` scores each pair against the content tokens of the chunk it came
from: a raw term-frequency cosine similarity plus an integer keyword-overlap
score that loses one point per 200 characters of question-answer text. Its
docstring defines both terms.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Mapping

from .chunker import content_tokens, word_tokens

if TYPE_CHECKING:
    from .chunker import Chunk
    from .gateway import AnswerPhrase, CompletedAnswer, GeneratedQuestion

PENALTY_SPAN_CHARS = 200


@dataclass(frozen=True)
class QaPair:
    """A generated question with its answer phrase and completed answer."""

    question: GeneratedQuestion
    phrase: AnswerPhrase
    answer: CompletedAnswer

    @property
    def chunk_index(self) -> int:
        return self.question.chunk_index

    @property
    def q_index(self) -> int:
        return self.question.q_index


@dataclass(frozen=True)
class ScoredFaq:
    """A ranked pair with both score terms; ``total_score`` is their sum."""

    pair: QaPair
    semantic_score: float
    keyword_score: int
    rank: int

    @property
    def total_score(self) -> float:
        return self.semantic_score + self.keyword_score


def _prepared(counts: Mapping[str, int]) -> tuple[Mapping[str, int], int]:
    """Content-token *counts* with their integer squared norm."""
    return counts, sum(c * c for c in counts.values())


def _scores(
    qa_text: str, qa: tuple[Mapping[str, int], int], context: tuple[Mapping[str, int], int]
) -> tuple[float, int]:
    """Semantic and keyword score of prepared *qa* against prepared *context*.

    The dot product, the shared-token count and both squared norms stay
    integers until the one division, so a context prepared once gives
    bit-identical scores for every pair scored against it.
    """
    left, left_norm_sq = qa
    right, right_norm_sq = context
    dot = 0
    shared = 0
    for token, count in left.items():
        other = right.get(token)
        if other:
            dot += count * other
            shared += 1
    if not shared:
        return 0.0, 0
    semantic = min(1.0, dot / math.sqrt(left_norm_sq * right_norm_sq))
    return semantic, shared - len(qa_text) // PENALTY_SPAN_CHARS


def rank(pairs: list[tuple[QaPair, Chunk]]) -> list[ScoredFaq]:
    """Score every pair against its own chunk's context and order them.

    A pair's QA text is ``f"{question} {answer}"``, and both it and the
    context are read as their content tokens (``chunker.content_tokens``):

    - the semantic score is the cosine similarity of their raw
      term-frequency vectors, in [0, 1]; it is 0.0 when either side has no
      content tokens, and identical token multisets give exactly 1.0;
    - the keyword score is the number of distinct content tokens they
      share, minus one per full 200 code points of the QA text; it is 0
      when they share none, and otherwise may be negative.

    A chunk's context is counted once, from the ``sentence_tokens`` it
    keeps, for all of its pairs. Descending total score; exact ties resolve
    by (chunk_index, q_index) ascending. Ranks are assigned 1..N with no gaps.
    """
    # Equal chunks have equal contexts, so keying by the chunk (not its
    # index) is exact.
    contexts: dict[Chunk, tuple[Mapping[str, int], int]] = {}
    rows: list[tuple[QaPair, float, int]] = []
    for pair, chunk in pairs:
        context = contexts.get(chunk)
        if context is None:
            tokens = chain.from_iterable(chunk.sentence_tokens)
            context = contexts[chunk] = _prepared(Counter(content_tokens(tokens)))
        qa_text = f"{pair.question.text} {pair.answer.text}"
        qa = _prepared(Counter(content_tokens(word_tokens(qa_text))))
        rows.append((pair, *_scores(qa_text, qa, context)))
    rows.sort(key=lambda row: (-(row[1] + row[2]), row[0].chunk_index, row[0].q_index))
    return [
        ScoredFaq(pair=pair, semantic_score=semantic, keyword_score=keywords, rank=position)
        for position, (pair, semantic, keywords) in enumerate(rows, start=1)
    ]
