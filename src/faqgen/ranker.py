"""Relevance scoring and ordering of question-answer pairs.

Each pair is scored against the context of the chunk it came from: a raw
term-frequency cosine similarity plus an integer keyword-overlap score that
loses one point per 200 characters of question-answer text.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .chunker import word_tokens

if TYPE_CHECKING:
    from .chunker import Chunk
    from .gateway import AnswerPhrase, CompletedAnswer, GeneratedQuestion

PENALTY_SPAN_CHARS = 200

# Version 1 stopword list, exactly 50 entries. Scores are defined relative to
# this list; editing it is a breaking change.
STOPWORDS_V1 = frozenset(
    """
    a an the and or but if then
    is are was were be been being am
    do does did has have had
    will would can could should may might must
    of to in on at by for with from as
    it its this that these those
    not no so such
    """.split()
)


@dataclass(frozen=True)
class QaPair:
    """A generated question with its answer phrase and completed answer."""

    question: GeneratedQuestion
    phrase: AnswerPhrase
    answer: CompletedAnswer
    chunk_index: int = field(init=False)
    q_index: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "chunk_index", self.question.chunk_index)
        object.__setattr__(self, "q_index", self.question.q_index)


@dataclass(frozen=True)
class ScoredFaq:
    """A ranked pair with both score terms and their exact sum."""

    pair: QaPair
    semantic_score: float
    keyword_score: int
    total_score: float
    rank: int


def content_token_list(text: str) -> list[str]:
    """Ordered lowercase tokens of *text* with the stopwords dropped."""
    return word_tokens(text, STOPWORDS_V1)


def content_tokens(text: str) -> Counter[str]:
    """Multiset of content tokens of *text*."""
    return Counter(content_token_list(text))


def semantic_similarity(qa_text: str, context: str) -> float:
    """Cosine similarity of raw term-frequency vectors, in [0, 1].

    Either side having no content tokens yields 0.0. Identical token
    multisets yield exactly 1.0.
    """
    left = content_tokens(qa_text)
    right = content_tokens(context)
    if not left or not right:
        return 0.0
    dot = sum(count * right[token] for token, count in left.items())
    if dot == 0:
        return 0.0
    norm_sq = sum(c * c for c in left.values()) * sum(c * c for c in right.values())
    return min(1.0, dot / math.sqrt(norm_sq))


def keyword_score(qa_text: str, context: str) -> int:
    """Distinct shared content tokens, penalised by qa_text length.

    Zero matches score 0 regardless of length; otherwise one point is
    subtracted per full 200 characters of *qa_text* (Unicode code points),
    so the result can go negative.
    """
    shared = set(content_token_list(qa_text)) & set(content_token_list(context))
    if not shared:
        return 0
    return len(shared) - len(qa_text) // PENALTY_SPAN_CHARS


def rank(pairs: list[tuple[QaPair, Chunk]]) -> list[ScoredFaq]:
    """Score every pair against its own chunk's context and order them.

    Descending total score; exact ties resolve by (chunk_index, q_index)
    ascending. Ranks are assigned 1..N with no gaps.
    """
    rows: list[tuple[QaPair, float, int, float]] = []
    for pair, chunk in pairs:
        qa_text = f"{pair.question.text} {pair.answer.text}"
        semantic = semantic_similarity(qa_text, chunk.context)
        keywords = keyword_score(qa_text, chunk.context)
        rows.append((pair, semantic, keywords, semantic + keywords))
    rows.sort(key=lambda row: (-row[3], row[0].chunk_index, row[0].q_index))
    return [
        ScoredFaq(
            pair=pair,
            semantic_score=semantic,
            keyword_score=keywords,
            total_score=total,
            rank=position,
        )
        for position, (pair, semantic, keywords, total) in enumerate(rows, start=1)
    ]
