"""Sentence segmentation and word-count based chunking of plain-text documents.

A document is split into sentences first, then sentences are packed into
chunks: a chunk closes at the first sentence at which its cumulative word
count reaches the target size, so chunks never cut a sentence in half.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

DEFAULT_CHUNK_WORDS = 250

# Version 1 of the sentence guard list. A token equal to one of these (after
# stripping leading quotes or brackets) never ends a sentence. Any edit to the
# list changes segmentation output and is therefore a breaking change.
ABBREVIATIONS_V1 = frozenset({"Mr.", "Mrs.", "Dr.", "e.g.", "i.e.", "etc.", "vs."})

# Sentence-ending punctuation: it closes a sentence in segmentation and every
# completed answer ends with one of these.
TERMINALS = ".!?"


class EmptyDocument(ValueError):
    """The document produced no sentences, so it cannot be chunked."""


@dataclass(frozen=True)
class SourceDocument:
    """A plain-text input document with its whitespace-delimited word count."""

    id: str
    raw_text: str
    word_count: int

    def __post_init__(self) -> None:
        actual = word_count(self.raw_text)
        if self.word_count != actual:
            raise ValueError(
                f"word_count {self.word_count} does not match raw_text ({actual} words)"
            )

    @classmethod
    def from_text(cls, doc_id: str, raw_text: str) -> SourceDocument:
        return cls(id=doc_id, raw_text=raw_text, word_count=word_count(raw_text))


@dataclass(frozen=True)
class Sentence:
    """One sentence of a document, with character offsets into the raw text."""

    text: str
    start_offset: int
    end_offset: int
    word_count: int


@dataclass(frozen=True)
class Chunk:
    """A run of consecutive sentences totalling roughly the target word count.

    ``context`` is the sentence texts joined by single spaces and is the unit
    of text every downstream step works on. ``sentence_range`` is the
    inclusive (first, last) index pair into the document's sentence list.
    """

    index: int
    context: str
    sentence_range: tuple[int, int]
    word_count: int


def word_count(text: str) -> int:
    """Number of maximal non-whitespace runs in *text*."""
    return len(text.split())


def word_tokens(text: str, stopwords: frozenset[str] = frozenset()) -> list[str]:
    """Ordered lowercase tokens of *text*.

    Tokens are whitespace-delimited runs with leading/trailing ASCII
    punctuation stripped; empties and members of *stopwords* are dropped.
    """
    tokens = []
    for raw in text.split():
        token = raw.strip(string.punctuation).lower()
        if token and token not in stopwords:
            tokens.append(token)
    return tokens


def _guarded_abbreviation(text: str, dot_index: int) -> bool:
    start = dot_index
    while start > 0 and not text[start - 1].isspace():
        start -= 1
    token = text[start : dot_index + 1].lstrip(string.punctuation)
    return token in ABBREVIATIONS_V1


def segment_sentences(text: str) -> list[Sentence]:
    """Split *text* into sentences.

    A sentence ends after '.', '!' or '?' when whitespace follows and the
    next non-whitespace character is an uppercase letter or a digit (or the
    text ends). A period closing a guarded abbreviation never splits. Text
    with no qualifying terminator comes back as a single sentence; empty or
    all-whitespace input yields an empty list.
    """
    length = len(text)
    ends: list[int] = []
    for i, char in enumerate(text):
        if char not in TERMINALS:
            continue
        j = i + 1
        if j >= length or not text[j].isspace():
            continue
        k = j
        while k < length and text[k].isspace():
            k += 1
        if k < length and not (text[k].isupper() or text[k].isdigit()):
            continue
        if char == "." and _guarded_abbreviation(text, i):
            continue
        ends.append(j)

    sentences: list[Sentence] = []
    cursor = 0
    for boundary in [*ends, length]:
        start = cursor
        while start < boundary and text[start].isspace():
            start += 1
        if start == boundary:
            cursor = boundary
            continue
        stop = boundary
        while stop > start and text[stop - 1].isspace():
            stop -= 1
        raw = text[start:stop]
        sentences.append(
            Sentence(
                text=raw,
                start_offset=start,
                end_offset=stop,
                word_count=word_count(raw),
            )
        )
        cursor = boundary
    return sentences


def build_chunks(doc: SourceDocument, m: int = DEFAULT_CHUNK_WORDS) -> list[Chunk]:
    """Partition *doc* into sentence-aligned chunks of roughly *m* words.

    A chunk closes at the first sentence at which its cumulative word count
    reaches or exceeds *m*; whatever is left after the last full chunk forms
    one trailing (smaller) chunk. Raises :class:`EmptyDocument` when the
    document has no sentences.
    """
    if m < 1:
        raise ValueError(f"chunk size must be >= 1, got {m}")
    sentences = segment_sentences(doc.raw_text)
    if not sentences:
        raise EmptyDocument(f"document {doc.id!r} contains no sentences")

    chunks: list[Chunk] = []
    first = 0
    words = 0
    parts: list[str] = []
    for idx, sentence in enumerate(sentences):
        parts.append(sentence.text)
        words += sentence.word_count
        if words >= m:
            chunks.append(
                Chunk(
                    index=len(chunks),
                    context=" ".join(parts),
                    sentence_range=(first, idx),
                    word_count=words,
                )
            )
            first = idx + 1
            words = 0
            parts = []
    if parts:
        chunks.append(
            Chunk(
                index=len(chunks),
                context=" ".join(parts),
                sentence_range=(first, len(sentences) - 1),
                word_count=words,
            )
        )
    return chunks
