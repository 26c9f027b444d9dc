"""Sentence segmentation and word-count based chunking of plain-text documents.

A document is split into sentences first. A sentence ends after '.', '!' or
'?' when whitespace follows and the next non-whitespace character is an
uppercase letter or a digit (or the text ends there), except at the period
of a guarded abbreviation (``ABBREVIATIONS_V1``); sentences are the trimmed
texts between those ends. The sentences are then packed into chunks: a chunk
closes at the first sentence at which its cumulative word count reaches the
target size, so chunks never cut a sentence in half. A chunk keeps its
sentences, so the in-process steps never split its text again, and
tokenizes each of them once for all its readers.

The token rules live here alone: ``word_tokens`` splits text into tokens
and ``content_tokens`` drops those in ``STOPWORDS_V1``. So do the rules that
make every input file text, ``read_lines`` (``decode_utf8`` names a bad
byte), and every parsed JSON string, ``is_text``.
"""

from __future__ import annotations

import codecs
import re
import string
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

DEFAULT_CHUNK_WORDS = 250

# Version 1 of the sentence guard list. A token equal to one of these (after
# stripping leading quotes or brackets) never ends a sentence. Any edit to the
# list changes segmentation output and is therefore a breaking change.
ABBREVIATIONS_V1 = frozenset({"Mr.", "Mrs.", "Dr.", "e.g.", "i.e.", "etc.", "vs."})

# Version 1 stopword list, exactly 50 entries. Content tokens are the tokens
# not in it, and scores are defined relative to it; editing it is a breaking
# change.
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

# Sentence-ending punctuation: it closes a sentence in segmentation and every
# completed answer ends with one of these.
TERMINALS = ".!?"

# A candidate sentence end: a terminal followed by whitespace. The lookahead
# captures the next non-whitespace character ('' at the end of the text)
# without consuming it, so adjacent terminals ("? .") are each candidates.
_SENTENCE_END = re.compile(rf"[{re.escape(TERMINALS)}](?=\s+(\S?))")


class EmptyDocument(ValueError):
    """The document produced no sentences, so it cannot be chunked."""


@dataclass(frozen=True)
class SourceDocument:
    """A plain-text input document."""

    id: str
    raw_text: str

    @classmethod
    def from_text(cls, doc_id: str, raw_text: str) -> SourceDocument:
        return cls(id=doc_id, raw_text=raw_text)

    @property
    def word_count(self) -> int:
        return word_count(self.raw_text)


def decode_utf8(data: bytes) -> str:
    """*data*, a file's bytes, as UTF-8 after any leading byte-order mark. A
    bad byte raises a UnicodeError with its offset in *data*, the mark counted."""
    bom = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # utf-8-sig counts from after the mark it drops.
        raise UnicodeError(f"not UTF-8 at byte offset {exc.start + bom} ({exc.reason})") from None


def is_text(value: object) -> bool:
    """Whether *value* is a string that UTF-8 can encode. JSON can escape a
    lone surrogate, which UTF-8 cannot; a reply or SQuAD text holding one is
    malformed. An ASCII string, the common case, is known to be text at once."""
    try:
        return isinstance(value, str) and (value.isascii() or bool(value.encode("utf-8")))
    except UnicodeEncodeError:
        return False


def read_lines(path: str | Path, newline: str | None = None) -> Iterator[str]:
    """The lines of the UTF-8 file at *path* after any leading byte-order mark,
    read in blocks as ``open`` reads them with *newline*. A bad byte raises
    ``decode_utf8``'s UnicodeError, its offset counted from the file's start."""
    with open(path, encoding="utf-8-sig", newline=newline) as fh:
        try:
            yield from fh
        except UnicodeDecodeError:
            decode_utf8(Path(path).read_bytes())
            raise


@dataclass(frozen=True)
class Chunk:
    """A run of consecutive sentences totalling roughly the target word count.

    ``sentences`` are the document's sentence texts that fall in this chunk,
    as ``segment_sentences`` found them; ``context``, their single-space
    join, is the unit of text every downstream step works on.

    What the steps and the ranker derive from the sentences, ``context`` and
    ``sentence_tokens`` (a token list per sentence), is computed on first use
    and cached on the chunk for as long as the run keeps it.
    """

    index: int
    sentences: tuple[str, ...]

    @cached_property
    def context(self) -> str:
        return " ".join(self.sentences)

    @cached_property
    def sentence_tokens(self) -> tuple[list[str], ...]:
        """``word_tokens`` of each sentence, stopwords kept. ``context`` is
        the single-space join of the stripped sentences, so together they
        are ``word_tokens(context)``, in order."""
        return tuple(map(word_tokens, self.sentences))

    @property
    def word_count(self) -> int:
        return sum(word_count(sentence) for sentence in self.sentences)


def word_count(text: str) -> int:
    """Number of maximal non-whitespace runs in *text*."""
    return len(text.split())


def word_tokens(text: str) -> list[str]:
    """Ordered lowercase tokens of *text*, stopwords kept.

    Tokens are whitespace-delimited runs with leading/trailing ASCII
    punctuation stripped; empties are dropped. The text is lowercased
    before it is split, which gives the same tokens as lowercasing each
    stripped run: no character lowercases to whitespace or ASCII
    punctuation, or changes whether it is either, and the one
    context-dependent mapping (a final capital sigma) looks no further than
    cased letters, which neither whitespace nor ASCII punctuation is.
    """
    tokens = []
    for raw in text.lower().split():
        token = raw.strip(string.punctuation)
        if token:
            tokens.append(token)
    return tokens


def content_tokens(tokens: Iterable[str]) -> list[str]:
    """The *tokens* not in ``STOPWORDS_V1``, in order."""
    return [token for token in tokens if token not in STOPWORDS_V1]


def _guarded_abbreviation(head: str) -> bool:
    """Whether the last whitespace-delimited token of *head*, less leading
    punctuation, is a guarded abbreviation."""
    return head.rsplit(maxsplit=1)[-1].lstrip(string.punctuation) in ABBREVIATIONS_V1


def iter_sentences(text: str) -> Iterator[str]:
    """The trimmed sentence texts of *text*, each yielded as soon as the scan
    finds its end, so a reader that stops early scans no further.

    Every '.', '!' or '?' followed by whitespace is a candidate end. It ends
    a sentence when the next non-whitespace character is an uppercase letter
    or a digit, or when only whitespace follows, unless it is the period of
    a guarded abbreviation. Each piece between two ends is stripped of
    whitespace and kept when non-empty, so text with no sentence end is one
    sentence and empty or all-whitespace text is none.
    """
    start = 0
    # The token a candidate closes starts after the previous candidate, so the
    # guard reads only the text since then and segmentation stays linear.
    previous = 0
    for match in _SENTENCE_END.finditer(text):
        end = match.end()
        following = match[1]
        if (not following or following.isupper() or following.isdigit()) and not (
            match[0] == "." and _guarded_abbreviation(text[previous:end])
        ):
            if piece := text[start:end].strip():
                yield piece
            start = end
        previous = end
    if piece := text[start:].strip():
        yield piece


def segment_sentences(text: str) -> list[str]:
    """``iter_sentences`` of *text*, as a list."""
    return list(iter_sentences(text))


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
    words = 0
    parts: list[str] = []
    for sentence in sentences:
        parts.append(sentence)
        words += word_count(sentence)
        if words >= m:
            chunks.append(Chunk(index=len(chunks), sentences=tuple(parts)))
            words = 0
            parts = []
    if parts:
        chunks.append(Chunk(index=len(chunks), sentences=tuple(parts)))
    return chunks
