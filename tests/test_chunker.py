from __future__ import annotations

import codecs
import json
import sys
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faqgen import chunker
from faqgen.chunker import (
    Chunk,
    EmptyDocument,
    SourceDocument,
    build_chunks,
    iter_sentences,
    read_lines,
    segment_sentences,
    word_count,
    word_tokens,
)
from oracles import (
    ORACLE_STOPWORDS,
    oracle_chunk_sizes,
    oracle_plain_tokens,
    oracle_sentences,
    oracle_word_count,
)

CORPUS = json.loads(
    (__import__("pathlib").Path(__file__).parent / "fixtures" / "sentence_corpus.json")
    .read_text(encoding="utf-8")
)


def make_sentence(words: int, prefix: str = "w") -> str:
    """A one-line sentence with exactly *words* whitespace tokens, starting
    uppercase and ending with a period attached to the last token."""
    assert words >= 2
    middle = " ".join(f"{prefix}{i}" for i in range(words - 2))
    return f"Alpha {middle} omega." if middle else "Alpha omega."


class TestWordCount:
    def test_simple(self):
        assert word_count("a b  c") == 3

    def test_empty(self):
        assert word_count("") == 0

    def test_whitespace_only(self):
        assert word_count(" \t\n ") == 0

    def test_matches_oracle_on_fixture_paragraph(self):
        paragraph = (
            "Entanglement, the sole hallmark of quantum mechanics,\n"
            "describes a peculiar connection\tbetween particles."
        )
        assert word_count(paragraph) == oracle_word_count(paragraph)

    @given(st.text(alphabet=" \t\nabcXYZ.!?019", max_size=300))
    def test_matches_oracle(self, text):
        assert word_count(text) == oracle_word_count(text)


# Any code point but a surrogate, with the 29 str.isspace() characters, ASCII
# punctuation, and the letters whose lowercase depends on context or has
# another length (capital sigma, dotted capital I) drawn more often.
WHITESPACE = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())
TOKEN_TEXT = st.text(
    st.one_of(
        st.characters(exclude_categories=("Cs",)),
        st.sampled_from(WHITESPACE + "\u03a3\u03c3\u03c2\u0130I.,'\"-()!?"),
    ),
    max_size=60,
)
# Runs of TOKEN_TEXT with stopwords and a few other words between them, some
# cased or punctuated: random characters alone almost never make a stopword,
# or a token that two drawn texts share.
WORDS_TEXT = st.lists(
    st.one_of(
        TOKEN_TEXT,
        st.sampled_from([*sorted(ORACLE_STOPWORDS), "The", "OF,", "(and)", "alpha", "Bravo."]),
    ),
    max_size=8,
).map(" ".join)


class TestWordTokens:
    def test_every_whitespace_character_is_drawn(self):
        assert len(WHITESPACE) == 29

    @given(TOKEN_TEXT)
    @settings(max_examples=500)
    def test_matches_oracle(self, text):
        assert word_tokens(text) == oracle_plain_tokens(text)

    @given(st.lists(WORDS_TEXT, max_size=6))
    @settings(max_examples=300)
    def test_context_tokens_are_the_sentences_tokens(self, texts):
        # A chunk's context is the single-space join of its stripped,
        # non-empty sentences, so tokenizing each sentence once gives the
        # context's tokens: what the steps and the ranker read.
        chunk = Chunk(index=0, sentences=tuple(t.strip() for t in texts if t.strip()))
        expected = word_tokens(" ".join(chunk.sentences))
        assert list(chain.from_iterable(chunk.sentence_tokens)) == expected


class TestSegmentSentences:
    def test_two_terminal_sentences(self):
        assert segment_sentences("Hello world. How are you?") == [
            "Hello world.",
            "How are you?",
        ]

    def test_empty_input(self):
        assert segment_sentences("") == []

    @pytest.mark.parametrize("case", CORPUS, ids=lambda c: c["text"][:30] or "<empty>")
    def test_hand_segmented_corpus(self, case):
        assert segment_sentences(case["text"]) == case["sentences"]
        assert oracle_sentences(case["text"]) == case["sentences"]

    def test_corpus_is_large_enough(self):
        assert sum(len(case["sentences"]) for case in CORPUS) >= 50

    @pytest.mark.parametrize("case", CORPUS, ids=lambda c: c["text"][:30] or "<empty>")
    def test_offsets_cover_all_non_whitespace(self, case):
        # Each sentence is found in the text at or after the previous one's
        # end; the gaps between them are whitespace only, so every
        # non-whitespace character is covered by exactly one sentence.
        text = case["text"]
        previous_end = 0
        for sentence in segment_sentences(text):
            assert word_count(sentence) >= 1
            assert sentence == sentence.strip()
            start = text.find(sentence, previous_end)
            assert start >= 0, f"{sentence!r} not found after offset {previous_end}"
            assert text[previous_end:start].strip() == ""
            previous_end = start + len(sentence)
        assert text[previous_end:].strip() == ""

    def test_no_terminal_punctuation_is_one_sentence(self):
        sentences = segment_sentences("just a lowercase fragment with no ending")
        assert len(sentences) == 1
        assert word_count(sentences[0]) == 7

    # Adjacent and text-final terminals, Unicode whitespace, lower, upper and
    # non-ASCII capitals, digits, and guarded abbreviations behind quotes or
    # brackets.
    @given(
        st.lists(
            st.sampled_from(
                ["a", "b", "Z", "\u00c9", "\u00e9", "7", ".", "!", "?", "? .", "!..",
                 " ", "\xa0", "\n", "\t", "Dr.", "Mrs.", "e.g.", "vs.", '"', "(", "'"]
            ),
            max_size=40,
        ).map("".join)
    )
    @settings(max_examples=400)
    def test_matches_oracle(self, text):
        assert segment_sentences(text) == oracle_sentences(text)

    # Any Unicode text, with sentence ends, guarded abbreviations, capitals,
    # digits and Unicode spaces mixed in often enough to meet.
    @given(
        st.lists(
            st.text(max_size=6)
            | st.sampled_from([". ", "! ", "? ", ".\u2028", "Dr. ", "e.g. ", " \u0130", " 7",
                               "\u3000\u01c5", "\xa0"]),
            max_size=30,
        ).map("".join)
    )
    @settings(max_examples=400)
    def test_iter_sentences_matches_oracle_on_any_text(self, text):
        assert list(iter_sentences(text)) == oracle_sentences(text)


def _sentence_texts() -> st.SearchStrategy[str]:
    vocab = ["alpha", "bravo", "charlie", "delta", "echo", "Foxtrot", "Golf", "19"]
    word = st.sampled_from(vocab)
    sentence = st.lists(word, min_size=1, max_size=8).map(
        lambda ws: (" ".join(ws).capitalize() + ".")
    )
    return st.lists(sentence, min_size=1, max_size=40).map(" ".join)


class TestBuildChunks:
    def test_small_document_single_chunk(self):
        doc = SourceDocument.from_text("d", "Ten short words are sitting in this one sentence here.")
        chunks = build_chunks(doc, 250)
        assert len(chunks) == 1
        assert chunks[0].word_count == 10

    def test_hundred_word_sentences(self):
        # 9 sentences of 100 words, m=250: cumulative count first reaches the
        # target at the third sentence of each group -> 3 chunks of 300.
        text = " ".join(make_sentence(100, prefix=f"s{i}w") for i in range(9))
        doc = SourceDocument.from_text("d", text)
        chunks = build_chunks(doc, 250)
        assert [c.word_count for c in chunks] == [300, 300, 300]
        assert [c.word_count for c in chunks] == oracle_chunk_sizes([100] * 9, 250)

    def test_remainder_chunk(self):
        text = " ".join(make_sentence(25, prefix=f"s{i}w") for i in range(4))
        text += " " + make_sentence(23, prefix="tail")
        doc = SourceDocument.from_text("d", text)
        chunks = build_chunks(doc, 50)
        assert [c.word_count for c in chunks] == [50, 50, 23]
        assert [c.word_count for c in chunks] == oracle_chunk_sizes([25, 25, 25, 25, 23], 50)

    def test_empty_document_raises(self):
        with pytest.raises(EmptyDocument):
            build_chunks(SourceDocument.from_text("d", ""), 250)
        with pytest.raises(EmptyDocument):
            build_chunks(SourceDocument.from_text("d", "   \n\t "), 250)

    def test_invalid_m_rejected(self):
        doc = SourceDocument.from_text("d", "One sentence.")
        with pytest.raises(ValueError):
            build_chunks(doc, 0)

    def test_m_of_one_gives_chunk_per_sentence(self):
        text = "First one. Second one. Third one."
        doc = SourceDocument.from_text("d", text)
        chunks = build_chunks(doc, 1)
        assert len(chunks) == 3

    def test_context_is_single_space_join(self):
        text = "Alpha beta.\n\nGamma delta. Epsilon zeta."
        doc = SourceDocument.from_text("d", text)
        chunks = build_chunks(doc, 4)
        assert chunks[0].context == "Alpha beta. Gamma delta."

    @given(_sentence_texts(), st.integers(min_value=1, max_value=60))
    @settings(max_examples=60)
    def test_partition_and_minimality(self, text, m):
        doc = SourceDocument.from_text("d", text)
        chunks = build_chunks(doc, m)

        for chunk in chunks:
            assert chunk.sentences
            assert chunk.word_count == word_count(chunk.context)

        # minimal closing sentence for every non-final chunk
        for chunk in chunks[:-1]:
            assert chunk.word_count >= m
            assert chunk.word_count - word_count(chunk.sentences[-1]) < m

        # determinism
        again = build_chunks(doc, m)
        assert again == chunks

    @given(_sentence_texts(), st.sampled_from([1, 2, 3, 5, 40]))
    @settings(max_examples=200)
    def test_chunk_sentences_tile_and_resegment(self, text, m):
        # A chunk's context splits back into exactly its sentences, so a stub
        # reading them sees what the stub server finds in the context; and
        # the chunks' sentences, in order, are the document's sentences.
        chunks = build_chunks(SourceDocument.from_text("d", text), m)
        for chunk in chunks:
            assert segment_sentences(chunk.context) == list(chunk.sentences)
        assert [s for chunk in chunks for s in chunk.sentences] == segment_sentences(text)

    @given(_sentence_texts(), st.integers(min_value=1, max_value=50))
    @settings(max_examples=40)
    def test_chunk_count_monotone_in_m(self, text, m):
        doc = SourceDocument.from_text("d", text)
        assert len(build_chunks(doc, m + 1)) <= len(build_chunks(doc, m))


class TestSourceDocument:
    def test_from_text_counts_words(self):
        doc = SourceDocument.from_text("x", "one two three")
        assert (doc.id, doc.raw_text) == ("x", "one two three")
        assert word_count(doc.raw_text) == 3


class TestReadLines:
    def test_lines_as_open_reads_them_without_the_byte_order_mark(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_bytes(codecs.BOM_UTF8 + "caf\u00e9\r\nb\rc\n".encode())
        assert list(read_lines(path)) == ["caf\u00e9\n", "b\n", "c\n"]
        assert list(read_lines(path, newline="")) == ["caf\u00e9\r\n", "b\r", "c\n"]

    @pytest.mark.parametrize("offset", [5, 20_000])
    def test_bad_byte_offset_counts_the_mark_in_any_block(self, tmp_path, offset):
        path = tmp_path / "in.txt"
        prefix = codecs.BOM_UTF8 + b"line\n" * offset
        path.write_bytes(prefix[:offset] + b"\xff tail\n")
        with pytest.raises(UnicodeError) as caught:
            list(read_lines(path))
        assert str(caught.value) == f"not UTF-8 at byte offset {offset} (invalid start byte)"

    def test_original_error_when_a_second_read_finds_no_bad_byte(self, tmp_path, monkeypatch):
        path = tmp_path / "in.txt"
        path.write_bytes(b"ok\n\xff\n")
        monkeypatch.setattr(chunker, "decode_utf8", lambda data: "")
        with pytest.raises(UnicodeDecodeError):
            list(read_lines(path))
