from __future__ import annotations

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faqgen.chunker import STOPWORDS_V1, Chunk, content_tokens, segment_sentences, word_tokens
from faqgen.gateway import AnswerPhrase, CompletedAnswer, GeneratedQuestion
from faqgen.ranker import QaPair, rank
from oracles import (
    ORACLE_STOPWORDS,
    oracle_cosine,
    oracle_keyword,
    oracle_rank_order,
    oracle_tokens,
)
from test_chunker import WORDS_TEXT

VOCAB = [
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel",
    "india", "juliet", "kilo", "lima", "mike", "november", "oscar", "papa",
    "quebec", "romeo", "sierra", "tango", "uniform", "victor", "whiskey",
    "xray", "yankee", "zulu", "ember", "quartz", "violet", "willow",
]


def make_pair(chunk_index: int, q_index: int, question: str, answer: str) -> QaPair:
    return QaPair(
        question=GeneratedQuestion(chunk_index=chunk_index, q_index=q_index, text=question),
        phrase=AnswerPhrase(text="placeholder phrase"),
        answer=CompletedAnswer(text=answer),
    )


def make_chunk(index: int, context: str) -> Chunk:
    return Chunk(index=index, sentences=tuple(segment_sentences(context)))


def scores(question: str, answer: str, context: str) -> tuple[float, int]:
    """``rank``'s semantic and keyword score of one pair, whose QA text is
    ``f"{question} {answer}"``, against *context*. A question of just "?"
    and an answer's closing "." add no token, so a test can put the whole
    QA text it means in the answer."""
    [faq] = rank([(make_pair(0, 0, question, answer), make_chunk(0, context))])
    return faq.semantic_score, faq.keyword_score


def qa_counts(text: str) -> Counter[str]:
    """The content-token counts ``rank`` reads for a QA text."""
    return Counter(content_tokens(word_tokens(text)))


class TestContentTokens:
    def test_stopwords_and_punctuation(self):
        assert qa_counts("The cats chase mice.") == {"cats": 1, "chase": 1, "mice": 1}

    def test_empty(self):
        assert qa_counts("") == {}

    def test_hand_tokenized_sentence(self):
        tokens = content_tokens(
            word_tokens("Entanglement is the sole hallmark of quantum mechanics.")
        )
        assert tokens == ["entanglement", "sole", "hallmark", "quantum", "mechanics"]

    def test_stopword_list_is_the_versioned_fifty(self):
        assert STOPWORDS_V1 == frozenset(ORACLE_STOPWORDS)
        assert len(STOPWORDS_V1) == 50

    def test_counts_repeats(self):
        assert qa_counts("dog dog Dog cat")["dog"] == 3

    @given(WORDS_TEXT)
    @settings(max_examples=300)
    def test_matches_oracle(self, text):
        assert content_tokens(word_tokens(text)) == oracle_tokens(text)


class TestSemanticSimilarity:
    def test_identical_texts_exactly_one(self):
        text = "Cats chase mice in the garden."
        assert scores("?", text, text)[0] == 1.0

    def test_identical_with_repeats_exactly_one(self):
        text = "cat cat dog dog dog bird"
        assert scores("?", f"{text}.", text)[0] == 1.0

    def test_disjoint_tokens_zero(self):
        assert scores("?", "alpha bravo.", "charlie delta")[0] == 0.0

    def test_empty_side_zero(self):
        assert scores("?", ".", "alpha")[0] == 0.0
        assert scores("?", "alpha.", "the of and")[0] == 0.0

    def test_frozen_fixture(self):
        # tf vectors {cats:1, chase:1, mice:1} vs {mice:1, chase:2, cats:1}:
        # dot 4, norms sqrt(3) and sqrt(6)
        value = scores("?", "cats chase mice.", "mice chase cats chase")[0]
        assert abs(value - 0.9428090415820634) < 1e-9
        assert abs(value - 4 / math.sqrt(18)) < 1e-9

    def test_symmetry_example(self):
        left = "alpha bravo charlie alpha"
        right = "bravo delta alpha"
        assert scores("?", f"{left}.", right)[0] == scores("?", f"{right}.", left)[0]

    @given(
        st.lists(st.sampled_from(VOCAB[:8]), max_size=25),
        st.lists(st.sampled_from(VOCAB[:8]), max_size=25),
    )
    @settings(max_examples=80)
    def test_oracle_equivalence_and_symmetry(self, left_words, right_words):
        left = " ".join(left_words)
        right = " ".join(right_words)
        value = scores("?", f"{left}.", right)[0]
        assert abs(value - oracle_cosine(left, right)) < 1e-9
        assert value == scores("?", f"{right}.", left)[0]
        assert 0.0 <= value <= 1.0

    @given(st.lists(st.sampled_from(VOCAB[:10]), min_size=1, max_size=25), st.randoms())
    @settings(max_examples=50)
    def test_token_permutation_invariance(self, words, rng):
        shuffled = list(words)
        rng.shuffle(shuffled)
        context = "alpha bravo charlie delta echo"
        assert scores("?", " ".join(words) + ".", context)[0] == scores(
            "?", " ".join(shuffled) + ".", context
        )[0]

    @given(st.lists(st.sampled_from(VOCAB), min_size=1, max_size=20))
    def test_self_similarity_is_one(self, words):
        text = " ".join(words)
        assert scores("?", f"{text}.", text)[0] == 1.0


class TestKeywordScore:
    def test_450_chars_with_5_matches(self):
        shared = "alpha bravo charlie delta echo"
        question, answer = "?", shared + " " + "x" * (450 - len(shared) - 4) + "."
        qa_text = f"{question} {answer}"
        assert len(qa_text) == 450
        context = "alpha bravo charlie delta echo unrelated words here"
        assert scores(question, answer, context)[1] == 3
        assert oracle_keyword(qa_text, context) == 3

    def test_zero_matches_any_length(self):
        for length in (10, 150, 450, 900):
            answer = "z" * (length - 3) + "."
            assert len(f"? {answer}") == length
            assert scores("?", answer, "alpha bravo charlie")[1] == 0

    def test_150_chars_with_2_matches(self):
        answer = "alpha bravo " + "y" * 135 + "."
        assert len(f"? {answer}") == 150
        assert scores("?", answer, "alpha bravo")[1] == 2

    def test_negative_score_allowed(self):
        answer = "alpha " + "p" * 441 + "."
        assert len(f"? {answer}") == 450
        assert scores("?", answer, "alpha")[1] == 1 - 2

    def test_distinct_matching_ignores_context_duplicates(self):
        answer = "alpha bravo."
        assert scores("?", answer, "alpha bravo")[1] == scores(
            "?", answer, "alpha alpha alpha bravo bravo"
        )[1]

    def test_char_length_counts_code_points(self):
        # 199 code points -> no penalty; 200 -> one
        short = "alpha " + "é" * (199 - 9) + "."
        long = "alpha " + "é" * (200 - 9) + "."
        assert (len(f"? {short}"), len(f"? {long}")) == (199, 200)
        assert scores("?", short, "alpha")[1] == 1
        assert scores("?", long, "alpha")[1] == 0

    @given(
        st.lists(st.sampled_from(VOCAB[:12]), max_size=30),
        st.lists(st.sampled_from(VOCAB[:12]), max_size=30),
    )
    @settings(max_examples=80)
    def test_oracle_equivalence(self, qa_words, context_words):
        answer = " ".join(qa_words) + "."
        context = " ".join(context_words)
        assert scores("?", answer, context)[1] == oracle_keyword(f"? {answer}", context)


class TestRank:
    def test_simple_ordering(self):
        chunk_a = make_chunk(0, "alpha bravo charlie delta echo")
        chunk_b = make_chunk(1, "zulu yankee xray")
        pair_hi = make_pair(0, 0, "What about alpha bravo charlie?", "Alpha bravo charlie delta echo.")
        pair_lo = make_pair(1, 0, "What about quartz?", "Nothing matches here sadly.")
        scored = rank([(pair_lo, chunk_b), (pair_hi, chunk_a)])
        assert [s.rank for s in scored] == [1, 2]
        assert scored[0].pair is pair_hi
        assert scored[0].total_score > scored[1].total_score

    def test_tie_breaks_by_chunk_then_q_index(self):
        context = "alpha bravo charlie"
        chunk_two = make_chunk(2, context)
        chunk_zero = make_chunk(0, context)
        pair_two = make_pair(2, 0, "What is alpha?", "Alpha bravo charlie.")
        pair_zero = make_pair(0, 0, "What is alpha?", "Alpha bravo charlie.")
        scored = rank([(pair_two, chunk_two), (pair_zero, chunk_zero)])
        assert scored[0].pair.chunk_index == 0
        assert scored[1].pair.chunk_index == 2
        assert scored[0].total_score == scored[1].total_score

    def test_total_is_exact_sum_and_ranks_are_dense(self):
        rng = random.Random(7)
        pairs = []
        for i in range(12):
            context = " ".join(rng.choices(VOCAB, k=rng.randint(3, 20)))
            question = " ".join(rng.choices(VOCAB, k=rng.randint(1, 8))) + "?"
            answer = " ".join(rng.choices(VOCAB, k=rng.randint(1, 12))) + "."
            pairs.append((make_pair(i, 0, question, answer), make_chunk(i, context)))
        scored = rank(pairs)
        assert [s.rank for s in scored] == list(range(1, 13))
        for faq in scored:
            assert faq.total_score == faq.semantic_score + faq.keyword_score

    def test_twenty_random_pairs_match_oracle(self):
        rng = random.Random(20240811)
        pairs = []
        oracle_items = []
        for i in range(20):
            chunk_index = rng.randint(0, 4)
            q_index = i
            context = " ".join(rng.choices(VOCAB[:10], k=rng.randint(3, 25)))
            question = " ".join(rng.choices(VOCAB[:10], k=rng.randint(1, 6))) + "?"
            answer = " ".join(rng.choices(VOCAB[:10], k=rng.randint(1, 10))) + "."
            pairs.append(
                (make_pair(chunk_index, q_index, question, answer), make_chunk(chunk_index, context))
            )
            oracle_items.append((f"{question} {answer}", context, chunk_index, q_index))
        scored = rank(pairs)
        expected = oracle_rank_order(oracle_items)
        assert len(scored) == len(expected)
        for faq, (position, semantic, keyword) in zip(scored, expected):
            assert faq.pair is pairs[position][0]
            assert abs(faq.semantic_score - semantic) < 1e-9
            assert faq.keyword_score == keyword

    def test_shuffle_stability(self):
        rng = random.Random(3)
        pairs = []
        for i in range(15):
            context = " ".join(rng.choices(VOCAB[:6], k=10))
            question = " ".join(rng.choices(VOCAB[:6], k=3)) + "?"
            answer = " ".join(rng.choices(VOCAB[:6], k=5)) + "."
            pairs.append((make_pair(i % 4, i, question, answer), make_chunk(i % 4, context)))
        baseline = rank(pairs)
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        assert rank(shuffled) == baseline

    def test_empty_input(self):
        assert rank([]) == []

    @given(WORDS_TEXT, WORDS_TEXT, WORDS_TEXT)
    @settings(max_examples=300)
    def test_one_pair_matches_oracle_on_any_text(self, question, answer, context):
        question, answer = f"{question}?", f"{answer}."
        semantic, keyword = scores(question, answer, context)
        qa_text = f"{question} {answer}"
        assert abs(semantic - oracle_cosine(qa_text, context)) < 1e-9
        assert keyword == oracle_keyword(qa_text, context)


class TestQaPair:
    def test_indices_mirror_question(self):
        pair = make_pair(3, 7, "What is this about?", "It is about mirrors.")
        assert pair.chunk_index == 3
        assert pair.q_index == 7


class TestTypeInvariants:
    def test_question_must_end_with_question_mark(self):
        with pytest.raises(ValueError):
            GeneratedQuestion(chunk_index=0, q_index=0, text="no mark")

    def test_phrase_must_be_trimmed(self):
        with pytest.raises(ValueError):
            AnswerPhrase(text=" padded ")
        with pytest.raises(ValueError):
            AnswerPhrase(text="")

    def test_answer_needs_terminal_punctuation(self):
        with pytest.raises(ValueError):
            CompletedAnswer(text="unterminated")
        CompletedAnswer(text="Fine sentence!")
