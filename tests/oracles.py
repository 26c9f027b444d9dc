"""Independent reference implementations used to check derived values.

Everything here is deliberately written from scratch (dict loops, manual
character scans, Decimal arithmetic, no ``re``) so that it shares no code
with the package under test. The stopword, punctuation and abbreviation
sets are re-listed literally: they are part of the scoring and segmentation
contract, and duplicating them guards against accidental edits on either
side. The CSV oracle is the standard library's own ``csv.writer``, whose
bytes the package's table writer keeps.
"""

from __future__ import annotations

import csv
import io
import math
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

ORACLE_STOPWORDS = {
    "a", "an", "the", "and", "or", "but", "if", "then",
    "is", "are", "was", "were", "be", "been", "being", "am",
    "do", "does", "did", "has", "have", "had",
    "will", "would", "can", "could", "should", "may", "might", "must",
    "of", "to", "in", "on", "at", "by", "for", "with", "from", "as",
    "it", "its", "this", "that", "these", "those",
    "not", "no", "so", "such",
}

ORACLE_PUNCT = set("!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~")

ORACLE_ABBREVIATIONS = {"Mr.", "Mrs.", "Dr.", "e.g.", "i.e.", "etc.", "vs."}


def oracle_word_count(text: str) -> int:
    count = 0
    in_run = False
    for char in text:
        if char.isspace():
            in_run = False
        elif not in_run:
            count += 1
            in_run = True
    return count


def oracle_sentences(text: str) -> list[str]:
    """Sentence texts by a forward character scan: a sentence ends after a
    terminal followed by whitespace when the next non-whitespace character
    is uppercase, a digit or the end of the text, unless the terminal is the
    period of a guarded abbreviation."""
    sentences = []
    current = ""
    for i, char in enumerate(text, start=1):
        # i is the index just after char
        current += char
        if char not in ".!?" or i == len(text) or not text[i].isspace():
            continue
        k = i
        while k < len(text) and text[k].isspace():
            k += 1
        if k < len(text) and not (text[k].isupper() or text[k].isdigit()):
            continue
        if char == ".":
            start = len(current)
            while start > 0 and not current[start - 1].isspace():
                start -= 1
            token = current[start:]
            while token and token[0] in ORACLE_PUNCT:
                token = token[1:]
            if token in ORACLE_ABBREVIATIONS:
                continue
        sentences.append(current)
        current = ""
    sentences.append(current)
    trimmed = []
    for sentence in sentences:
        start, stop = 0, len(sentence)
        while start < stop and sentence[start].isspace():
            start += 1
        while stop > start and sentence[stop - 1].isspace():
            stop -= 1
        if start < stop:
            trimmed.append(sentence[start:stop])
    return trimmed


def oracle_tokens(text: str) -> list[str]:
    tokens = []
    for raw in text.split():
        start, stop = 0, len(raw)
        while start < stop and raw[start] in ORACLE_PUNCT:
            start += 1
        while stop > start and raw[stop - 1] in ORACLE_PUNCT:
            stop -= 1
        token = raw[start:stop].lower()
        if token and token not in ORACLE_STOPWORDS:
            tokens.append(token)
    return tokens


def oracle_cosine(qa_text: str, context: str) -> float:
    left = oracle_tokens(qa_text)
    right = oracle_tokens(context)
    if not left or not right:
        return 0.0
    tf_left: dict[str, int] = {}
    for token in left:
        tf_left[token] = tf_left.get(token, 0) + 1
    tf_right: dict[str, int] = {}
    for token in right:
        tf_right[token] = tf_right.get(token, 0) + 1
    dot = 0
    for token, count in tf_left.items():
        dot += count * tf_right.get(token, 0)
    if dot == 0:
        return 0.0
    norm_left = sum(v * v for v in tf_left.values()) ** 0.5
    norm_right = sum(v * v for v in tf_right.values()) ** 0.5
    value = dot / (norm_left * norm_right)
    return 1.0 if value > 1.0 else value


def oracle_keyword(qa_text: str, context: str) -> int:
    shared = set(oracle_tokens(qa_text)) & set(oracle_tokens(context))
    if not shared:
        return 0
    penalty = len(qa_text) // 200
    return len(shared) - penalty


def oracle_rank_order(
    items: list[tuple[str, str, int, int]]
) -> list[tuple[int, float, int]]:
    """items are (qa_text, context, chunk_index, q_index); returns the ranked
    list of (original position, semantic, keyword)."""
    scored = []
    for position, (qa_text, context, chunk_index, q_index) in enumerate(items):
        semantic = oracle_cosine(qa_text, context)
        keyword = oracle_keyword(qa_text, context)
        scored.append((position, semantic, keyword, chunk_index, q_index))
    scored.sort(key=lambda row: (-(row[1] + row[2]), row[3], row[4]))
    return [(position, semantic, keyword) for position, semantic, keyword, _, _ in scored]


def oracle_chunk_sizes(sentence_word_counts: list[int], m: int) -> list[int]:
    sizes = []
    acc = 0
    for count in sentence_word_counts:
        acc += count
        if acc >= m:
            sizes.append(acc)
            acc = 0
    if acc:
        sizes.append(acc)
    return sizes


def oracle_mean_rounded(values: list[int]) -> int:
    mean = Decimal(sum(values)) / Decimal(len(values))
    return int(mean.quantize(Decimal("1"), rounding=ROUND_HALF_UP))


def oracle_pstdev(values: list[float]) -> float:
    mean = sum(values) / len(values)
    variance = sum((v - mean) ** 2 for v in values) / len(values)
    return variance ** 0.5


def oracle_rounded_pstdev(values: list[float]) -> float:
    """The float nearest the square root of the exact (``Fraction``)
    population variance of *values*, ties to an even significand: found from
    ``math.sqrt``'s guess by comparing the variance with the exact squares of
    the midpoints to the neighbouring floats."""
    exact = [Fraction(v) for v in values]
    mean = sum(exact) / len(exact)
    variance = sum((v - mean) ** 2 for v in exact) / len(exact)
    root = math.sqrt(float(variance))
    while True:
        below, above = math.nextafter(root, 0.0), math.nextafter(root, math.inf)
        low = ((Fraction(root) + Fraction(below)) / 2) ** 2
        high = ((Fraction(root) + Fraction(above)) / 2) ** 2
        odd = int(math.ldexp(math.frexp(root)[0], 53)) % 2 == 1
        if variance < low or (variance == low and odd):
            root = below
        elif variance > high or (variance == high and odd):
            root = above
        else:
            return root


def oracle_lexicon_hits(context: str, entries: dict[str, frozenset[str]]) -> dict[str, int]:
    hits = {domain: 0 for domain in entries}
    for raw in context.split():
        start, stop = 0, len(raw)
        while start < stop and raw[start] in ORACLE_PUNCT:
            start += 1
        while stop > start and raw[stop - 1] in ORACLE_PUNCT:
            stop -= 1
        token = raw[start:stop].lower()
        if not token:
            continue
        for domain, terms in entries.items():
            if token in terms:
                hits[domain] += 1
    return hits


def oracle_plain_tokens(text: str) -> list[str]:
    """``oracle_tokens`` with stopwords kept."""
    tokens = []
    for raw in text.split():
        start, stop = 0, len(raw)
        while start < stop and raw[start] in ORACLE_PUNCT:
            start += 1
        while stop > start and raw[stop - 1] in ORACLE_PUNCT:
            stop -= 1
        if start < stop:
            tokens.append(raw[start:stop].lower())
    return tokens


def oracle_domain(context: str, entries: dict[str, frozenset[str]]) -> str:
    """The domain with the most lexicon hits, the first listed on a tie, and
    the generic domain when nothing hits. *entries* lists the domains in
    canonical order."""
    best_domain = "News and Social Concern"
    best_hits = 0
    for domain, hits in oracle_lexicon_hits(context, entries).items():
        if hits > best_hits:
            best_domain = domain
            best_hits = hits
    return best_domain


def oracle_stub_questions(context: str, cap: int) -> list[str]:
    """One question per sentence among the first *cap* that has a content
    token, about its first content token."""
    questions = []
    for sentence in oracle_sentences(context)[:cap]:
        tokens = oracle_tokens(sentence)
        if tokens:
            questions.append("What does the passage state about " + tokens[0] + "?")
    return questions


def oracle_stub_source(context: str, question: str) -> str:
    """The first sentence holding the question's last content token, else
    the first sentence."""
    sentences = oracle_sentences(context)
    anchors = oracle_tokens(question)
    if anchors:
        for sentence in sentences:
            if anchors[-1] in oracle_tokens(sentence):
                return sentence
    return sentences[0]


def oracle_stub_answer_phrase(context: str, question: str) -> str | None:
    """The first six content tokens of the source sentence, or its first six
    tokens when it has no content token; None when it has no token at all."""
    sentence = oracle_stub_source(context, question)
    tokens = oracle_tokens(sentence)
    if not tokens:
        tokens = oracle_plain_tokens(sentence)
    if not tokens:
        return None
    return " ".join(tokens[:6])


def oracle_stub_answer(context: str, question: str) -> str:
    """The source sentence, with a '.' added when it does not end in a
    terminal."""
    sentence = oracle_stub_source(context, question)
    if sentence[-1] in ".!?":
        return sentence
    return sentence + "."


def oracle_csv_line(cells: list[str]) -> str:
    """*cells* as one line of ``csv.writer`` in its default dialect."""
    buffer = io.StringIO(newline="")
    csv.writer(buffer).writerow(cells)
    return buffer.getvalue()
