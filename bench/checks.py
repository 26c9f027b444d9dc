"""Output checks written apart from the program.

Nothing here imports ``faqgen``. Scores, domains and chunk contexts are
recomputed from the generator's own sentence lists and records with a
separate tokenizer, TF-cosine, keyword score and lexicon argmax, so a check
agrees with the program only when both follow the method. No check compares
against a stored copy of the program's output.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction
from pathlib import Path

from inputs import Document, TableInputs, chunk_contexts

# The closed domain set in canonical order; classification ties break toward
# the earlier entry, and a context with no lexicon hit gets GENERIC.
DOMAINS = (
    "Arts and Culture", "Business and Entrepreneurs", "Celebrity and Fashion",
    "Diaries and Daily Life", "Family and Relationships", "Film, TV and Video",
    "Fitness and Health", "Food and Dining", "Gaming", "Learning and Educational",
    "Literature", "Music", "News and Social Concern", "Science and Technology",
    "Sports", "Travel and Adventure", "Youth and Student Life",
)
GENERIC = "News and Social Concern"

# The 50 stopwords of the scoring contract, listed again on purpose.
STOPWORDS = frozenset(
    "a an the and or but if then is are was were be been being am do does did "
    "has have had will would can could should may might must of to in on at by "
    "for with from as it its this that these those not no so such".split()
)
PUNCTUATION = "!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~"  # ASCII punctuation
PENALTY_SPAN = 200
QUESTION_JOINER = " | "


class CheckFailed(AssertionError):
    """An output of the program disagrees with the independent computation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def plain_tokens(text: str) -> list[str]:
    """Whitespace words with ASCII punctuation trimmed from both ends, lowercased."""
    return [t for t in (raw.strip(PUNCTUATION).lower() for raw in text.split()) if t]


def content_tokens(text: str) -> list[str]:
    return [t for t in plain_tokens(text) if t not in STOPWORDS]


def _counts(tokens: list[str]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for token in tokens:
        counts[token] = counts.get(token, 0) + 1
    return counts


def cosine(qa_text: str, context: str) -> float:
    left, right = _counts(content_tokens(qa_text)), _counts(content_tokens(context))
    dot = sum(n * right.get(t, 0) for t, n in left.items())
    if dot == 0:
        return 0.0
    norms = sum(n * n for n in left.values()) * sum(n * n for n in right.values())
    return min(1.0, dot / math.sqrt(norms))


def keyword(qa_text: str, context: str) -> int:
    shared = set(content_tokens(qa_text)) & set(content_tokens(context))
    return len(shared) - len(qa_text) // PENALTY_SPAN if shared else 0


def term_index(lexicon: dict[str, list[str]]) -> dict[str, list[str]]:
    """Term -> the domains listing it."""
    index: dict[str, list[str]] = {}
    for domain, terms in lexicon.items():
        for term in terms:
            index.setdefault(term, []).append(domain)
    return index


def argmax_domain(context: str, term_domains: dict[str, list[str]]) -> str:
    hits = dict.fromkeys(DOMAINS, 0)
    for token in plain_tokens(context):
        for domain in term_domains.get(token, ()):
            hits[domain] += 1
    best, best_hits = GENERIC, 0
    for domain in DOMAINS:
        if hits[domain] > best_hits:
            best, best_hits = domain, hits[domain]
    return best


def check_faqs(
    doc: Document,
    payload: dict,
    order_keys: list[tuple[int, int]],
    k: int,
    cap: int,
    terms: dict[str, list[str]],
) -> None:
    """Check one parsed ``FaqResult.to_json()`` against *doc*.

    *order_keys* is (chunk_index, q_index) of each listed FAQ, in list order;
    q_index is the tie-breaker that the JSON does not carry.
    """
    chunks = chunk_contexts(doc.sentences)
    faqs = payload["faqs"]
    total = payload["total_generated"]
    _require(payload["document_id"] == doc.doc_id, "document id")
    _require(total <= cap * len(chunks), f"total_generated {total} > {cap} x {len(chunks)} chunks")
    _require(len(faqs) == min(k, total), f"{len(faqs)} FAQs for k={k}, total {total}")
    _require(len(order_keys) == len(faqs), "order keys do not match the FAQ list")
    _require([f["rank"] for f in faqs] == list(range(1, len(faqs) + 1)), "ranks are not 1..N")

    totals = []
    domains: dict[int, str] = {}
    for faq, (key_chunk, _) in zip(faqs, order_keys):
        index = faq["chunk_index"]
        _require(index == key_chunk and 0 <= index < len(chunks), f"chunk index {index}")
        context, sentences = chunks[index]
        _require(faq["answer"] in sentences, f"rank {faq['rank']}: answer is not a sentence of chunk {index}")
        if index not in domains:
            domains[index] = argmax_domain(context, terms)
        _require(faq["domain"] == domains[index], f"rank {faq['rank']}: domain {faq['domain']!r}, expected {domains[index]!r}")
        qa_text = f"{faq['question']} {faq['answer']}"
        semantic, keywords = cosine(qa_text, context), keyword(qa_text, context)
        for name, expected in (
            ("semantic_score", semantic),
            ("keyword_score", keywords),
            ("total_score", semantic + keywords),
        ):
            _require(
                f"{faq[name]:.6f}" == f"{expected:.6f}",
                f"rank {faq['rank']}: {name} {faq[name]:.6f}, expected {expected:.6f}",
            )
        totals.append(semantic + keywords)

    for i in range(1, len(faqs)):
        before, after = totals[i - 1], totals[i]
        _require(before >= after, f"ranks {i} and {i + 1} out of order")
        if before == after:
            _require(order_keys[i - 1] < order_keys[i], f"tie at ranks {i}, {i + 1} not by (chunk, q)")


# ---------------------------------------------------------------------------
# Dataset tables and review aggregation
# ---------------------------------------------------------------------------


def domain_file(domain: str) -> str:
    return "qg_" + "".join("_" if c in " ," else c for c in domain.lower()) + ".csv"


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def check_tables(
    inputs: TableInputs,
    out_dir: Path,
    counts: dict[str, int],
    aggregates: list[tuple[str, int, tuple[int, ...], tuple[float, ...]]],
    report: str,
    terms: dict[str, list[str]],
) -> None:
    """Check one table build: record counts, the per-domain question tables,
    the answer tables as re-read from disk, and the review aggregates."""
    squad, custom = inputs.squad_records, inputs.custom_rows
    _require(counts["squad"] == len(squad), f"parsed {counts['squad']} records, wrote {len(squad)}")
    _require(counts["custom"] == len(custom), f"read {counts['custom']} custom rows, wrote {len(custom)}")
    _require(counts["ae"] == len(squad) + len(custom), "answer-extraction row count")
    _require(counts["ac"] == len(custom), "answer-completion row count")

    grouped: dict[str, list[str]] = {}
    for context, question, _ in squad:
        grouped.setdefault(context, []).append(question)
    expected: dict[str, list[list[str]]] = {d: [["Context", "Questions List"]] for d in DOMAINS}
    for context, questions in grouped.items():
        expected[argmax_domain(context, terms)].append([context, QUESTION_JOINER.join(questions)])
    for domain in DOMAINS:
        rows = _read_csv(out_dir / domain_file(domain))
        _require(rows == expected[domain], f"question table of {domain!r} differs")

    ae = [["Context", "Question", "Answer Phrase"]]
    ae += [list(r) for r in squad] + [list(r[:3]) for r in custom]
    _require(_read_csv(out_dir / "ae_dataset.csv") == ae, "answer-extraction table differs")
    ac = [["Context", "Question", "Answer Phrase", "Complete Answer"]] + [list(r) for r in custom]
    _require(_read_csv(out_dir / "ac_dataset.csv") == ac, "answer-completion table differs")

    by_domain: dict[str, list[tuple[str, str, tuple[int, ...]]]] = {}
    for doc_id, domain, reviewer, scores in inputs.reviews:
        by_domain.setdefault(domain, []).append((doc_id, reviewer, scores))
    present = [d for d in DOMAINS if d in by_domain]
    _require([a[0] for a in aggregates] == present, "aggregate domains or their order")
    for (domain, docs, averages, deviations) in aggregates:
        rows = by_domain[domain]
        _require(docs == len({r[0] for r in rows}), f"{domain}: document count")
        want_avg = tuple(_round_half_up(Fraction(sum(r[2][q] for r in rows), len(rows))) for q in range(5))
        _require(tuple(averages) == want_avg, f"{domain}: averages {averages}, expected {want_avg}")
        for q in range(5):
            per_reviewer: dict[str, list[int]] = {}
            for _, reviewer, scores in rows:
                per_reviewer.setdefault(reviewer, []).append(scores[q])
            means = [Fraction(sum(v), len(v)) for v in per_reviewer.values()]
            want = _population_deviation(means)
            _require(abs(deviations[q] - want) <= 1e-9, f"{domain}: deviation q{q + 1} {deviations[q]} vs {want}")

    lines = report.split("\n")
    _require(len(lines) == len(present) + 2, "report line count")
    for line, (domain, docs, averages, _) in zip(lines[1:], aggregates):
        prefix = f"{domain:<28}{docs:>6}" + "".join(f"{a:>5d}" for a in averages)
        _require(line.startswith(prefix), f"report row of {domain!r}")


def _round_half_up(value: Fraction) -> int:
    return math.floor(value + Fraction(1, 2))


def _population_deviation(values: list[Fraction]) -> float:
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))

