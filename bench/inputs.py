"""Seeded input generator for the benchmark, built from the packaged lexicon.

Every input is a pure function of (workload, seed, index), so the same seed
gives the same documents and tables. The generator reads the lexicon file
directly and imports nothing from ``faqgen``: the program only ever sees the
text and files made here, and the checks only ever use what the generator
knows about them (sentence lists, contexts, records, scores).
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path

LEXICON_FILE = Path("src") / "faqgen" / "data" / "lexicon_v1.txt"

CHUNK_WORDS = 250  # the program's default chunk size, which the workloads use

# Common content words that are in no domain of the lexicon.
FILLER = (
    "people report city river plan group result detail window street "
    "question moment answer decision season region office letter number "
    "picture corner bridge village program process account project garden "
    "station history island pattern signal surface method system support "
    "effort value record period feature member energy factor matter level "
    "section version quality"
).split()

# Stopwords of the scoring contract, used here only to give the text a
# natural mix of function words.
FUNCTION_WORDS = (
    "the a an and or of to in on at by for with from as it this that "
    "is was are were has had will can may"
).split()

NAMES = ("Alvarez", "Brennan", "Chen", "Dubois", "Eriksen", "Fofana", "Garcia", "Haddad")
TITLES = ("Dr.", "Mrs.", "Mr.")
TERMINALS = (".", ".", ".", ".", ".", "!", "?")


def load_lexicon(root: Path = Path(".")) -> dict[str, list[str]]:
    """Domain -> sorted terms, read from the packaged ``<domain>\\t<term>`` file."""
    entries: dict[str, set[str]] = {}
    with open(root / LEXICON_FILE, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.strip():
                domain, term = line.split("\t")
                entries.setdefault(domain, set()).add(term)
    return {domain: sorted(terms) for domain, terms in sorted(entries.items())}


@dataclass(frozen=True)
class Document:
    """A generated document and the sentence list it was written from."""

    doc_id: str
    text: str
    sentences: tuple[str, ...]

    @property
    def words(self) -> int:
        return sum(len(s.split()) for s in self.sentences)


class TextMaker:
    """Sentences and paragraphs over the lexicon, filler and function words."""

    # Share of the words of a sentence drawn from each source.
    TOPIC, ANY_DOMAIN, FUNCTION, TITLE = 0.16, 0.03, 0.31, 0.02

    def __init__(self, lexicon: dict[str, list[str]], rng: random.Random):
        self.domains = list(lexicon)
        self.rng = rng
        every_term = [t for terms in lexicon.values() for t in terms]
        shared = (
            [(t, self.ANY_DOMAIN / len(every_term)) for t in every_term]
            + [(w, self.FUNCTION / len(FUNCTION_WORDS)) for w in FUNCTION_WORDS]
            + [(t, self.TITLE / len(TITLES)) for t in TITLES]
        )
        rest = 1 - self.TOPIC - self.ANY_DOMAIN - self.FUNCTION - self.TITLE
        shared += [(w, rest / len(FILLER)) for w in FILLER]
        # Per topic: the word pool and its cumulative weights for rng.choices.
        self.pools: dict[str, tuple[list[str], list[float]]] = {}
        for domain, terms in lexicon.items():
            weighted = [(t, self.TOPIC / len(terms)) for t in terms] + shared
            cumulative, total = [], 0.0
            for _, weight in weighted:
                total += weight
                cumulative.append(total)
            self.pools[domain] = ([w for w, _ in weighted], cumulative)

    def sentence(self, topic: str, min_words: int = 6, max_words: int = 22) -> str:
        rng = self.rng
        pool, cumulative = self.pools[topic]
        drawn = rng.choices(pool, cum_weights=cumulative, k=rng.randint(min_words, max_words))
        words: list[str] = []
        for i, word in enumerate(drawn):
            if word not in TITLES:
                words.append(word)
            elif 2 <= i <= len(drawn) - 3:
                # A guarded abbreviation followed by a capitalised name: the
                # segmenter must not split here.
                words.extend((word, rng.choice(NAMES)))
        if rng.random() < 0.3 and len(words) > 4:
            words[len(words) // 2] += ","
        first = words[0]
        words[0] = first[0].upper() + first[1:]
        return " ".join(words) + rng.choice(TERMINALS)

    def sentences(self, target_words: int) -> list[str]:
        """Sentences in paragraphs of one topic each, until *target_words*."""
        out: list[str] = []
        words = 0
        while words < target_words:
            topic = self.rng.choice(self.domains)
            for _ in range(self.rng.randint(3, 8)):
                sentence = self.sentence(topic)
                out.append(sentence)
                words += len(sentence.split())
                if words >= target_words:
                    break
        return out


def _join_paragraphs(sentences: list[str], rng: random.Random) -> str:
    parts: list[str] = []
    for i, sentence in enumerate(sentences):
        if i:
            parts.append("\n\n" if rng.random() < 0.2 else " ")
        parts.append(sentence)
    return "".join(parts) + "\n"


def ladder_size(words: tuple[int, int], round_size: int, seed: int, index: int) -> int:
    """Target size of document *index*: each round of *round_size*
    documents takes every rung of an evenly spaced ladder over *words* once,
    in an order drawn from the seed. So every run that ends on a round
    boundary has the same size distribution, whatever its seed or length,
    and its percentiles are not moved by which sizes the seed happened to
    draw."""
    low, high = words
    rnd, position = divmod(index, round_size)
    rungs = [low + (high - low) * (2 * k + 1) // (2 * round_size) for k in range(round_size)]
    random.Random(f"ladder:{seed}:{rnd}").shuffle(rungs)
    return rungs[position]


def document(lexicon, workload: str, seed: int, index: int, target: int) -> Document:
    """Document *index* of a workload's stream, of about *target* words."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    sentences = TextMaker(lexicon, rng).sentences(target)
    return Document(
        doc_id=f"{workload}-{seed}-{index}",
        text=_join_paragraphs(sentences, rng),
        sentences=tuple(sentences),
    )


def chunk_contexts(sentences: tuple[str, ...], m: int = CHUNK_WORDS) -> list[tuple[str, tuple[str, ...]]]:
    """(context, sentences) per chunk under the chunk-size rule: a chunk
    closes at the first sentence where its running word count reaches *m*."""
    chunks = []
    current: list[str] = []
    words = 0
    for sentence in sentences:
        current.append(sentence)
        words += len(sentence.split())
        if words >= m:
            chunks.append((" ".join(current), tuple(current)))
            current, words = [], 0
    if current:
        chunks.append((" ".join(current), tuple(current)))
    return chunks


# ---------------------------------------------------------------------------
# Dataset tables: a SQuAD-shaped JSON file, a custom answer CSV, a review sheet
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableInputs:
    """What the generator wrote for one table build, as it knows it."""

    squad_records: tuple[tuple[str, str, str], ...]  # (context, question, answer)
    custom_rows: tuple[tuple[str, str, str, str], ...]  # (context, question, phrase, complete)
    reviews: tuple[tuple[str, str, str, tuple[int, ...]], ...]  # (doc, domain, reviewer, scores)

    @property
    def records(self) -> int:
        return len(self.squad_records) + len(self.custom_rows) + len(self.reviews)

    @property
    def words(self) -> int:
        """Words in every text field of the SQuAD records and custom rows."""
        rows = self.squad_records + self.custom_rows
        return sum(len(field.split()) for row in rows for field in row)


def _question(rng: random.Random, words: list[str]) -> str:
    anchor = rng.choice(words).strip(".,!?").lower()
    return rng.choice(
        (
            f"What does the paragraph say about {anchor}?",
            f"Why is {anchor} mentioned?",
            f"Who is linked to {anchor}?",
        )
    )


class SentencePool:
    """Sentences per topic domain, made once per run. Table builds join them
    into paragraphs, so every build gets new contexts without the cost of
    writing new sentences."""

    def __init__(self, lexicon, seed: int, per_topic: int = 150):
        maker = TextMaker(lexicon, random.Random(f"tables-pool:{seed}"))
        self.domains = maker.domains
        self.by_topic = {d: [maker.sentence(d) for _ in range(per_topic)] for d in self.domains}

    def paragraph(self, rng: random.Random, sentences: int) -> list[str]:
        return rng.sample(self.by_topic[rng.choice(self.domains)], sentences)


def table_inputs(
    pool: SentencePool, seed: int, index: int, paragraphs: int, custom: int, review_docs: int
) -> TableInputs:
    """Inputs of table build *index*; about a fifth of the paragraphs repeat
    an earlier context byte for byte under another article."""
    rng = random.Random(f"tables:{seed}:{index}")
    contexts: list[str] = []
    records: list[tuple[str, str, str]] = []
    for _ in range(paragraphs):
        if contexts and rng.random() < 0.2:
            context = rng.choice(contexts)
        else:
            context = " ".join(pool.paragraph(rng, rng.randint(2, 5)))
            contexts.append(context)
        words = context.split()
        for _ in range(rng.randint(2, 6)):
            start = rng.randrange(len(words))
            answer = " ".join(words[start : start + rng.randint(1, 4)])
            records.append((context, _question(rng, words), answer))

    custom_rows = []
    for _ in range(custom):
        sentences = pool.paragraph(rng, rng.randint(2, 4))
        context = " ".join(sentences)
        complete = rng.choice(sentences)
        phrase = " ".join(complete.split()[: rng.randint(1, 4)]).strip(".,!?")
        custom_rows.append((context, _question(rng, context.split()), phrase, complete))

    reviewers = [f"reviewer-{r}" for r in range(1, 7)]
    reviews = []
    for d in range(review_docs):
        domain = rng.choice(pool.domains)
        for reviewer in rng.sample(reviewers, rng.randint(2, 4)):
            scores = tuple(rng.randint(0, 10) for _ in range(5))
            reviews.append((f"doc-{index}-{d}", domain, reviewer, scores))
    return TableInputs(tuple(records), tuple(custom_rows), tuple(reviews))


def write_table_inputs(inputs: TableInputs, directory: Path) -> dict[str, Path]:
    """Write the three input files of one build; returns their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    # Group into articles of up to 8 paragraphs; a repeated context lands in
    # whichever article its record falls into.
    paragraphs: list[dict] = []
    for number, (context, question, answer) in enumerate(inputs.squad_records):
        if not paragraphs or paragraphs[-1]["context"] != context:
            paragraphs.append({"context": context, "qas": []})
        paragraphs[-1]["qas"].append(
            {
                "id": f"q{number}",
                "question": question,
                "answers": [{"answer_start": context.find(answer), "text": answer}],
            }
        )
    articles = [
        {"title": f"article-{i // 8}", "paragraphs": paragraphs[i : i + 8]}
        for i in range(0, len(paragraphs), 8)
    ]
    paths = {
        "squad": directory / "squad.json",
        "custom": directory / "custom.csv",
        "reviews": directory / "reviews.csv",
    }
    paths["squad"].write_text(
        json.dumps({"version": "1.1", "data": articles}, ensure_ascii=False), encoding="utf-8"
    )
    with open(paths["custom"], "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Context", "Question", "Answer Phrase", "Complete Answer"])
        writer.writerows(inputs.custom_rows)
    with open(paths["reviews"], "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["document_id", "domain", "reviewer_id", "q1", "q2", "q3", "q4", "q5"])
        for doc_id, domain, reviewer, scores in inputs.reviews:
            writer.writerow([doc_id, domain, reviewer, *scores])
    return paths
