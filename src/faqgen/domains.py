"""The closed set of content domains and the keyword-lexicon classifier.

The classifier counts lexicon term hits per domain. It is the built-in
answer of the domain step (see ``gateway.identify_domain``) and the fallback
when a remote classifier fails, which keeps the whole pipeline runnable
offline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Mapping

from .chunker import read_lines, word_tokens

# Canonical (alphabetical) order; ties in classification break toward the
# earlier entry.
DOMAINS: tuple[str, ...] = (
    "Arts and Culture",
    "Business and Entrepreneurs",
    "Celebrity and Fashion",
    "Diaries and Daily Life",
    "Family and Relationships",
    "Film, TV and Video",
    "Fitness and Health",
    "Food and Dining",
    "Gaming",
    "Learning and Educational",
    "Literature",
    "Music",
    "News and Social Concern",
    "Science and Technology",
    "Sports",
    "Travel and Adventure",
    "Youth and Student Life",
)

# Fallback when no lexicon term matches at all: the generic, non-technical
# domain.
GENERIC_DOMAIN = "News and Social Concern"

MIN_TERMS_PER_DOMAIN = 10


class EmptyContext(ValueError):
    """Classification was asked for blank input."""


class InvalidDomain(ValueError):
    """A domain label outside the closed set was encountered."""


class LexiconFormatError(ValueError):
    """A lexicon file failed to parse or violated the lexicon invariants."""


@dataclass(frozen=True)
class DomainLexicon:
    """Per-domain keyword terms used by the fallback classifier.

    ``entries`` is copied at construction, and ``term_domains``, built
    from it then, maps each term to the domains that list it, in canonical
    order.
    """

    entries: Mapping[str, frozenset[str]]
    term_domains: Mapping[str, tuple[str, ...]] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        missing = [domain for domain in DOMAINS if domain not in self.entries]
        if missing:
            raise LexiconFormatError(f"lexicon missing domains: {missing}")
        unknown = [domain for domain in self.entries if domain not in DOMAINS]
        if unknown:
            raise LexiconFormatError(f"lexicon has unknown domains: {unknown}")
        entries = {domain: frozenset(self.entries[domain]) for domain in DOMAINS}
        term_domains: dict[str, tuple[str, ...]] = {}
        for domain, terms in entries.items():
            if len(terms) < MIN_TERMS_PER_DOMAIN:
                raise LexiconFormatError(
                    f"domain {domain!r} has {len(terms)} terms, needs >= {MIN_TERMS_PER_DOMAIN}"
                )
            for term in terms:
                if word_tokens(term) != [term]:  # else no token can equal it
                    raise LexiconFormatError(
                        f"domain {domain!r} has term {term!r}, which is not one lowercase "
                        f"token without leading or trailing punctuation"
                    )
                term_domains[term] = term_domains.get(term, ()) + (domain,)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "term_domains", term_domains)


def parse_domain(name: str) -> str:
    """Validate *name* against the closed set and return it."""
    if name not in DOMAINS:
        raise InvalidDomain(f"not a known domain: {name!r}")
    return name


def load_lexicon(path: str | Path) -> DomainLexicon:
    """Load a tab-separated ``<domain>\\t<term>`` lexicon file (``read_lines``).

    A malformed file or a bad byte raises :class:`LexiconFormatError` naming *path*.
    """
    entries: dict[str, set[str]] = {domain: set() for domain in DOMAINS}
    try:
        for number, raw_line in enumerate(read_lines(path), start=1):
            line = raw_line.rstrip("\n")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise ValueError(f"line {number}: expected '<domain>\\t<term>'")
            domain, term = fields
            if domain not in DOMAINS:
                raise ValueError(f"line {number}: unknown domain {domain!r}")
            entries[domain].add(term)
        return DomainLexicon(entries)
    except ValueError as exc:
        raise LexiconFormatError(f"{path}: {exc}") from None


@lru_cache(maxsize=1)
def default_lexicon() -> DomainLexicon:
    """The lexicon shipped with the package."""
    return load_lexicon(Path(__file__).parent / "data" / "lexicon_v1.txt")


def lexicon_hits(
    context: str, lexicon: DomainLexicon, tokens: Iterable[str] | None = None
) -> dict[str, int]:
    """Token-occurrence hit count per domain for *context*. A caller that
    already has ``word_tokens(context)`` passes them as *tokens*."""
    hits = dict.fromkeys(DOMAINS, 0)
    term_domains = lexicon.term_domains
    for token in word_tokens(context) if tokens is None else tokens:
        for domain in term_domains.get(token, ()):
            hits[domain] += 1
    return hits


def classify(
    context: str, lexicon: DomainLexicon | None = None, tokens: Iterable[str] | None = None
) -> str:
    """Assign *context* one of the 17 domains by lexicon argmax.

    Ties break by canonical order, and a context hitting no term at all
    lands in the generic domain. A caller that already has
    ``word_tokens(context)``, such as a chunk's ``sentence_tokens``, passes
    them as *tokens*.
    """
    if not context or not context.strip():
        raise EmptyContext("cannot classify blank context")
    lexicon = lexicon or default_lexicon()
    hits = lexicon_hits(context, lexicon, tokens)
    best_domain = GENERIC_DOMAIN
    best_hits = 0
    for domain in DOMAINS:
        if hits[domain] > best_hits:
            best_domain = domain
            best_hits = hits[domain]
    return best_domain
