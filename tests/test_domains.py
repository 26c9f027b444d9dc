from __future__ import annotations

import codecs
import random
import string
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faqgen.chunker import word_tokens
from faqgen.domains import (
    DOMAINS,
    DomainLexicon,
    EmptyContext,
    InvalidDomain,
    LexiconFormatError,
    classify,
    default_lexicon,
    lexicon_hits,
    load_lexicon,
    parse_domain,
)
from oracles import oracle_lexicon_hits


class TestDomainSet:
    def test_seventeen_domains(self):
        assert len(DOMAINS) == 17

    def test_first_and_last(self):
        assert DOMAINS[0] == "Arts and Culture"
        assert DOMAINS[-1] == "Youth and Student Life"

    def test_canonical_order_is_alphabetical(self):
        assert list(DOMAINS) == sorted(DOMAINS)

    def test_parse_domain_rejects_unknown(self):
        with pytest.raises(InvalidDomain):
            parse_domain("Astrology")
        assert parse_domain("Gaming") == "Gaming"


class TestDefaultLexicon:
    def test_every_domain_has_at_least_ten_terms(self):
        lexicon = default_lexicon()
        for domain in DOMAINS:
            assert len(lexicon.entries[domain]) >= 10

    def test_terms_are_lowercase_and_whitespace_free(self):
        lexicon = default_lexicon()
        for terms in lexicon.entries.values():
            for term in terms:
                assert term == term.lower()
                assert not any(c.isspace() for c in term)
                assert term


class TestLoadLexicon:
    def test_unknown_domain_is_load_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("Astrology\tstars\n", encoding="utf-8")
        with pytest.raises(LexiconFormatError):
            load_lexicon(path)

    def test_malformed_line_is_load_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("Gaming console\n", encoding="utf-8")
        with pytest.raises(LexiconFormatError):
            load_lexicon(path)

    def test_missing_domain_is_load_error(self, tmp_path):
        path = tmp_path / "partial.txt"
        path.write_text(
            "".join(f"Gaming\tterm{i}\n" for i in range(12)), encoding="utf-8"
        )
        with pytest.raises(LexiconFormatError):
            load_lexicon(path)

    def test_roundtrip_of_default_file(self, tmp_path):
        lexicon = default_lexicon()
        path = tmp_path / "copy.txt"
        lines = [
            f"{domain}\t{term}"
            for domain in DOMAINS
            for term in sorted(lexicon.entries[domain])
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert load_lexicon(path).entries == dict(lexicon.entries)

    def test_byte_order_mark_is_ignored(self, tmp_path):
        path = tmp_path / "lexicon.txt"
        packaged = resources.files("faqgen").joinpath("data", "lexicon_v1.txt").read_bytes()
        path.write_bytes(codecs.BOM_UTF8 + packaged)
        assert load_lexicon(path) == default_lexicon()

    def test_missing_domain_rejected(self):
        entries = {domain: frozenset({f"t{i}" for i in range(12)}) for domain in DOMAINS[1:]}
        with pytest.raises(LexiconFormatError) as excinfo:
            DomainLexicon(entries=entries)
        assert str(excinfo.value) == "lexicon missing domains: ['Arts and Culture']"

    def test_unknown_domain_rejected(self):
        entries = {domain: frozenset({f"t{i}" for i in range(12)}) for domain in DOMAINS}
        entries["Astrology"] = entries["Music"]
        with pytest.raises(LexiconFormatError) as excinfo:
            DomainLexicon(entries=entries)
        assert str(excinfo.value) == "lexicon has unknown domains: ['Astrology']"

    def test_too_few_terms_rejected(self):
        entries = {domain: frozenset({f"t{i}" for i in range(12)}) for domain in DOMAINS}
        entries["Music"] = frozenset({"melody"})
        with pytest.raises(LexiconFormatError):
            DomainLexicon(entries=entries)

    @pytest.mark.parametrize(
        "term",
        # Tokens lose leading and trailing punctuation, so the last three
        # could never match.
        ["", "Quantum", "two words", "c++", '"jazz"', "--"],
    )
    def test_invalid_term_rejected(self, term):
        entries = {domain: frozenset({f"t{i}" for i in range(12)}) for domain in DOMAINS}
        entries["Gaming"] |= {term}
        with pytest.raises(LexiconFormatError):
            DomainLexicon(entries=entries)

    @settings(max_examples=300)
    @given(
        term=st.text(
            st.sampled_from(string.punctuation + string.whitespace + "aZ\u03a3\u03c2\u0130\u1e9e")
            | st.characters(),
            max_size=6,
        )
    )
    def test_a_term_is_valid_exactly_when_the_written_out_rule_says(self, term):
        # The rule terms were checked against before they went through
        # word_tokens: non-empty, lowercase, no whitespace, and no leading or
        # trailing ASCII punctuation.
        valid = (
            bool(term)
            and term == term.lower()
            and not any(c.isspace() for c in term)
            and term == term.strip(string.punctuation)
        )
        entries = {domain: frozenset({f"t{i}" for i in range(12)}) for domain in DOMAINS}
        entries["Gaming"] |= {term}
        if valid:
            assert term in DomainLexicon(entries=entries).term_domains
        else:
            with pytest.raises(LexiconFormatError):
                DomainLexicon(entries=entries)

    def test_later_edits_to_the_entries_change_nothing(self):
        entries = {domain: {f"t{i}" for i in range(12)} for domain in DOMAINS}
        lexicon = DomainLexicon(entries=entries)
        entries["Gaming"].add("zoning")
        entries["Music"] = set()
        assert len(lexicon.entries["Music"]) == 12
        assert lexicon_hits("zoning t1", lexicon) == oracle_lexicon_hits(
            "zoning t1", dict(lexicon.entries)
        )


class TestClassify:
    def test_science_fixture_matches_oracle(self):
        lexicon = default_lexicon()
        context = "The quantum experiment showcased new technology for quantum sensors."
        hits = oracle_lexicon_hits(context, dict(lexicon.entries))
        assert hits["Science and Technology"] == 4
        assert max(hits.values()) == hits["Science and Technology"]
        assert classify(context, lexicon) == "Science and Technology"
        assert lexicon_hits(context, lexicon) == hits

    def test_blank_context_rejected(self):
        with pytest.raises(EmptyContext):
            classify("   ", default_lexicon())

    def test_tie_breaks_by_canonical_order(self):
        lexicon = default_lexicon()
        context = "The gaming console sat beside the football stadium."
        hits = oracle_lexicon_hits(context, dict(lexicon.entries))
        assert hits["Gaming"] == hits["Sports"] == 2
        assert all(
            count == 0
            for domain, count in hits.items()
            if domain not in ("Gaming", "Sports")
        )
        assert classify(context, lexicon) == "Gaming"

    def test_zero_hits_defaults_to_generic_domain(self):
        assert classify("Zzz qqq www.", default_lexicon()) == "News and Social Concern"

    def test_case_invariance(self):
        lexicon = default_lexicon()
        context = "Quantum experiment technology laboratory."
        assert classify(context, lexicon) == classify(context.upper(), lexicon)

    def test_output_always_in_closed_set(self):
        lexicon = default_lexicon()
        rng = random.Random(11)
        pool = ["quantum", "football", "melody", "zzz", "novel", "the", "and", "recipe"]
        for _ in range(50):
            context = " ".join(rng.choices(pool, k=rng.randint(1, 12)))
            assert classify(context, lexicon) in DOMAINS

    def test_adding_a_term_never_decreases_hits(self):
        lexicon = default_lexicon()
        context = "The committee debated the zoning proposal all evening."
        before = lexicon_hits(context, lexicon)
        extended = DomainLexicon(
            entries={
                **dict(lexicon.entries),
                "Gaming": lexicon.entries["Gaming"] | {"zoning"},
            },
        )
        after = lexicon_hits(context, extended)
        for domain in DOMAINS:
            assert after[domain] >= before[domain]
        assert after["Gaming"] == before["Gaming"] + 1

    def test_occurrences_counted_not_distinct_terms(self):
        lexicon = default_lexicon()
        assert lexicon_hits("quantum quantum quantum", lexicon)["Science and Technology"] == 3


_PACKAGED = default_lexicon()
# "football" is a packaged Sports term; here it, and a term with inner
# punctuation, are listed under two domains each.
_SHARED = DomainLexicon(
    entries={
        **dict(_PACKAGED.entries),
        "Gaming": _PACKAGED.entries["Gaming"] | {"football", "e-sport"},
        "Sports": _PACKAGED.entries["Sports"] | {"e-sport"},
    },
)
_TERMS = sorted(set().union(*_SHARED.entries.values()))
_WORDS = st.one_of(
    st.sampled_from(_TERMS),
    st.sampled_from(["football", "e-sport"]),
    st.sampled_from(["zzz", "the", "plain", "42", "-", "e", "sport", "foot-ball"]),
)
_TOKENS = st.builds(
    lambda lead, word, case, trail: lead + case(word) + trail,
    st.sampled_from(["", '"', "(", "'", "--", "#"]),
    _WORDS,
    st.sampled_from([str, str.upper, str.title, str.capitalize]),
    st.sampled_from(["", ".", ",", "!?", ")", '"', "'s", "..."]),
)


@pytest.mark.parametrize("lexicon", [_PACKAGED, _SHARED], ids=["packaged", "shared"])
@given(context=st.lists(_TOKENS, max_size=40).map(" ".join))
def test_lexicon_hits_equal_the_per_domain_scan(lexicon, context):
    # The per-token test against every domain's term set that the term ->
    # domains index replaced.
    scan = {domain: 0 for domain in DOMAINS}
    for token in word_tokens(context):
        for domain in DOMAINS:
            if token in lexicon.entries[domain]:
                scan[domain] += 1
    hits = lexicon_hits(context, lexicon)
    assert hits == scan
    assert list(hits) == list(DOMAINS)
