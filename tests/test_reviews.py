from __future__ import annotations

import codecs
import csv
import math
import random
import re
import statistics
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faqgen.reviews import (
    REVIEW_HEADER,
    DomainAggregate,
    DuplicateReview,
    MalformedSheet,
    ReviewRecord,
    aggregate,
    format_report,
    read_review_sheet,
)
from oracles import oracle_mean_rounded, oracle_pstdev, oracle_rounded_pstdev

FIXTURES = Path(__file__).parent / "fixtures"


def record(doc, domain, reviewer, scores):
    return ReviewRecord(
        document_id=doc, domain=domain, reviewer_id=reviewer, scores=tuple(scores)
    )


# The figures aggregate() reports, keyed by domain.
def domain_averages(records):
    return {a.domain: a.averages for a in aggregate(records)}


def reviewer_stddevs(records):
    return {a.domain: a.stddevs for a in aggregate(records)}


class TestDomainAverages:
    def test_whole_mean(self):
        records = [
            record("d1", "Gaming", f"r{i}", [s, 5, 5, 5, 5])
            for i, s in enumerate([8, 9, 9, 10])
        ]
        assert domain_averages(records)["Gaming"][0] == 9

    def test_half_rounds_away_from_zero(self):
        records = [
            record("d1", "Gaming", "r1", [8, 0, 0, 0, 0]),
            record("d1", "Gaming", "r2", [9, 0, 0, 0, 0]),
        ]
        assert domain_averages(records)["Gaming"][0] == 9  # mean 8.5

    def test_two_domain_fixture_matches_oracle(self):
        rng = random.Random(5)
        records = []
        for doc_i in range(3):
            for reviewer_i in range(4):
                records.append(
                    record(
                        f"g{doc_i}", "Gaming", f"r{reviewer_i}",
                        [rng.randint(0, 10) for _ in range(5)],
                    )
                )
        for doc_i in range(2):
            for reviewer_i in range(3):
                records.append(
                    record(
                        f"m{doc_i}", "Music", f"r{reviewer_i}",
                        [rng.randint(0, 10) for _ in range(5)],
                    )
                )
        averages = domain_averages(records)
        for domain in ("Gaming", "Music"):
            rows = [r for r in records if r.domain == domain]
            for q in range(5):
                expected = oracle_mean_rounded([r.scores[q] for r in rows])
                assert averages[domain][q] == expected

    def test_permutation_invariance(self):
        rng = random.Random(9)
        records = [
            record(f"d{i}", "Sports", f"r{i % 3}", [rng.randint(0, 10) for _ in range(5)])
            for i in range(9)
        ]
        shuffled = list(records)
        rng.shuffle(shuffled)
        assert domain_averages(records) == domain_averages(shuffled)

    def test_duplicate_review_rejected(self):
        records = [
            record("d1", "Gaming", "r1", [5, 5, 5, 5, 5]),
            record("d1", "Gaming", "r1", [6, 6, 6, 6, 6]),
        ]
        with pytest.raises(DuplicateReview):
            domain_averages(records)

    def test_conflicting_document_domain_rejected(self):
        records = [
            record("d1", "Gaming", "r1", [5, 5, 5, 5, 5]),
            record("d1", "Music", "r2", [6, 6, 6, 6, 6]),
        ]
        with pytest.raises(MalformedSheet):
            domain_averages(records)


class TestReviewerStddevs:
    def test_all_equal_scores_zero(self):
        records = [
            record(f"d{doc}", "Gaming", f"r{rev}", [7, 7, 7, 7, 7])
            for doc in range(2)
            for rev in range(4)
        ]
        assert reviewer_stddevs(records)["Gaming"] == (0.0,) * 5

    def test_sqrt_half_fixture(self):
        # one document, four reviewers with averages 8, 9, 9, 10
        records = [
            record("d1", "Gaming", f"r{i}", [s, s, s, s, s])
            for i, s in enumerate([8, 9, 9, 10])
        ]
        value = reviewer_stddevs(records)["Gaming"][0]
        assert abs(value - math.sqrt(0.5)) < 1e-9
        assert f"{value:.2f}" == "0.71"

    def test_reviewer_averaging_happens_before_deviation(self):
        # r1 reviews two documents (scores 6 and 10 -> average 8); r2 reviews
        # one (8). Deviation over {8, 8} is 0 even though raw scores vary.
        records = [
            record("d1", "Gaming", "r1", [6, 0, 0, 0, 0]),
            record("d2", "Gaming", "r1", [10, 0, 0, 0, 0]),
            record("d1", "Gaming", "r2", [8, 0, 0, 0, 0]),
        ]
        assert reviewer_stddevs(records)["Gaming"][0] == 0.0

    def test_matches_oracle_on_synthetic_sheet(self):
        rng = random.Random(2024)
        records = []
        for doc_i in range(4):
            for reviewer_i in range(4):
                records.append(
                    record(
                        f"d{doc_i}", "Literature", f"r{reviewer_i}",
                        [rng.randint(0, 10) for _ in range(5)],
                    )
                )
        deviations = reviewer_stddevs(records)["Literature"]
        for q in range(5):
            reviewer_avgs = []
            for reviewer in sorted({r.reviewer_id for r in records}):
                scores = [r.scores[q] for r in records if r.reviewer_id == reviewer]
                reviewer_avgs.append(sum(scores) / len(scores))
            assert abs(deviations[q] - oracle_pstdev(reviewer_avgs)) < 1e-9

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.lists(st.tuples(*[st.integers(0, 10)] * 5), min_size=1, max_size=12),
            min_size=1,
            max_size=8,
        )
    )
    def test_deviation_is_correctly_rounded(self, sheets):
        # sheets[r] holds reviewer r's scores, one tuple per document reviewed.
        records = [
            record(f"d{doc}", "Gaming", f"r{reviewer}", scores)
            for reviewer, reviewed in enumerate(sheets)
            for doc, scores in enumerate(reviewed)
        ]
        deviations = reviewer_stddevs(records)["Gaming"]
        for q in range(5):
            means = [sum(scores[q] for scores in reviewed) / len(reviewed) for reviewed in sheets]
            assert deviations[q] == oracle_rounded_pstdev(means)
            if sys.version_info >= (3, 11):
                # pstdev is correctly rounded from Python 3.11 on.
                assert deviations[q] == statistics.pstdev(means)

    def test_deviation_cell_is_the_same_on_every_python(self):
        # Means 7.25 and 1.4: the exact deviation lies a hair above 2.925, and
        # the float nearest it is the one nearest 2.925, which prints "2.92".
        # Python 3.10's pstdev returned the float above it, which prints "2.93".
        records = [
            record(f"d{doc}", "Gaming", reviewer, [score, 0, 0, 0, 0])
            for reviewer, scores in (("r1", [7, 7, 7, 8]), ("r2", [1, 1, 1, 2, 2]))
            for doc, score in enumerate(scores)
        ]
        deviation = reviewer_stddevs(records)["Gaming"][0]
        assert deviation == 2.925
        assert f"{deviation:.2f}" == "2.92"

    def test_single_reviewer_zero_deviation(self):
        records = [record("d1", "Gaming", "r1", [3, 4, 5, 6, 7])]
        assert reviewer_stddevs(records)["Gaming"] == (0.0,) * 5


class TestAggregate:
    def test_doc_counts_and_canonical_order(self):
        records = [
            record("m1", "Music", "r1", [5, 5, 5, 5, 5]),
            record("g1", "Gaming", "r1", [5, 5, 5, 5, 5]),
            record("g2", "Gaming", "r1", [7, 7, 7, 7, 7]),
            record("g1", "Gaming", "r2", [6, 6, 6, 6, 6]),
        ]
        aggregates = aggregate(records)
        assert [a.domain for a in aggregates] == ["Gaming", "Music"]
        assert aggregates[0].doc_count == 2
        assert aggregates[1].doc_count == 1


class TestRecordValidation:
    def test_score_bounds(self):
        with pytest.raises(ValueError):
            record("d", "Gaming", "r", [11, 0, 0, 0, 0])
        with pytest.raises(ValueError):
            record("d", "Gaming", "r", [-1, 0, 0, 0, 0])

    def test_score_count(self):
        with pytest.raises(ValueError):
            record("d", "Gaming", "r", [5, 5, 5, 5])

    def test_domain_validated(self):
        with pytest.raises(Exception):
            record("d", "Astrology", "r", [5, 5, 5, 5, 5])


class TestSheetIo:
    def _write_sheet(self, path, rows):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(REVIEW_HEADER)
            writer.writerows(rows)

    def test_read_sheet(self, tmp_path):
        path = tmp_path / "sheet.csv"
        self._write_sheet(
            path,
            [
                ["doc1", "Gaming", "r1", 8, 9, 7, 6, 10],
                ["doc1", "Gaming", "r2", 7, 9, 8, 6, 9],
            ],
        )
        records = read_review_sheet(path)
        assert len(records) == 2
        assert records[0].scores == (8, 9, 7, 6, 10)

    def test_byte_order_mark_is_ignored(self, tmp_path):
        path = tmp_path / "sheet.csv"
        self._write_sheet(path, [["doc1", "Gaming", "r1", 8, 9, 7, 6, 10]])
        plain = read_review_sheet(path)
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        assert read_review_sheet(path) == plain

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "sheet.csv"
        path.write_text("nope\n", encoding="utf-8")
        with pytest.raises(MalformedSheet):
            read_review_sheet(path)

    def test_non_integer_score_rejected(self, tmp_path):
        path = tmp_path / "sheet.csv"
        self._write_sheet(path, [["doc1", "Gaming", "r1", 8, 9, "x", 6, 10]])
        with pytest.raises(MalformedSheet):
            read_review_sheet(path)

    @pytest.mark.parametrize(
        "row, detail",
        [
            # Records a ReviewRecord rejects.
            (["doc1", "Gaming", "r1", 8, 9, 50, 6, 10], "line 3: score 50 outside 0..10"),
            (["doc1", "Gaming", "", 8, 9, 7, 6, 10], "line 3: document_id and reviewer_id"),
            (["doc1", "Astrology", "r1", 8, 9, 7, 6, 10], "line 3: not a known domain"),
            # More than the csv module's field size limit.
            (["doc1", "Gaming", "r1" * 65_537, 8, 9, 7, 6, 10], "line 3: field larger"),
        ],
    )
    def test_bad_row_names_its_line(self, tmp_path, row, detail):
        path = tmp_path / "sheet.csv"
        self._write_sheet(path, [["doc0", "Gaming", "r1", 8, 9, 7, 6, 10], row])
        with pytest.raises(MalformedSheet, match=r"^" + re.escape(f"{path}: {detail}")):
            read_review_sheet(path)


class TestReport:
    def test_report_rows_and_overall(self):
        aggregates = [
            DomainAggregate("Gaming", 3, (8, 4, 7, 3, 6), (0.47, 0.83, 1.63, 1.11, 0.83)),
            DomainAggregate("Music", 3, (7, 8, 7, 9, 7), (0.0, 0.47, 1.11, 0.83, 1.11)),
        ]
        report = format_report(aggregates)
        lines = report.splitlines()
        assert lines[0].startswith("Domain")
        assert lines[1].startswith("Gaming")
        assert lines[-1].startswith("Overall Average")
        # overall averages column: mean of 8 and 7 -> 7.5
        assert "7.5" in lines[-1]
        # stddev cells carry two decimals
        assert "0.47" in lines[1]

    def test_golden_report(self):
        # Five domains, 2-6 reviewers per domain with uneven document counts,
        # so the deviation cells are not trivial; the report is the one that
        # statistics.pstdev's deviations gave.
        records = read_review_sheet(FIXTURES / "review_sheet.csv")
        expected = (FIXTURES / "review_report.txt").read_text(encoding="utf-8")
        assert format_report(aggregate(records)) + "\n" == expected
