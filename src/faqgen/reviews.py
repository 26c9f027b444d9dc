"""Aggregation of human review score sheets into per-domain statistics.

Each record carries five 0-10 scores for one (document, reviewer) pair.
Domain averages are rounded half away from zero; reviewer agreement is the
population standard deviation of per-reviewer average scores, correctly rounded.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import isqrt, ldexp
from pathlib import Path
from typing import Sequence

from .datasets import read_csv_table
from .domains import DOMAINS, parse_domain

SCORE_COUNT = 5
SCORE_MIN = 0
SCORE_MAX = 10

REVIEW_HEADER = ["document_id", "domain", "reviewer_id", "q1", "q2", "q3", "q4", "q5"]


class DuplicateReview(ValueError):
    """The same (document, reviewer) pair was recorded twice."""


class MalformedSheet(ValueError):
    """A review sheet failed structural validation."""


@dataclass(frozen=True)
class ReviewRecord:
    """One reviewer's five scores for one document."""

    document_id: str
    domain: str
    reviewer_id: str
    scores: tuple[int, int, int, int, int]

    def __post_init__(self) -> None:
        if not self.document_id or not self.reviewer_id:
            raise ValueError("document_id and reviewer_id must be non-empty")
        parse_domain(self.domain)
        if len(self.scores) != SCORE_COUNT:
            raise ValueError(f"expected {SCORE_COUNT} scores, got {len(self.scores)}")
        for score in self.scores:
            if not SCORE_MIN <= score <= SCORE_MAX:
                raise ValueError(f"score {score} outside {SCORE_MIN}..{SCORE_MAX}")


@dataclass(frozen=True)
class DomainAggregate:
    """Per-domain rounded averages and reviewer standard deviations."""

    domain: str
    doc_count: int
    averages: tuple[int, ...]
    stddevs: tuple[float, ...]


def _validate(records: Sequence[ReviewRecord]) -> None:
    seen: set[tuple[str, str]] = set()
    doc_domains: dict[str, str] = {}
    for record in records:
        key = (record.document_id, record.reviewer_id)
        if key in seen:
            raise DuplicateReview(
                f"duplicate record for document {record.document_id!r} "
                f"by reviewer {record.reviewer_id!r}"
            )
        seen.add(key)
        known = doc_domains.setdefault(record.document_id, record.domain)
        if known != record.domain:
            raise MalformedSheet(
                f"document {record.document_id!r} appears under domains "
                f"{known!r} and {record.domain!r}"
            )


def _domain_groups(records: Sequence[ReviewRecord]) -> dict[str, list[ReviewRecord]]:
    """Validate *records* and group them per domain present, in canonical
    order."""
    _validate(records)
    grouped: dict[str, list[ReviewRecord]] = {}
    for record in records:
        grouped.setdefault(record.domain, []).append(record)
    return {domain: grouped[domain] for domain in DOMAINS if domain in grouped}


def _averages(rows: list[ReviewRecord]) -> tuple[int, ...]:
    """Each question's mean score, rounded half up in integers: scores are
    never negative, so that is half away from zero."""
    n = len(rows)
    return tuple(
        (2 * sum(r.scores[q] for r in rows) + n) // (2 * n) for q in range(SCORE_COUNT)
    )


def _pstdev(means: list[float]) -> float:
    """The correctly rounded population standard deviation of *means*: their
    exact variance, over their largest denominator, rooted in integers."""
    ratios = [mean.as_integer_ratio() for mean in means]
    scale = max(denominator for _, denominator in ratios)
    values = [numerator * (scale // denominator) for numerator, denominator in ratios]
    n, total = len(values), sum(values)
    num, den = n * sum(v * v for v in values) - total * total, (n * scale) ** 2
    # num/den times 4**bits has 2 * mant_dig + 3 bits or so (scores are 0-10,
    # so bits > 0), and its integer root about mant_dig + 2: that root with
    # its last bit set when inexact (round to odd) rounds once to the float.
    bits = (den.bit_length() - num.bit_length() + 2 * sys.float_info.mant_dig + 4) // 2
    num <<= 2 * bits
    root = isqrt(num // den)
    return ldexp(root | (root * root * den != num), -bits)


def _stddevs(rows: list[ReviewRecord]) -> tuple[float, ...]:
    by_reviewer: dict[str, list[ReviewRecord]] = {}
    for record in rows:
        by_reviewer.setdefault(record.reviewer_id, []).append(record)
    return tuple(
        _pstdev([
            sum(r.scores[q] for r in reviewed) / len(reviewed)
            for reviewed in by_reviewer.values()
        ])
        for q in range(SCORE_COUNT)
    )


def aggregate(records: Sequence[ReviewRecord]) -> list[DomainAggregate]:
    """One aggregate per domain present, in canonical domain order."""
    return [
        DomainAggregate(
            domain=domain,
            doc_count=len({r.document_id for r in rows}),
            averages=_averages(rows),
            stddevs=_stddevs(rows),
        )
        for domain, rows in _domain_groups(records).items()
    ]


def read_review_sheet(path: str | Path) -> list[ReviewRecord]:
    """Read a ``document_id,domain,reviewer_id,q1..q5`` CSV."""
    return read_csv_table(
        path,
        REVIEW_HEADER,
        lambda document_id, domain, reviewer_id, *cells: ReviewRecord(
            document_id, domain, reviewer_id, tuple(map(int, cells))  # type: ignore[arg-type]
        ),
        lambda detail: MalformedSheet(f"{path}: {detail}"),
    )


def format_report(aggregates: Sequence[DomainAggregate]) -> str:
    """Aligned-text report: one row per domain plus an overall-average row."""
    lines = []
    header = f"{'Domain':<28}{'Docs':>6}"
    header += "".join(f"{f'Q{i}':>5}" for i in range(1, SCORE_COUNT + 1))
    header += "".join(f"{f'SD{i}':>7}" for i in range(1, SCORE_COUNT + 1))
    lines.append(header)
    for agg in aggregates:
        row = f"{agg.domain:<28}{agg.doc_count:>6}"
        row += "".join(f"{value:>5d}" for value in agg.averages)
        row += "".join(f"{value:>7.2f}" for value in agg.stddevs)
        lines.append(row)
    if aggregates:
        count = len(aggregates)
        mean_docs = sum(a.doc_count for a in aggregates) / count
        mean_avgs = [
            sum(a.averages[q] for a in aggregates) / count for q in range(SCORE_COUNT)
        ]
        mean_devs = [
            sum(a.stddevs[q] for a in aggregates) / count for q in range(SCORE_COUNT)
        ]
        row = f"{'Overall Average':<28}{mean_docs:>6.1f}"
        row += "".join(f"{value:>5.1f}" for value in mean_avgs)
        row += "".join(f"{value:>7.2f}" for value in mean_devs)
        lines.append(row)
    return "\n".join(lines)
