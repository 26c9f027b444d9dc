"""SQuAD v1.1 parsing and assembly of the three training tables.

Question-generation tables group questions that share a byte-identical
context and are split per domain; answer tables merge SQuAD rows with
custom rows, with or without the completed-answer column. A table is written
a row at a time in the ``csv`` module's default dialect (``_csv_line``).
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, TypeVar

from .chunker import decode_utf8, is_text, read_lines
from .domains import DOMAINS, parse_domain

DEFAULT_ROW_FLOOR = 750
QUESTION_JOINER = " | "

# csv.reader reads a NUL, which the table writer writes, from Python 3.11 on.
# Before, a lone surrogate stands in for it, exactly: UTF-8 never decodes to one.
_CSV_READS_NUL = sys.version_info >= (3, 11)

QG_HEADER = ["Context", "Questions List"]
AE_HEADER = ["Context", "Question", "Answer Phrase"]
AC_HEADER = ["Context", "Question", "Answer Phrase", "Complete Answer"]


class MalformedDataset(ValueError):
    """Input data did not match the expected structure."""

    def __init__(self, path: str, detail: str):
        self.path = path
        super().__init__(f"{path}: {detail}")


class PipeInQuestion(ValueError):
    """A question contains the '|' separator and cannot be serialized."""


class MissingCompleteAnswer(ValueError):
    """A completion-table row lacks its required complete answer."""


@dataclass(frozen=True)
class QgRow:
    """A context with every question asked of it, in original order."""

    context: str
    questions_list: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.questions_list:
            raise ValueError("questions_list must be non-empty")
        for question in self.questions_list:
            if "|" in question:
                raise PipeInQuestion(f"question contains '|': {question!r}")


@dataclass(frozen=True)
class AnswerRow:
    """One row of the answer-extraction or answer-completion table; a SQuAD
    question with its first answer is one without a complete answer."""

    context: str
    question: str
    answer_phrase: str
    complete_answer: str | None = None

    def __post_init__(self) -> None:
        if not self.context or not self.question or not self.answer_phrase:
            raise ValueError("AnswerRow context/question/answer_phrase must be non-empty")


@dataclass(frozen=True)
class ShortfallEntry:
    """A domain whose table came up short of the row floor."""

    domain: str
    rows: int
    floor: int


def _squad_text(value: object, node: str, key: str) -> str:
    """*value*, the SQuAD text at JSON path *node*.*key*, once it is text
    (``is_text``) that is not blank."""
    if not isinstance(value, str) or not value.strip():
        raise MalformedDataset(f"{node}.{key}", "missing or blank")
    if not is_text(value):
        raise MalformedDataset(f"{node}.{key}", "not UTF-8 text")
    return value


def parse_squad(raw: bytes | str) -> list[AnswerRow]:
    """Parse SQuAD v1.1 JSON into answer-extraction rows, document order
    preserved.

    Every malformed node raises :class:`MalformedDataset` carrying the JSON
    path of the offender; a context, question or first answer text must be
    text that UTF-8 can encode. Multiple annotated answers collapse to the
    first.
    """
    if isinstance(raw, (bytes, bytearray)):
        raw = decode_utf8(raw)
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise MalformedDataset("$", f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise MalformedDataset("$", "nested too deeply to parse") from exc
    if not isinstance(payload, dict) or not isinstance(payload.get("data"), list):
        raise MalformedDataset("data", "missing or not a list")

    records: list[AnswerRow] = []
    for ai, article in enumerate(payload["data"]):
        base = f"data[{ai}]"
        if not isinstance(article, dict) or not isinstance(article.get("paragraphs"), list):
            raise MalformedDataset(f"{base}.paragraphs", "missing or not a list")
        for pi, paragraph in enumerate(article["paragraphs"]):
            ppath = f"{base}.paragraphs[{pi}]"
            if not isinstance(paragraph, dict):
                raise MalformedDataset(ppath, "not an object")
            context = _squad_text(paragraph.get("context"), ppath, "context")
            qas = paragraph.get("qas")
            if not isinstance(qas, list):
                raise MalformedDataset(f"{ppath}.qas", "missing or not a list")
            for qi, qa in enumerate(qas):
                qpath = f"{ppath}.qas[{qi}]"
                if not isinstance(qa, dict):
                    raise MalformedDataset(qpath, "not an object")
                question = _squad_text(qa.get("question"), qpath, "question")
                answers = qa.get("answers")
                if not isinstance(answers, list) or not answers:
                    raise MalformedDataset(f"{qpath}.answers", "missing or empty")
                first = answers[0]
                text = first.get("text") if isinstance(first, dict) else None
                text = _squad_text(text, qpath, "answers[0].text")
                records.append(AnswerRow(context, question, text))
    return records


def build_qg_datasets(
    records: Iterable[AnswerRow],
    classify_fn: Callable[[str], str],
    floor: int = DEFAULT_ROW_FLOOR,
) -> tuple[dict[str, list[QgRow]], list[ShortfallEntry]]:
    """Group records by identical context and split the rows per domain.

    Contexts keep first-appearance order, as do questions within a context.
    Every one of the 17 domains gets a table (possibly empty); the shortfall
    report lists each domain with fewer than *floor* rows.
    """
    grouped: dict[str, list[str]] = {}
    for record in records:
        grouped.setdefault(record.context, []).append(record.question)

    tables: dict[str, list[QgRow]] = {domain: [] for domain in DOMAINS}
    for context, questions in grouped.items():
        domain = parse_domain(classify_fn(context))
        tables[domain].append(QgRow(context=context, questions_list=tuple(questions)))

    shortfalls = [
        ShortfallEntry(domain=domain, rows=len(rows), floor=floor)
        for domain, rows in tables.items()
        if len(rows) < floor
    ]
    return tables, shortfalls


def build_ae_dataset(squad: Iterable[AnswerRow], custom: Iterable[AnswerRow]) -> list[AnswerRow]:
    """Answer-extraction table: the SQuAD rows (``parse_squad``) as they are,
    then the custom rows with the complete-answer column dropped."""
    rows = list(squad)
    rows.extend(AnswerRow(r.context, r.question, r.answer_phrase) for r in custom)
    return rows


def build_ac_dataset(custom: Iterable[AnswerRow]) -> list[AnswerRow]:
    """Answer-completion table: custom rows validated to carry a complete answer."""
    rows = list(custom)
    for index, row in enumerate(rows):
        if not row.complete_answer:
            raise MissingCompleteAnswer(f"row {index} has no complete answer")
    return rows


# ---------------------------------------------------------------------------
# CSV input/output
# ---------------------------------------------------------------------------


Record = TypeVar("Record")


def read_csv_table(
    path: str | Path,
    header: list[str],
    make: Callable[..., Record],
    error: Callable[[str], ValueError],
) -> list[Record]:
    """The records of the CSV at *path* (``read_lines``): *make* builds one
    from the cells of each row after the *header* row.

    A wrong header, a row with the wrong number of fields, a CSV syntax error
    or a record *make* rejects with a ``ValueError`` raises ``error(detail)``,
    where *detail* names the line of the file. A bad byte raises it with the
    byte offset of the first bad byte in place of a line.
    """
    # newline="" keeps line ends as they are, so a quoted cell keeps "\r\n".
    lines = read_lines(path, newline="")
    if not _CSV_READS_NUL:
        lines = (line.replace("\0", "\ud800") for line in lines)
    reader = rows = csv.reader(lines)
    if not _CSV_READS_NUL:
        rows = ([cell.replace("\ud800", "\0") for cell in row] for row in reader)
    records: list[Record] = []
    try:
        first = next(rows, None)
        if first != header:
            raise ValueError(f"expected header {header}, got {first}")
        for cells in rows:
            if len(cells) != len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(cells)}")
            records.append(make(*cells))
    except UnicodeError as exc:
        raise error(str(exc)) from None
    except (csv.Error, ValueError) as exc:
        raise error(f"line {reader.line_num or 1}: {exc}") from exc
    return records


def qg_filename(domain: str) -> str:
    """The QG table's file name for *domain*: lower-cased, each space and comma "_"."""
    return "qg_" + "".join("_" if c in " ," else c for c in domain.lower()) + ".csv"


def _csv_line(cells: Iterable[str]) -> str:
    """*cells*, two or more, as one line of the ``csv`` module's default
    ``excel`` dialect: a cell that holds '"', ',', "\\r" or "\\n" is quoted,
    each '"' doubled; any other cell is written as it is, a NUL too (as the
    module does from Python 3.11 on); ',' joins the cells and "\\r\\n" ends
    the line."""
    return ",".join(
        '"' + cell.replace('"', '""') + '"'
        if '"' in cell or "," in cell or "\r" in cell or "\n" in cell else cell
        for cell in cells
    ) + "\r\n"


def write_qg_table(path: str | Path, rows: Iterable[QgRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_csv_line(QG_HEADER))
        for row in rows:
            fh.write(_csv_line((row.context, QUESTION_JOINER.join(row.questions_list))))


def write_answer_table(
    path: str | Path, rows: Iterable[AnswerRow], include_complete: bool
) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_csv_line(AC_HEADER if include_complete else AE_HEADER))
        for row in rows:
            cells = [row.context, row.question, row.answer_phrase]
            if include_complete:
                cells.append(row.complete_answer or "")
            fh.write(_csv_line(cells))


def read_custom_table(path: str | Path) -> list[AnswerRow]:
    """Read a custom dataset CSV; an empty complete-answer cell means absent."""
    return read_csv_table(
        path,
        AC_HEADER,
        lambda context, question, phrase, complete: AnswerRow(
            context, question, phrase, complete or None
        ),
        lambda detail: MalformedDataset(str(path), detail),
    )
