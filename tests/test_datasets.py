from __future__ import annotations

import codecs
import csv
import json
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faqgen.datasets import (
    AE_HEADER,
    AC_HEADER,
    QG_HEADER,
    QUESTION_JOINER,
    AnswerRow,
    MalformedDataset,
    MissingCompleteAnswer,
    PipeInQuestion,
    QgRow,
    build_ac_dataset,
    build_ae_dataset,
    build_qg_datasets,
    parse_squad,
    qg_filename,
    read_csv_table,
    read_custom_table,
    write_answer_table,
    write_qg_table,
)
from faqgen.domains import DOMAINS
from oracles import oracle_csv_line

MARKET_RESEARCH_CONTEXT = (
    "Primary market research is a customised research technique that marketing "
    "professionals and businesses use to collect original information in the field. "
    "It is conducted directly by the person or organisation that stands to gain from "
    "the responses and can be performed through surveys, interviews, or focus groups."
)
MARKET_RESEARCH_QUESTION = "What is primary market research?"
MARKET_RESEARCH_PHRASE = "a customised research technique to collect original information"
MARKET_RESEARCH_ANSWER = (
    "Primary market research is a customised research technique that marketing "
    "professionals and businesses use to collect original information in the field."
)


def squad_payload():
    """1 article, 2 paragraphs, 3 qas each -> 6 records."""
    def qa(question, answer):
        return {"question": question, "answers": [{"text": answer, "answer_start": 0}]}

    return {
        "data": [
            {
                "title": "Fixture",
                "paragraphs": [
                    {
                        "context": "Paragraph one text.",
                        "qas": [qa("Q1?", "A1"), qa("Q2?", "A2"), qa("Q3?", "A3")],
                    },
                    {
                        "context": "Paragraph two text.",
                        "qas": [qa("Q4?", "A4"), qa("Q5?", "A5"), qa("Q6?", "A6")],
                    },
                ],
            }
        ]
    }


def classify_by_marker(context: str) -> str:
    for domain in DOMAINS:
        if domain.split()[0].lower() in context.lower():
            return domain
    return "News and Social Concern"


class TestParseSquad:
    def test_fixture_yields_six_records(self):
        records = parse_squad(json.dumps(squad_payload()).encode("utf-8"))
        assert len(records) == 6
        assert records[0] == AnswerRow(
            context="Paragraph one text.", question="Q1?", answer_phrase="A1"
        )
        assert [r.question for r in records] == ["Q1?", "Q2?", "Q3?", "Q4?", "Q5?", "Q6?"]

    def test_empty_data(self):
        assert parse_squad(b'{"data": []}') == []

    def test_missing_answers_is_malformed_with_path(self):
        payload = squad_payload()
        del payload["data"][0]["paragraphs"][1]["qas"][2]["answers"]
        with pytest.raises(MalformedDataset) as excinfo:
            parse_squad(json.dumps(payload))
        assert "data[0].paragraphs[1].qas[2].answers" in str(excinfo.value)

    def test_empty_answers_list_is_malformed(self):
        payload = squad_payload()
        payload["data"][0]["paragraphs"][0]["qas"][0]["answers"] = []
        with pytest.raises(MalformedDataset):
            parse_squad(json.dumps(payload))

    def test_first_answer_chosen(self):
        payload = squad_payload()
        payload["data"][0]["paragraphs"][0]["qas"][0]["answers"] = [
            {"text": "first", "answer_start": 0},
            {"text": "second", "answer_start": 5},
        ]
        records = parse_squad(json.dumps(payload))
        assert records[0].answer_phrase == "first"

    def test_invalid_json(self):
        with pytest.raises(MalformedDataset):
            parse_squad(b"{nope")

    def test_deeply_nested_json_is_malformed_at_root(self):
        with pytest.raises(MalformedDataset) as excinfo:
            parse_squad(b"[" * 200_000)
        assert excinfo.value.path == "$"

    @pytest.mark.parametrize(
        "place, path",
        [
            (lambda p: p["data"][0]["paragraphs"][1], "data[0].paragraphs[1].context"),
            (lambda p: p["data"][0]["paragraphs"][0]["qas"][1],
             "data[0].paragraphs[0].qas[1].question"),
            (lambda p: p["data"][0]["paragraphs"][0]["qas"][0]["answers"][0],
             "data[0].paragraphs[0].qas[0].answers[0].text"),
        ],
    )
    def test_blank_text_is_malformed_with_path(self, place, path):
        payload = squad_payload()
        node = place(payload)
        key = path.rsplit(".", 1)[1]
        node[key] = " \n\t"
        with pytest.raises(MalformedDataset) as excinfo:
            parse_squad(json.dumps(payload))
        assert excinfo.value.path == path

    def test_missing_paragraphs(self):
        with pytest.raises(MalformedDataset) as excinfo:
            parse_squad(b'{"data": [{"title": "x"}]}')
        assert "data[0].paragraphs" in str(excinfo.value)

    @pytest.mark.parametrize(
        "data, error",
        [
            ({}, "data: missing or not a list"),
            ([{"paragraphs": ["Ctx."]}], "data[0].paragraphs[0]: not an object"),
            ([{"paragraphs": [{"context": "Ctx.", "qas": {}}]}],
             "data[0].paragraphs[0].qas: missing or not a list"),
            ([{"paragraphs": [{"context": "Ctx.", "qas": ["Q?"]}]}],
             "data[0].paragraphs[0].qas[0]: not an object"),
        ],
    )
    def test_wrong_node_type_is_malformed_with_path(self, data, error):
        with pytest.raises(MalformedDataset) as excinfo:
            parse_squad(json.dumps({"data": data}))
        assert excinfo.value.path == error.split(": ")[0]
        assert str(excinfo.value) == error

    @pytest.mark.parametrize(
        "place, path",
        [
            (lambda p: p["data"][0]["paragraphs"][1], "data[0].paragraphs[1].context"),
            (lambda p: p["data"][0]["paragraphs"][0]["qas"][1],
             "data[0].paragraphs[0].qas[1].question"),
            (lambda p: p["data"][0]["paragraphs"][0]["qas"][0]["answers"][0],
             "data[0].paragraphs[0].qas[0].answers[0].text"),
        ],
    )
    def test_lone_surrogate_is_malformed_with_path(self, place, path):
        # JSON can escape a lone surrogate, which no UTF-8 table can hold.
        payload = squad_payload()
        key = path.rsplit(".", 1)[1]
        place(payload)[key] = "Cats \ud800 sleep."
        raw = json.dumps(payload)
        assert "\\ud800" in raw
        with pytest.raises(MalformedDataset) as excinfo:
            parse_squad(raw)
        assert str(excinfo.value) == f"{path}: not UTF-8 text"

    def test_literal_lone_surrogate_is_malformed_with_path(self):
        # A str can hold a lone surrogate as it is, with no escape in the JSON.
        payload = squad_payload()
        payload["data"][0]["paragraphs"][1]["context"] = "Cats \ud800 sleep."
        raw = json.dumps(payload, ensure_ascii=False)
        assert "\\ud800" not in raw
        with pytest.raises(MalformedDataset) as excinfo:
            parse_squad(raw)
        assert str(excinfo.value) == "data[0].paragraphs[1].context: not UTF-8 text"

    def test_upper_case_surrogate_escape_is_malformed_with_path(self):
        payload = squad_payload()
        payload["data"][0]["paragraphs"][0]["qas"][1]["question"] = "Cats \ud800 sleep?"
        raw = json.dumps(payload).replace("\\ud800", "\\uD800")
        assert "\\uD800" in raw
        with pytest.raises(MalformedDataset) as excinfo:
            parse_squad(raw)
        assert str(excinfo.value) == "data[0].paragraphs[0].qas[1].question: not UTF-8 text"

    def test_escaped_backslash_before_u_is_text(self):
        # "\\ud800" in JSON is a backslash and then "ud800": no surrogate.
        payload = squad_payload()
        payload["data"][0]["paragraphs"][0]["context"] = "Cats \\ud800 sleep."
        raw = json.dumps(payload)
        assert "\\\\ud800" in raw
        assert parse_squad(raw)[0].context == "Cats \\ud800 sleep."

    def test_surrogate_pair_is_text(self):
        payload = squad_payload()
        payload["data"][0]["paragraphs"][0]["context"] = "Cats \U0001f431 sleep."
        raw = json.dumps(payload)
        assert "\\ud83d\\udc31" in raw
        assert parse_squad(raw)[0].context == "Cats \U0001f431 sleep."


class TestBuildQgDatasets:
    def _records(self):
        return [
            AnswerRow("Sports context alpha.", "Who won?", "team"),
            AnswerRow("Sports context alpha.", "When was it?", "monday"),
            AnswerRow("Music context bravo.", "What key?", "d minor"),
            AnswerRow("Sports context alpha.", "Where was it?", "stadium"),
            AnswerRow("Gaming context charlie.", "Which console?", "retro"),
            AnswerRow("Music context bravo.", "Which singer?", "someone"),
        ]

    def test_grouping_preserves_first_appearance_order(self):
        tables, _ = build_qg_datasets(self._records(), classify_by_marker, floor=750)
        assert tables["Sports"] == [
            QgRow(
                context="Sports context alpha.",
                questions_list=("Who won?", "When was it?", "Where was it?"),
            )
        ]
        assert tables["Music"][0].questions_list == ("What key?", "Which singer?")
        assert tables["Gaming"][0].questions_list == ("Which console?",)

    def test_every_domain_present_in_output(self):
        tables, _ = build_qg_datasets(self._records(), classify_by_marker)
        assert set(tables) == set(DOMAINS)
        assert tables["Literature"] == []

    def test_shortfall_reported_for_underfloor_domains(self):
        records = [
            AnswerRow("Sports context.", f"Q{i}?", "a") for i in range(10)
        ]
        # identical contexts group to ONE row; make 10 distinct contexts
        records = [
            AnswerRow(f"Sports context number {i}.", f"Q{i}?", "a") for i in range(10)
        ]
        tables, shortfalls = build_qg_datasets(records, classify_by_marker, floor=750)
        assert len(tables["Sports"]) == 10
        by_domain = {entry.domain: entry for entry in shortfalls}
        assert by_domain["Sports"].rows == 10
        assert by_domain["Sports"].floor == 750
        assert len(shortfalls) == 17  # nothing reaches 750 here

    def test_no_shortfall_when_floor_met(self):
        records = [
            AnswerRow(f"Sports context number {i}.", f"Q{i}?", "a") for i in range(3)
        ]
        _, shortfalls = build_qg_datasets(records, classify_by_marker, floor=3)
        assert all(entry.domain != "Sports" for entry in shortfalls)

    def test_pipe_in_question_rejected(self):
        records = [AnswerRow("Some context.", "What | why?", "a")]
        with pytest.raises(PipeInQuestion):
            build_qg_datasets(records, classify_by_marker)

    def test_context_perturbation_splits_group(self):
        base = AnswerRow("Sports context alpha.", "Who?", "x")
        perturbed = AnswerRow("Sports context alphA.", "When?", "y")
        tables, _ = build_qg_datasets([base, perturbed], classify_by_marker)
        assert len(tables["Sports"]) == 2

    def test_inputs_not_mutated(self):
        records = self._records()
        snapshot = list(records)
        build_qg_datasets(records, classify_by_marker)
        assert records == snapshot


class TestBuildAeDataset:
    def test_concatenates_and_strips_complete_answer(self):
        squad = [
            AnswerRow("Ctx one.", "Q1?", "phrase one"),
            AnswerRow("Ctx two.", "Q2?", "phrase two"),
        ]
        custom = [
            AnswerRow(
                context="Ctx three.",
                question="Q3?",
                answer_phrase="phrase three",
                complete_answer="Complete three.",
            )
        ]
        rows = build_ae_dataset(squad, custom)
        assert len(rows) == 3
        assert all(row.complete_answer is None for row in rows)
        assert [row.answer_phrase for row in rows] == [
            "phrase one",
            "phrase two",
            "phrase three",
        ]

    def test_empty_custom(self):
        squad = [AnswerRow("Ctx.", "Q?", "a")]
        rows = build_ae_dataset(squad, [])
        assert len(rows) == 1

    def test_squad_rows_are_kept_as_parsed(self):
        squad = parse_squad(json.dumps(squad_payload()))
        custom = [
            AnswerRow("Ctx one.", "Q1?", "p1", "Complete one."),
            AnswerRow("Ctx two.", "Q2?", "p2"),
        ]
        rows = build_ae_dataset(squad, custom)
        assert all(row is record for row, record in zip(rows, squad))
        # A custom row's complete answer defaults to None.
        assert rows[len(squad):] == [AnswerRow("Ctx one.", "Q1?", "p1"),
                                     AnswerRow("Ctx two.", "Q2?", "p2")]

    def test_table_of_a_parsed_squad_file(self, tmp_path):
        payload = squad_payload()
        paragraph = payload["data"][0]["paragraphs"][1]
        paragraph["context"] = 'Two, "quoted"\r\nlines.'
        paragraph["qas"][0]["answers"].insert(0, {"text": " lead, first", "answer_start": 0})
        path = tmp_path / "ae.csv"
        write_answer_table(path, build_ae_dataset(parse_squad(json.dumps(payload)), []), False)
        assert path.read_bytes() == (
            b"Context,Question,Answer Phrase\r\n"
            b"Paragraph one text.,Q1?,A1\r\n"
            b"Paragraph one text.,Q2?,A2\r\n"
            b"Paragraph one text.,Q3?,A3\r\n"
            b'"Two, ""quoted""\r\nlines.",Q4?," lead, first"\r\n'
            b'"Two, ""quoted""\r\nlines.",Q5?,A5\r\n'
            b'"Two, ""quoted""\r\nlines.",Q6?,A6\r\n'
        )

    def test_table_row_mapping(self):
        row = build_ae_dataset(
            [], [AnswerRow(MARKET_RESEARCH_CONTEXT, MARKET_RESEARCH_QUESTION, MARKET_RESEARCH_PHRASE, MARKET_RESEARCH_ANSWER)]
        )[0]
        assert row.question == MARKET_RESEARCH_QUESTION
        assert row.answer_phrase == MARKET_RESEARCH_PHRASE
        assert row.complete_answer is None


class TestBuildAcDataset:
    def test_retains_complete_answer(self):
        rows = build_ac_dataset(
            [AnswerRow(MARKET_RESEARCH_CONTEXT, MARKET_RESEARCH_QUESTION, MARKET_RESEARCH_PHRASE, MARKET_RESEARCH_ANSWER)]
        )
        assert rows[0].complete_answer == MARKET_RESEARCH_ANSWER

    def test_missing_complete_answer_named_by_index(self):
        rows = [
            AnswerRow("Ctx.", "Q1?", "p1", "Complete."),
            AnswerRow("Ctx.", "Q2?", "p2"),
        ]
        with pytest.raises(MissingCompleteAnswer) as excinfo:
            build_ac_dataset(rows)
        assert "row 1" in str(excinfo.value)

    def test_empty_input(self):
        assert build_ac_dataset([]) == []


class TestCsvRoundTrips:
    def test_qg_table_roundtrip(self, tmp_path):
        rows = [
            QgRow("Ctx with, comma and \"quotes\".", ("Q1?", "Q2?")),
            QgRow("Plain ctx.", ("Only question?",)),
        ]
        path = tmp_path / "qg.csv"
        write_qg_table(path, rows)
        cells = read_csv_table(path, QG_HEADER, lambda *cells: cells, ValueError)
        assert cells == [(row.context, " | ".join(row.questions_list)) for row in rows]

    def test_qg_cell_uses_space_pipe_space(self, tmp_path):
        path = tmp_path / "qg.csv"
        write_qg_table(path, [QgRow("Ctx.", ("Q1?", "Q2?", "Q3?"))])
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            assert next(reader) == QG_HEADER
            assert next(reader) == ["Ctx.", "Q1? | Q2? | Q3?"]

    def test_answer_table_excludes_complete_column(self, tmp_path):
        path = tmp_path / "ae.csv"
        rows = build_ae_dataset([AnswerRow("Ctx.", "Q?", "a")], [])
        write_answer_table(path, rows, include_complete=False)
        with open(path, newline="", encoding="utf-8") as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == AE_HEADER
        assert "Complete Answer" not in parsed[0]
        assert len(parsed[1]) == 3

    def test_answer_table_with_complete_column_roundtrip(self, tmp_path):
        path = tmp_path / "ac.csv"
        rows = [AnswerRow(MARKET_RESEARCH_CONTEXT, MARKET_RESEARCH_QUESTION, MARKET_RESEARCH_PHRASE, MARKET_RESEARCH_ANSWER)]
        write_answer_table(path, rows, include_complete=True)
        assert read_custom_table(path) == rows

    def test_custom_table_blank_complete_cell_is_none(self, tmp_path):
        path = tmp_path / "custom.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(AC_HEADER)
            writer.writerow(["Ctx.", "Q?", "phrase", ""])
        rows = read_custom_table(path)
        assert rows[0].complete_answer is None

    def test_custom_table_header_checked(self, tmp_path):
        path = tmp_path / "custom.csv"
        path.write_text("wrong,header\n", encoding="utf-8")
        with pytest.raises(MalformedDataset):
            read_custom_table(path)

    @pytest.mark.parametrize(
        "reader, header, row, detail",
        [
            # A record its own type rejects.
            (read_custom_table, AC_HEADER, "Ctx.,,phrase,Done.", "line 2: AnswerRow"),
            (read_custom_table, AC_HEADER, ",Q?,phrase,Done.", "line 2: AnswerRow"),
            # Field counts and CSV syntax.
            (read_custom_table, AC_HEADER, "Ctx.", "line 2: expected 4 fields, got 1"),
            pytest.param(read_custom_table, AC_HEADER, '"' + "x" * 131_073 + '",Q?,p,',
                         "line 2: field larger", id="oversized-field"),
        ],
    )
    def test_malformed_row_names_its_line(self, tmp_path, reader, header, row, detail):
        path = tmp_path / "table.csv"
        path.write_text(",".join(header) + "\n" + row + "\n", encoding="utf-8")
        with pytest.raises(MalformedDataset) as excinfo:
            reader(path)
        assert str(excinfo.value).startswith(f"{path}: {detail}")

    def test_byte_order_mark_is_ignored(self, tmp_path):
        raw = json.dumps(squad_payload()).encode("utf-8")
        assert parse_squad(codecs.BOM_UTF8 + raw) == parse_squad(raw)
        path = tmp_path / "custom.csv"
        rows = [AnswerRow("Ctx.", "Q?", "phrase", "Done.")]
        write_answer_table(path, rows, include_complete=True)
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        assert read_custom_table(path) == rows

    def test_custom_table_is_read_in_blocks(self, tmp_path):
        # A reader that holds the table whole (bytes, text and a text buffer)
        # peaks at about six times its size; one that reads in blocks, near
        # the size of its cells.
        path = tmp_path / "custom.csv"
        rows = [
            AnswerRow(f"Context {i}. " + "word " * 300, f"Question {i}?" + " why" * 60,
                      f"phrase {i}" + " x" * 100, f"Done {i}." + " more" * 70)
            for i in range(900)
        ]
        write_answer_table(path, rows, include_complete=True)
        size = path.stat().st_size
        assert 1_900_000 < size < 2_300_000
        tracemalloc.start()
        try:
            records = read_custom_table(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert records == rows
        assert peak < 2 * size


def answer_cells(row: AnswerRow, include_complete: bool) -> list[str]:
    cells = [row.context, row.question, row.answer_phrase]
    return cells + [row.complete_answer or ""] if include_complete else cells


def oracle_table(header: list[str], rows: list[list[str]]) -> bytes:
    return "".join(map(oracle_csv_line, [header, *rows])).encode("utf-8")


# Arbitrary text draws '"', ',', "\r", "\n" and NUL often. csv.writer on
# Python 3.10 raises for a NUL; 3.11 and later write it as it is.
CELL_TEXT = st.text(
    st.characters(exclude_categories=("Cs",),
                  exclude_characters="" if sys.version_info >= (3, 11) else "\0"),
    max_size=12,
)
CELL_TEXT_NO_PIPE = CELL_TEXT.map(lambda text: text.replace("|", ""))


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("tables")


class TestCsvWriter:
    """The tables are written in the bytes of ``csv.writer``'s default dialect."""

    def test_quoting_rules(self, tmp_path):
        path = tmp_path / "ac.csv"
        rows = [
            AnswerRow('say "hi"', "a,b", "one\rtwo", "x\ny"),
            AnswerRow(" lead", "tab\there", "é|'`", None),
            AnswerRow("crlf\r\nend", '"', "plain", ""),
        ]
        write_answer_table(path, rows, include_complete=True)
        assert path.read_bytes() == (
            b"Context,Question,Answer Phrase,Complete Answer\r\n"
            b'"say ""hi""","a,b","one\rtwo","x\ny"\r\n'
            b" lead,tab\there,\xc3\xa9|'`,\r\n"
            b'"crlf\r\nend","""",plain,\r\n'
        )

    def test_nul_is_written_as_it_is(self, tmp_path):
        # Bytes pinned here, not through csv.writer, which raises for a NUL
        # on Python 3.10.
        qg, ae = tmp_path / "qg.csv", tmp_path / "ae.csv"
        write_qg_table(qg, [QgRow("Cats\0 sleep.", ("Do\0 cats sleep?", "When?"))])
        write_answer_table(ae, [AnswerRow("Cats\0 sleep.", "Q?", '"\0"')], False)
        assert qg.read_bytes() == (
            b"Context,Questions List\r\nCats\0 sleep.,Do\0 cats sleep? | When?\r\n"
        )
        assert ae.read_bytes() == (
            b'Context,Question,Answer Phrase\r\nCats\0 sleep.,Q?,"""\0"""\r\n'
        )

    @example(rows=[('"', ("\r",)), ("\r\n", (" leading space", ""))])
    @example(rows=[("", ('"',)), (" ", ("\r\n", "\r"))])
    @given(st.lists(st.tuples(CELL_TEXT, st.lists(CELL_TEXT_NO_PIPE, min_size=1, max_size=3)),
                    max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_qg_table_matches_the_oracle(self, table_dir, rows):
        path = table_dir / "qg.csv"
        write_qg_table(path, [QgRow(context, tuple(qs)) for context, qs in rows])
        expected = [[context, QUESTION_JOINER.join(qs)] for context, qs in rows]
        assert path.read_bytes() == oracle_table(QG_HEADER, expected)

    @example(rows=[AnswerRow('"', "\r", "\r\n", "")])
    @example(rows=[AnswerRow(" leading space", '"', "\r", None), AnswerRow("a", "b", "c", "")])
    @given(st.lists(st.builds(AnswerRow, CELL_TEXT.filter(bool), CELL_TEXT.filter(bool),
                              CELL_TEXT.filter(bool), st.none() | CELL_TEXT), max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_answer_tables_match_the_oracle(self, table_dir, rows):
        path = table_dir / "answers.csv"
        for include_complete, header in ((False, AE_HEADER), (True, AC_HEADER)):
            write_answer_table(path, rows, include_complete)
            expected = [answer_cells(row, include_complete) for row in rows]
            assert path.read_bytes() == oracle_table(header, expected)


# CELL_TEXT with NUL on every Python: the writer writes a NUL as it is, and
# the readers read it back.
READ_BACK_TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=12)


class TestCsvReadBack:
    @example(rows=[AnswerRow("Cats\0 sleep.", '"\0"', " lead,\r\n\0", "\0")])
    @given(st.lists(st.builds(AnswerRow, READ_BACK_TEXT.filter(bool), READ_BACK_TEXT.filter(bool),
                              READ_BACK_TEXT.filter(bool), st.none() | READ_BACK_TEXT.filter(bool)),
                    max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_answer_table_reads_back(self, table_dir, rows):
        path = table_dir / "custom.csv"
        write_answer_table(path, rows, include_complete=True)
        assert read_custom_table(path) == rows

    @example(rows=[QgRow("\0 lead,\r", ('"\0"', " \n")), QgRow("", ("",))])
    @given(st.lists(st.builds(QgRow, READ_BACK_TEXT, st.lists(
        READ_BACK_TEXT.map(lambda text: text.replace("|", "")), min_size=1, max_size=3
    ).map(tuple)), max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_qg_table_reads_back(self, table_dir, rows):
        path = table_dir / "qg.csv"
        write_qg_table(path, rows)
        cells = read_csv_table(path, QG_HEADER, lambda *cells: cells, ValueError)
        assert cells == [(row.context, " | ".join(row.questions_list)) for row in rows]


class TestNaming:
    def test_domain_slug(self):
        assert qg_filename("Arts and Culture") == "qg_arts_and_culture.csv"
        assert qg_filename("Film, TV and Video") == "qg_film__tv_and_video.csv"

    def test_qg_filename(self):
        assert qg_filename("Youth and Student Life") == "qg_youth_and_student_life.csv"


class TestRowValidation:
    def test_qg_row_requires_questions(self):
        with pytest.raises(ValueError):
            QgRow("Ctx.", ())

    def test_qg_row_rejects_pipe(self):
        with pytest.raises(PipeInQuestion):
            QgRow("Ctx.", ("bad | question?",))

    def test_answer_row_requires_core_fields(self):
        with pytest.raises(ValueError):
            AnswerRow("", "Q?", "p")
