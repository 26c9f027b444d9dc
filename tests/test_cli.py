from __future__ import annotations

import codecs
import contextlib
import csv
import http.client
import io
import json
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import faqgen
from faqgen.chunker import SourceDocument
from faqgen.cli import run_cli
from faqgen.datasets import MalformedDataset, parse_squad
from faqgen.pipeline import PipelineConfig, run as run_pipeline


@pytest.fixture
def doc_file(tmp_path, fixture_document_text):
    path = tmp_path / "fixture.txt"
    path.write_text(fixture_document_text, encoding="utf-8")
    return path


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "faqgen.conf"
    path.write_text(
        "# pipeline settings\n"
        "chunk_size_words = 30\n"
        'lexicon_path = ""\n',
        encoding="utf-8",
    )
    return path


def squad_file(tmp_path):
    def qa(question, answer):
        return {"question": question, "answers": [{"text": answer, "answer_start": 0}]}

    payload = {
        "data": [
            {
                "paragraphs": [
                    {"context": "Sports context one.", "qas": [qa("Q1?", "A1"), qa("Q2?", "A2")]},
                    {"context": "Music context two.", "qas": [qa("Q3?", "A3")]},
                ]
            }
        ]
    }
    path = tmp_path / "squad.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestGenerate:
    def test_matches_library_run_exactly(self, doc_file, config_file, tmp_path, capsys):
        output = tmp_path / "result.json"
        code = run_cli(
            [
                "generate",
                "--input", str(doc_file),
                "--count", "2",
                "--config", str(config_file),
                "--output", str(output),
            ],
            {},
        )
        assert code == 0
        document = SourceDocument.from_text(
            doc_file.stem, doc_file.read_text(encoding="utf-8")
        )
        expected = run_pipeline(
            document, PipelineConfig(chunk_size_words=30, requested_faq_count=2)
        ).to_json()
        assert output.read_text(encoding="utf-8") == expected
        parsed = json.loads(expected)
        assert len(parsed["faqs"]) == 2

    def test_python_dash_m_is_the_cli(self, doc_file, capsys):
        env = dict(os.environ, PYTHONPATH=str(Path(faqgen.__file__).parents[1]))
        argv = ["generate", "--input", str(doc_file), "--count", "2"]
        module = subprocess.run(
            [sys.executable, "-m", "faqgen", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert run_cli(argv, {}) == module.returncode == 0
        assert module.stdout == capsys.readouterr().out

    def test_stdout_when_no_output_flag(self, doc_file, config_file, capsys):
        code = run_cli(
            ["generate", "--input", str(doc_file), "--count", "1",
             "--config", str(config_file)],
            {},
        )
        assert code == 0
        out = capsys.readouterr().out
        parsed = json.loads(out)
        assert len(parsed["faqs"]) == 1

    def test_over_request_warning_on_stderr(self, doc_file, config_file, capsys):
        code = run_cli(
            ["generate", "--input", str(doc_file), "--count", "99",
             "--config", str(config_file)],
            {},
        )
        assert code == 0
        captured = capsys.readouterr()
        parsed = json.loads(captured.out)
        assert len(parsed["faqs"]) == 6
        assert "OverRequest" in captured.err
        assert "99" in captured.err and "6" in captured.err

    def test_count_zero_is_usage_error(self, doc_file, capsys):
        code = run_cli(["generate", "--input", str(doc_file), "--count", "0"], {})
        assert code == 2

    def test_missing_input_reports_path(self, capsys):
        code = run_cli(["generate", "--input", "/no/such/file.txt", "--count", "2"], {})
        assert code == 2
        assert "/no/such/file.txt" in capsys.readouterr().err

    def test_config_from_environment(self, doc_file, config_file, capsys):
        code = run_cli(
            ["generate", "--input", str(doc_file), "--count", "1"],
            {"FAQGEN_CONFIG": str(config_file)},
        )
        assert code == 0
        parsed = json.loads(capsys.readouterr().out)
        # chunk size 30 from config -> two chunks -> chunk_index can be 1
        assert parsed["total_generated"] == 6

    def test_unknown_config_key_is_usage_error(self, doc_file, tmp_path, capsys):
        bad = tmp_path / "bad.conf"
        bad.write_text("mystery = 1\n", encoding="utf-8")
        code = run_cli(
            ["generate", "--input", str(doc_file), "--count", "1", "--config", str(bad)],
            {},
        )
        assert code == 2
        assert "mystery" in capsys.readouterr().err

    def test_workers_flag_does_not_change_bytes(self, doc_file, config_file, tmp_path):
        outputs = []
        for workers in ("1", "8"):
            out = tmp_path / f"result{workers}.json"
            code = run_cli(
                ["generate", "--input", str(doc_file), "--count", "3",
                 "--config", str(config_file), "--workers", workers, "--output", str(out)],
                {},
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("setting", ["chunk_size_words = 0", "timeout_ms = 0"])
    def test_out_of_range_config_value_is_usage_error(self, doc_file, tmp_path, capsys, setting):
        bad = tmp_path / "bad.conf"
        bad.write_text(setting + "\n", encoding="utf-8")
        code = run_cli(
            ["generate", "--input", str(doc_file), "--count", "1", "--config", str(bad)],
            {},
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_config_integer_that_is_not_one_is_usage_error(self, doc_file, tmp_path, capsys):
        config = tmp_path / "soon.conf"
        config.write_text("chunk_size_words = 30\ntimeout_ms = soon\n", encoding="utf-8")
        argv = ["generate", "--input", str(doc_file), "--count", "1", "--config", str(config)]
        assert run_cli(argv, {}) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {config}:2: timeout_ms must be an integer\n"

    def test_timeout_past_one_day_is_usage_error(self, doc_file, tmp_path, stub_server_url, capsys):
        # No socket timeout holds 9999999999999 ms; the config is refused
        # before any call is made.
        config = tmp_path / "long.conf"
        config.write_text(
            f"domain_url = {stub_server_url}/v1/domain\ntimeout_ms = 9999999999999\n",
            encoding="utf-8",
        )
        for command in (["classify"], ["generate", "--count", "1"]):
            argv = [*command, "--input", str(doc_file), "--config", str(config)]
            assert run_cli(argv, {}) == 2
            assert capsys.readouterr().err == (
                "error: invalid config: timeout_ms must be <= 86400000, got 9999999999999\n"
            )

    def test_question_cap_past_sys_maxsize_reads_every_sentence(self, doc_file, tmp_path, capsys):
        outputs = []
        for cap in (10**6, 10**20):
            config = tmp_path / f"cap{cap}.conf"
            config.write_text(f"question_cap = {cap}\n", encoding="utf-8")
            argv = ["generate", "--input", str(doc_file), "--count", "1000", "--config", str(config)]
            assert run_cli(argv, {}) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_undecodable_input_is_runtime_error(self, tmp_path, capsys):
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes("Caf\u00e9 au lait.".encode("latin-1"))
        code = run_cli(["generate", "--input", str(latin1), "--count", "1"], {})
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_empty_document_is_runtime_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("   ", encoding="utf-8")
        code = run_cli(["generate", "--input", str(empty), "--count", "1"], {})
        assert code == 1


class TestChunkAndClassify:
    def test_chunk_report(self, doc_file, capsys):
        code = run_cli(["chunk", "--input", str(doc_file), "--size", "30"], {})
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        index, words, preview = lines[0].split("\t")
        assert index == "0"
        assert words == "30"
        assert len(preview.split()) == 8

    def test_chunk_honours_config(self, doc_file, config_file, capsys):
        # The config's chunk_size_words = 30 gives the two chunks classify
        # and generate use; --size overrides it.
        for argv, environment in (
            (["--config", str(config_file)], {}),
            ([], {"FAQGEN_CONFIG": str(config_file)}),
        ):
            assert run_cli(["chunk", "--input", str(doc_file), *argv], environment) == 0
            lines = capsys.readouterr().out.strip().splitlines()
            assert [line.split("\t")[:2] for line in lines] == [["0", "30"], ["1", "30"]]
        code = run_cli(["chunk", "--input", str(doc_file), "--size", "250",
                        "--config", str(config_file)], {})
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1

    def test_classify_report(self, doc_file, capsys):
        code = run_cli(["classify", "--input", str(doc_file), "--size", "30"], {})
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["0\tScience and Technology", "1\tSports"]

    def test_classify_honours_config(self, doc_file, tmp_path, capsys):
        # Ten words of chunk 0 that no packaged term matches, added under
        # Gaming, outnumber its Science and Technology hits.
        extra = "entanglement distant particles fragile physicists photon pairs secure trusted networks"
        packaged = (Path(faqgen.__file__).parent / "data" / "lexicon_v1.txt").read_text("utf-8")
        lexicon = tmp_path / "lexicon.txt"
        lexicon.write_text(packaged + "".join(f"Gaming\t{w}\n" for w in extra.split()), "utf-8")
        config = tmp_path / "classify.conf"
        config.write_text(f"chunk_size_words = 30\nlexicon_path = {lexicon}\n", "utf-8")
        for argv, environment in (
            (["--config", str(config)], {}),
            ([], {"FAQGEN_CONFIG": str(config)}),
        ):
            code = run_cli(["classify", "--input", str(doc_file), *argv], environment)
            assert code == 0
            assert capsys.readouterr().out.strip().splitlines() == ["0\tGaming", "1\tSports"]
        # --size overrides the config's chunk size.
        code = run_cli(["classify", "--input", str(doc_file), "--size", "250",
                        "--config", str(config)], {})
        assert code == 0
        assert capsys.readouterr().out.strip().splitlines() == ["0\tGaming"]

        # A term no token can match makes the lexicon unusable: exit 1.
        lexicon.write_text(packaged + "Gaming\tc++\n", "utf-8")
        code = run_cli(["classify", "--input", str(doc_file), "--config", str(config)], {})
        assert code == 1
        assert "c++" in capsys.readouterr().err

    def test_classify_uses_domain_url_with_lexicon_fallback(
        self, doc_file, tmp_path, canned_backend, capsys
    ):
        url, backend = canned_backend(
            {"/v1/domain": [(200, {"domain": "Music"}), (200, {"domain": "Astrology"})]}
        )
        config = tmp_path / "remote.conf"
        config.write_text(
            f"chunk_size_words = 30\ndomain_url = {url}/v1/domain\n", encoding="utf-8"
        )
        code = run_cli(["classify", "--input", str(doc_file), "--config", str(config)], {})
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.strip().splitlines() == ["0\tMusic", "1\tSports"]
        assert backend.hits["/v1/domain"] == 2
        assert captured.err.startswith("warning [ClassifierFallback] chunk 1: ")


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run_cli(["frobnicate"], {}) == 2

    def test_no_subcommand(self, capsys):
        assert run_cli([], {}) == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"], {}) == 0

    def test_serve_stub_bad_bind(self, capsys):
        assert run_cli(["serve-stub", "--bind", "nonsense"], {}) == 2

    def test_serve_stub_port_out_of_range(self, capsys):
        assert run_cli(["serve-stub", "--bind", "127.0.0.1:70000"], {}) == 2

    @pytest.mark.parametrize(
        "port",
        ["1" * 5000, "\u0668\u0660\u0668\u0660", "000080"],
        ids=["5000-digits", "arabic-indic-digits", "six-digits"],
    )
    def test_serve_stub_port_not_1_to_5_ascii_digits(self, capsys, port):
        assert run_cli(["serve-stub", "--bind", f"127.0.0.1:{port}"], os.environ) == 2
        assert capsys.readouterr().err.startswith("error: --bind must be host:port, got ")


class TestServeStub:
    def test_taken_port_prints_nothing_to_stdout(self, stub_server_url, capsys):
        port = stub_server_url.rsplit(":", 1)[1]
        assert run_cli(["serve-stub", "--bind", f"127.0.0.1:{port}"], {}) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot bind" in captured.err

    def test_port_zero_prints_the_bound_port(self):
        env = dict(os.environ, PYTHONPATH=str(Path(faqgen.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-c", "from faqgen.cli import main; main()",
             "serve-stub", "--bind", "127.0.0.1:0"],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            line = proc.stdout.readline()
            host, _, port = line.split()[-1].rpartition(":")
            assert line.startswith("stub backend listening on ")
            assert host == "127.0.0.1" and int(port) > 0
            conn = http.client.HTTPConnection("127.0.0.1", int(port), timeout=5)
            conn.request("GET", "/v1/health")
            assert json.load(conn.getresponse()) == {"status": "ok"}
            conn.close()
        finally:
            proc.terminate()
            proc.wait(timeout=10)
            proc.stdout.close()


# Runs one command through run_cli in a fresh interpreter; its last line of
# stdout is the exit code and the names of every module then imported.
IMPORT_SET_SCRIPT = """
import json, os, sys
from faqgen.cli import run_cli
code = run_cli(sys.argv[1:], os.environ)
print(json.dumps([code, sorted(sys.modules)]))
"""


class TestColdImports:
    """An offline command never loads the HTTP client, TLS, the stub server
    or the thread pool: they load only when a command uses them."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--input", "tests/fixtures/fixture_doc.txt", "--count", "3"],
            ["classify", "--input", "tests/fixtures/fixture_doc.txt"],
            ["eval", "aggregate", "--input", "tests/fixtures/review_sheet.csv"],
        ],
        ids=["generate", "classify", "eval-aggregate"],
    )
    def test_offline_command_imports(self, argv):
        root = Path(__file__).resolve().parents[1]
        env = {k: v for k, v in os.environ.items() if k != "FAQGEN_CONFIG"}
        env["PYTHONPATH"] = str(root / "src")
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_SET_SCRIPT, *argv],
            cwd=root, env=env, capture_output=True, text=True, timeout=60,
        )
        code, modules = json.loads(done.stdout.splitlines()[-1])
        assert code == 0, done.stderr
        absent = ["requests", "urllib3", "ssl", "http.client", "faqgen.stubserver",
                  "concurrent.futures"]
        assert [name for name in absent if name in modules] == []


class TestDatasetCommands:
    def test_build_ae_deeply_nested_squad_exits_1(self, tmp_path, capsys):
        squad = tmp_path / "nested.json"
        squad.write_text("[" * 200_000, encoding="utf-8")
        code = run_cli(
            ["dataset", "build-ae", "--squad", str(squad),
             "--output", str(tmp_path / "ae.csv")],
            {},
        )
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {squad}: $: ")

    def test_squad_group_writes_tables_and_shortfalls(self, tmp_path, capsys):
        squad = squad_file(tmp_path)
        out_dir = tmp_path / "tables"
        code = run_cli(
            ["dataset", "squad-group", "--squad", str(squad),
             "--output-dir", str(out_dir)],
            {},
        )
        assert code == 0
        files = sorted(p.name for p in out_dir.glob("qg_*.csv"))
        assert len(files) == 17
        assert "qg_film__tv_and_video.csv" in files
        sports = (out_dir / "qg_sports.csv").read_text(encoding="utf-8")
        assert "Q1? | Q2?" in sports
        captured = capsys.readouterr().out
        assert "shortfall" in captured
        assert "Sports: 1 rows (floor 750)" in captured

    def test_build_ae_and_ac(self, tmp_path, capsys):
        squad = squad_file(tmp_path)
        custom = tmp_path / "custom.csv"
        with open(custom, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["Context", "Question", "Answer Phrase", "Complete Answer"])
            writer.writerow(["Ctx.", "Q?", "phrase", "Complete sentence."])
        ae_out = tmp_path / "ae_dataset.csv"
        code = run_cli(
            ["dataset", "build-ae", "--squad", str(squad), "--custom", str(custom),
             "--output", str(ae_out)],
            {},
        )
        assert code == 0
        with ae_out.open(encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["Context", "Question", "Answer Phrase"]
        assert len(rows) == 5  # header + 3 squad + 1 custom

        ac_out = tmp_path / "ac_dataset.csv"
        code = run_cli(
            ["dataset", "build-ac", "--custom", str(custom), "--output", str(ac_out)],
            {},
        )
        assert code == 0
        with ac_out.open(encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["Context", "Question", "Answer Phrase", "Complete Answer"]

    def test_squad_group_writes_a_nul_as_it_is(self, tmp_path, capsys):
        # csv.writer on Python 3.10 raised for a NUL; the bytes are pinned
        # here, as 3.11's csv.writer writes them.
        squad = tmp_path / "squad.json"
        qa = {"question": "Q?", "answers": [{"text": "a"}]}
        squad.write_text(json.dumps({"data": [{"paragraphs": [
            {"context": "Cats\u0000 sleep.", "qas": [qa]}
        ]}]}), encoding="utf-8")
        out_dir = tmp_path / "tables"
        argv = ["dataset", "squad-group", "--squad", str(squad), "--output-dir", str(out_dir)]
        assert run_cli(argv, {}) == 0
        assert capsys.readouterr().err == ""
        written = [path.read_bytes() for path in out_dir.glob("qg_*.csv")]
        assert len(written) == 17
        assert b"Context,Questions List\r\nCats\x00 sleep.,Q?\r\n" in written

    def test_build_ac_missing_complete_answer_fails(self, tmp_path, capsys):
        custom = tmp_path / "custom.csv"
        with open(custom, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["Context", "Question", "Answer Phrase", "Complete Answer"])
            writer.writerow(["Ctx.", "Q?", "phrase", ""])
        code = run_cli(["dataset", "build-ac", "--custom", str(custom)], {})
        assert code == 1


class TestEvalCommand:
    def test_aggregate_prints_report(self, tmp_path, capsys):
        sheet = tmp_path / "sheet.csv"
        with open(sheet, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["document_id", "domain", "reviewer_id", "q1", "q2", "q3", "q4", "q5"]
            )
            writer.writerow(["d1", "Gaming", "r1", 8, 9, 7, 6, 10])
            writer.writerow(["d1", "Gaming", "r2", 9, 9, 8, 6, 9])
        code = run_cli(["eval", "aggregate", "--input", str(sheet)], {})
        assert code == 0
        out = capsys.readouterr().out
        assert "Gaming" in out
        assert "Overall Average" in out


REVIEW_HEADER_LINE = "document_id,domain,reviewer_id,q1,q2,q3,q4,q5\n"
CUSTOM_HEADER_LINE = "Context,Question,Answer Phrase,Complete Answer\n"


def one_error_line(err: str) -> str:
    """The message of *err*, which must be exactly one ``error:`` line."""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err[len("error: "):-1]


class TestMalformedInputExits1:
    """Inputs that a library check rejects with a ValueError: each gives exit 1
    and one error line, and for a CSV that line names the file's line."""

    @pytest.mark.parametrize(
        "row, detail",
        [
            ("d1,Gaming,r1,50,9,7,6,10", "line 2: score 50 outside 0..10"),
            ("d1,Gaming,,8,9,7,6,10", "line 2: document_id and reviewer_id must be non-empty"),
            pytest.param('d1,Gaming,r1,"' + "x" * 131_073 + '",9,7,6,10',
                         "line 2: field larger than", id="oversized-field"),
        ],
    )
    def test_eval_aggregate_bad_row(self, tmp_path, capsys, row, detail):
        sheet = tmp_path / "sheet.csv"
        sheet.write_text(REVIEW_HEADER_LINE + row + "\n", encoding="utf-8")
        assert run_cli(["eval", "aggregate", "--input", str(sheet)], {}) == 1
        assert one_error_line(capsys.readouterr().err).startswith(f"{sheet}: {detail}")

    def test_eval_aggregate_bad_header_names_file(self, tmp_path, capsys):
        sheet = tmp_path / "sheet.csv"
        sheet.write_text("nope\n", encoding="utf-8")
        assert run_cli(["eval", "aggregate", "--input", str(sheet)], {}) == 1
        assert one_error_line(capsys.readouterr().err).startswith(
            f"{sheet}: line 1: expected header ["
        )

    @pytest.mark.parametrize("command, output", [("squad-group", "--output-dir"),
                                                 ("build-ae", "--output")])
    def test_squad_json_error_counts_the_files_own_characters(self, tmp_path, capsys,
                                                                  command, output):
        # The position counts each "\r" of the file's CRLF line ends.
        squad = tmp_path / "squad.json"
        squad.write_bytes(b'{"data":\r\n [1,\r\n 2 x]}')
        with pytest.raises(MalformedDataset) as excinfo:
            parse_squad(squad.read_bytes())
        argv = ["dataset", command, "--squad", str(squad), output, str(tmp_path / "out")]
        assert run_cli(argv, {}) == 1
        assert capsys.readouterr().err == f"error: {squad}: {excinfo.value}\n"

    def test_build_ae_non_utf8_squad_names_file_and_offset(self, tmp_path, capsys):
        squad = tmp_path / "squad.json"
        squad.write_bytes(b'{"data": []}\xff')
        output = tmp_path / "ae.csv"
        argv = ["dataset", "build-ae", "--squad", str(squad), "--output", str(output)]
        assert run_cli(argv, {}) == 1
        assert one_error_line(capsys.readouterr().err) == (
            f"{squad}: not UTF-8 at byte offset 12 (invalid start byte)"
        )
        assert not output.exists()

    # 50 lies in the first block the CSV reader decodes, 20,000 in a later one.
    @pytest.mark.parametrize("offset", [50, 20_000])
    @pytest.mark.parametrize("command", ["build-ac", "eval"])
    def test_non_utf8_csv_names_file_and_offset(self, tmp_path, capsys, command, offset):
        table = tmp_path / "table.csv"
        if command == "build-ac":
            header = CUSTOM_HEADER_LINE.encode()
            argv = ["dataset", "build-ac", "--custom", str(table),
                    "--output", str(tmp_path / "out.csv")]
        else:
            header = REVIEW_HEADER_LINE.encode()
            argv = ["eval", "aggregate", "--input", str(table)]
        table.write_bytes(header + b"x" * (offset - len(header)) + b"\xe9,b\n")
        assert run_cli(argv, {}) == 1
        assert one_error_line(capsys.readouterr().err) == (
            f"{table}: not UTF-8 at byte offset {offset} (invalid continuation byte)"
        )

    # A CSV is read in blocks, so a bad row in an earlier block than a bad byte
    # is the error reported.
    @pytest.mark.parametrize("command", ["build-ac", "eval"])
    def test_bad_row_before_a_later_bad_byte_names_its_line(self, tmp_path, capsys, command):
        table = tmp_path / "table.csv"
        if command == "build-ac":
            header, fields = CUSTOM_HEADER_LINE.encode(), 4
            argv = ["dataset", "build-ac", "--custom", str(table),
                    "--output", str(tmp_path / "out.csv")]
        else:
            header, fields = REVIEW_HEADER_LINE.encode(), 8
            argv = ["eval", "aggregate", "--input", str(table)]
        table.write_bytes(header + b"a,b,c\n" + b"x" * 20_000 + b"\xe9,b\n")
        assert run_cli(argv, {}) == 1
        assert one_error_line(capsys.readouterr().err) == (
            f"{table}: line 2: expected {fields} fields, got 3"
        )

    @pytest.mark.parametrize("content, detail", [
        (b"Gaming\tjaz\xe9z\n", "not UTF-8 at byte offset 10 (invalid continuation byte)"),
        (b"Gaming jazz\n", "line 1: expected '<domain>\\t<term>'"),
    ])
    def test_bad_lexicon_names_file(self, tmp_path, capsys, content, detail):
        lexicon = tmp_path / "bad.lex"
        lexicon.write_bytes(content)
        argv = ["dataset", "squad-group", "--squad", str(squad_file(tmp_path)),
                "--lexicon", str(lexicon), "--output-dir", str(tmp_path / "tables")]
        assert run_cli(argv, {}) == 1
        assert one_error_line(capsys.readouterr().err) == f"{lexicon}: {detail}"

    @pytest.mark.parametrize("text", ["", " \n\t "])
    def test_empty_document_names_file(self, tmp_path, capsys, text):
        doc = tmp_path / "empty.txt"
        doc.write_text(text, encoding="utf-8")
        assert run_cli(["generate", "--input", str(doc), "--count", "1"], {}) == 1
        assert one_error_line(capsys.readouterr().err) == (
            f"{doc}: document 'empty' contains no sentences"
        )

    @pytest.mark.parametrize("command", [["generate", "--count", "1"], ["classify"]])
    def test_empty_document_is_reported_before_a_bad_lexicon(self, tmp_path, capsys, command):
        doc = tmp_path / "empty.txt"
        doc.write_text("   ", encoding="utf-8")
        config = tmp_path / "bad-lexicon.conf"
        config.write_text(f"lexicon_path = {tmp_path / 'missing.lex'}\n", encoding="utf-8")
        argv = [command[0], "--input", str(doc), *command[1:], "--config", str(config)]
        assert run_cli(argv, {}) == 1
        assert one_error_line(capsys.readouterr().err) == (
            f"{doc}: document 'empty' contains no sentences"
        )

    @pytest.mark.parametrize("row", [",Q?,phrase,Done.", "Ctx.,,phrase,Done.", "Ctx.,Q?,,Done."])
    @pytest.mark.parametrize("command", ["build-ac", "build-ae"])
    def test_dataset_blank_custom_cell(self, tmp_path, capsys, command, row):
        custom = tmp_path / "custom.csv"
        custom.write_text(CUSTOM_HEADER_LINE + row + "\n", encoding="utf-8")
        argv = ["dataset", command, "--custom", str(custom), "--output", str(tmp_path / "out.csv")]
        if command == "build-ae":
            argv += ["--squad", str(squad_file(tmp_path))]
        assert run_cli(argv, {}) == 1
        assert one_error_line(capsys.readouterr().err).startswith(f"{custom}: line 2: ")

    def test_squad_group_blank_context(self, tmp_path, capsys):
        squad = tmp_path / "squad.json"
        squad.write_text(json.dumps({"data": [{"paragraphs": [
            {"context": "   ", "qas": [{"question": "Q?", "answers": [{"text": "a"}]}]}
        ]}]}), encoding="utf-8")
        code = run_cli(
            ["dataset", "squad-group", "--squad", str(squad), "--output-dir", str(tmp_path)], {}
        )
        assert code == 1
        assert one_error_line(capsys.readouterr().err) == (
            f"{squad}: data[0].paragraphs[0].context: missing or blank"
        )

    def test_build_ae_squad_question_not_an_object(self, tmp_path, capsys):
        squad = tmp_path / "squad.json"
        squad.write_text(json.dumps({"data": [{"paragraphs": [
            {"context": "Ctx.", "qas": ["Q?"]}
        ]}]}), encoding="utf-8")
        output = tmp_path / "ae.csv"
        argv = ["dataset", "build-ae", "--squad", str(squad), "--output", str(output)]
        assert run_cli(argv, {}) == 1
        assert one_error_line(capsys.readouterr().err) == (
            f"{squad}: data[0].paragraphs[0].qas[0]: not an object"
        )
        assert not output.exists()

    @pytest.mark.parametrize(
        "context, question, answer, path",
        [
            ("   ", "Q?", "a", "data[0].paragraphs[0].context"),
            ("Ctx.", " ", "a", "data[0].paragraphs[0].qas[0].question"),
            ("Ctx.", "Q?", "\t", "data[0].paragraphs[0].qas[0].answers[0].text"),
        ],
    )
    def test_build_ae_blank_squad_field(self, tmp_path, capsys, context, question, answer, path):
        squad = tmp_path / "squad.json"
        squad.write_text(json.dumps({"data": [{"paragraphs": [
            {"context": context, "qas": [{"question": question, "answers": [{"text": answer}]}]}
        ]}]}), encoding="utf-8")
        output = tmp_path / "ae.csv"
        argv = ["dataset", "build-ae", "--squad", str(squad), "--output", str(output)]
        assert run_cli(argv, {}) == 1
        assert one_error_line(capsys.readouterr().err) == f"{squad}: {path}: missing or blank"
        assert not output.exists()

    @pytest.mark.parametrize(
        "context, question, answer, path",
        [
            ("Cats \ud800 sleep.", "Q?", "a", "data[0].paragraphs[0].context"),
            ("Ctx.", "Why \udfff?", "a", "data[0].paragraphs[0].qas[0].question"),
            ("Ctx.", "Q?", "\ud800", "data[0].paragraphs[0].qas[0].answers[0].text"),
        ],
    )
    @pytest.mark.parametrize("command", ["squad-group", "build-ae"])
    def test_lone_surrogate_squad_field(self, tmp_path, capsys, command, context, question,
                                        answer, path):
        # JSON escapes the surrogate, so the file itself is valid UTF-8.
        squad = tmp_path / "squad.json"
        squad.write_text(json.dumps({"data": [{"paragraphs": [
            {"context": context, "qas": [{"question": question, "answers": [{"text": answer}]}]}
        ]}]}), encoding="utf-8")
        output = tmp_path / "out"
        argv = ["dataset", command, "--squad", str(squad),
                "--output-dir" if command == "squad-group" else "--output", str(output)]
        assert run_cli(argv, {}) == 1
        assert one_error_line(capsys.readouterr().err) == f"{squad}: {path}: not UTF-8 text"
        assert not output.exists()


BOM = codecs.BOM_UTF8


def input_files(tmp_path: Path, document: str) -> dict[str, bytes]:
    """A valid copy of every kind of input file, by file name; the configs
    and the squad-group call name the others relative to the working
    directory."""
    packaged = (Path(faqgen.__file__).parent / "data" / "lexicon_v1.txt").read_bytes()
    return {
        "fixture.txt": document.encode(),
        "faqgen.conf": b"# pipeline settings\nchunk_size_words = 30\n",
        "lexicon.conf": b"chunk_size_words = 30\nlexicon_path = lexicon.txt\n",
        "lexicon.txt": packaged + b"Gaming\tquantum\n",
        "squad.json": squad_file(tmp_path).read_bytes(),
        "custom.csv": (CUSTOM_HEADER_LINE + "Ctx.,Q?,phrase,Complete sentence.\n").encode(),
        "sheet.csv": (REVIEW_HEADER_LINE + "d1,Gaming,r1,8,9,7,6,10\n"
                      "d1,Gaming,r2,9,9,8,6,9\n").encode(),
    }


def run_in(work: Path, monkeypatch, capsys, argv: list[str]) -> tuple:
    """Exit code, stdout, stderr and every file in *work* after *argv* ran
    there."""
    monkeypatch.chdir(work)
    code = run_cli(argv, {})
    files = {path.relative_to(work): path.read_bytes() for path in work.rglob("*") if path.is_file()}
    return code, *capsys.readouterr(), files


class TestInputFileBytes:
    """Every input file is UTF-8; a leading byte-order mark is ignored, and a
    bad byte's offset counts from the file's first byte."""

    @pytest.mark.parametrize("bom_file, argv", [
        pytest.param("fixture.txt", ["generate", "--input", "fixture.txt", "--count", "5"],
                     id="generate"),
        pytest.param("fixture.txt", ["chunk", "--input", "fixture.txt", "--size", "30"],
                     id="chunk"),
        pytest.param("faqgen.conf", ["generate", "--input", "fixture.txt", "--count", "5",
                                     "--config", "faqgen.conf", "--output", "out.json"],
                     id="config"),
        pytest.param("squad.json", ["dataset", "build-ae", "--squad", "squad.json",
                                    "--output", "ae.csv"], id="build-ae-squad"),
        pytest.param("custom.csv", ["dataset", "build-ac", "--custom", "custom.csv",
                                    "--output", "ac.csv"], id="build-ac-custom"),
        pytest.param("custom.csv", ["dataset", "build-ae", "--squad", "squad.json",
                                    "--custom", "custom.csv", "--output", "ae.csv"],
                     id="build-ae-custom"),
        pytest.param("sheet.csv", ["eval", "aggregate", "--input", "sheet.csv"],
                     id="eval-aggregate"),
        pytest.param("lexicon.txt", ["dataset", "squad-group", "--squad", "squad.json",
                                     "--lexicon", "lexicon.txt", "--output-dir", "tables"],
                     id="squad-group-lexicon"),
        pytest.param("lexicon.txt", ["classify", "--input", "fixture.txt",
                                     "--config", "lexicon.conf"], id="config-lexicon-path"),
    ])
    def test_bom_changes_nothing(
        self, tmp_path, monkeypatch, capsys, fixture_document_text, bom_file, argv
    ):
        runs = []
        for prefix in (b"", BOM):
            work = tmp_path / ("bom" if prefix else "plain")
            work.mkdir()
            for name, data in input_files(tmp_path, fixture_document_text).items():
                (work / name).write_bytes(prefix + data if name == bom_file else data)
            code, out, err, files = run_in(work, monkeypatch, capsys, argv)
            assert code == 0, err
            files.pop(Path(bom_file))
            runs.append((out, err, files))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("argv", [
        ["generate", "--input", "{bad}", "--count", "5"],
        ["generate", "--input", "{doc}", "--count", "5", "--config", "{bad}"],
        ["dataset", "build-ae", "--squad", "{bad}", "--output", "{out}"],
        ["dataset", "build-ac", "--custom", "{bad}", "--output", "{out}"],
        ["eval", "aggregate", "--input", "{bad}"],
        ["dataset", "squad-group", "--squad", "{squad}", "--lexicon", "{bad}",
         "--output-dir", "{out}"],
    ], ids=["document", "config", "squad", "custom", "sheet", "lexicon"])
    def test_bad_byte_after_bom_names_file_offset(self, tmp_path, doc_file, capsys, argv):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(BOM + b"Gaming\tjaz\xe9z\n")
        places = {"bad": str(bad), "doc": str(doc_file), "out": str(tmp_path / "out"),
                  "squad": str(squad_file(tmp_path))}
        assert run_cli([fill(arg, places) for arg in argv], {}) == 1
        assert one_error_line(capsys.readouterr().err) == (
            f"{bad}: not UTF-8 at byte offset 13 (invalid continuation byte)"
        )

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_document_line_ends_read_as_lf(
        self, tmp_path, monkeypatch, capsys, fixture_document_text, newline
    ):
        # Lines of 50 characters, so that sentences wrap across them.
        text = textwrap.fill(fixture_document_text, width=50) + "\n"
        outputs = []
        for name, line_end in (("lf", "\n"), ("other", newline)):
            work = tmp_path / name
            work.mkdir()
            (work / "fixture.txt").write_bytes(text.replace("\n", line_end).encode())
            argv = ["generate", "--input", "fixture.txt", "--count", "100"]
            code, out, _, _ = run_in(work, monkeypatch, capsys, argv)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]
        # An answer is a sentence, and keeps its line break.
        assert "\\n" in outputs[0]

    CRLF_CELL_ROW = b'"Line one.\r\nLine two.",Q?,phrase,Done.\r\n'

    def test_quoted_crlf_cell_survives_build_ac(self, tmp_path):
        custom = tmp_path / "custom.csv"
        custom.write_bytes(CUSTOM_HEADER_LINE.encode() + self.CRLF_CELL_ROW)
        output = tmp_path / "ac.csv"
        argv = ["dataset", "build-ac", "--custom", str(custom), "--output", str(output)]
        assert run_cli(argv, {}) == 0
        assert b'\r\n"Line one.\r\nLine two.",Q?,phrase,Done.\r\n' in output.read_bytes()

    def test_bad_row_after_multiline_cell_names_its_line(self, tmp_path, capsys):
        custom = tmp_path / "custom.csv"
        custom.write_bytes(CUSTOM_HEADER_LINE.encode() + self.CRLF_CELL_ROW + b"Ctx.,,phrase,Done.\r\n")
        argv = ["dataset", "build-ac", "--custom", str(custom), "--output", str(tmp_path / "ac.csv")]
        assert run_cli(argv, {}) == 1
        assert one_error_line(capsys.readouterr().err).startswith(f"{custom}: line 4: AnswerRow")


# A JSON reply may escape a lone surrogate, which UTF-8 cannot encode; as a
# 200 reply's text or a 4xx reply's error detail it must end in a warning,
# not in output that cannot be written.
LONE_SURROGATE_REPLIES = [
    ("questions", 200, {"questions": ["What about \ud800 here?"]}, "ChunkSkipped"),
    ("answer_phrase", 200, {"answer_phrase": "\ud800 here"}, "QuestionDropped"),
    ("complete_answer", 200, {"answer": "It is \udfff."}, "QuestionDropped"),
] + [
    (step, 422, {"error": "bad \ud800 request"}, kind)
    for step, kind in [
        ("domain", "ClassifierFallback"),
        ("questions", "ChunkSkipped"),
        ("answer_phrase", "QuestionDropped"),
        ("complete_answer", "QuestionDropped"),
    ]
]


class TestLoneSurrogateReply:
    @pytest.mark.parametrize("step, status, reply, kind", LONE_SURROGATE_REPLIES)
    def test_generate_warns_and_exits_0(
        self, doc_file, tmp_path, canned_backend, capsys, step, status, reply, kind
    ):
        # json.dumps escapes the surrogate, so the reply itself is ASCII.
        url, backend = canned_backend({f"/v1/{step}": [(status, json.dumps(reply))]})
        config = tmp_path / "remote.conf"
        config.write_text(f"{step}_url = {url}/v1/{step}\nmax_retries = 0\n", encoding="utf-8")
        output = tmp_path / "out.json"
        argv = ["generate", "--input", str(doc_file), "--count", "3",
                "--config", str(config), "--output", str(output)]
        assert run_cli(argv, {}) == 0
        assert backend.hits[f"/v1/{step}"] >= 1
        assert json.loads(output.read_text(encoding="utf-8"))["document_id"] == "fixture"
        assert f"warning [{kind}] " in capsys.readouterr().err


# The CLI property: argv drawn from the real subcommands and flags, with file
# arguments that name the drawn input, the drawn config, a missing file or a
# directory. The config sets no backend URL (so nothing leaves the process)
# and at most 4 workers; serve-stub is left out because it serves forever.
FILE = st.sampled_from(["{input}"] * 4 + ["{config}", "{missing}", "{dir}"])
CONFIG = st.sampled_from(["{config}"] * 3 + ["{input}", "{missing}"])
NUMBER = st.sampled_from(["1", "2", "3", "250", "1", "2", "3", "250", "0", "x"])
WORKERS = st.sampled_from(["1", "2", "3", "4"])
# build-ae and build-ac write to the working directory when --output is left
# out, so it is always given.
OUTPUT = st.sampled_from(["{dir}/out.csv", "{dir}", "{missing}/out.csv"])
COMMANDS = {
    ("generate",): {"--input": FILE, "--count": NUMBER, "--config": CONFIG,
                    "--workers": WORKERS, "--output": OUTPUT},
    ("chunk",): {"--input": FILE, "--size": NUMBER, "--config": CONFIG},
    ("classify",): {"--input": FILE, "--size": NUMBER, "--config": CONFIG},
    ("dataset", "squad-group"): {"--squad": FILE, "--output-dir": st.sampled_from(
        ["{dir}/tables", "{input}"]), "--floor": NUMBER, "--lexicon": FILE},
    ("dataset", "build-ae"): {"--squad": FILE, "--custom": FILE, "--output": OUTPUT},
    ("dataset", "build-ac"): {"--custom": FILE, "--output": OUTPUT},
    ("eval", "aggregate"): {"--input": FILE},
}

CONFIG_LINE = st.one_of(
    st.builds(
        "{} = {}".format,
        st.sampled_from(["chunk_size_words", "question_cap", "timeout_ms", "max_retries"]),
        st.sampled_from(["1", "2", '"30"', "250", "1", "2", '"30"', "250", "0", "x"]),
    ),
    st.builds("workers = {}".format, WORKERS),
    st.builds("{} = {}".format, st.sampled_from(
        ["domain_url", "questions_url", "answer_phrase_url", "complete_answer_url"]
    ), st.sampled_from(['""', ""])),
    st.builds("lexicon_path = {}".format, st.sampled_from(["{input}", "{missing}", "{dir}", '""'])),
    st.sampled_from(["# comment", ""]),
    # Lines that are not settings: a usage error.
    st.sampled_from(["mystery = 1", "workers"]) | st.text(max_size=12).filter(
        lambda line: "=" not in line and line.strip() and not line.lstrip().startswith("#")
    ),
)
CELL = st.sampled_from(
    ["", "   ", "Ctx.", "Q?", "a phrase", "a | b", "a|b", 'say "hi"', "two\nlines"]
)
SCORE = st.sampled_from(["8", "0", "10", "7", "50", "-1", "x"])
# Rows shaped like a review sheet's or a custom table's, with blank, out of
# range and unknown values among the plausible ones.
REVIEW_ROW = st.builds(
    lambda head, scores: [*head, *scores],
    st.tuples(st.sampled_from(["d1", "d2", ""]), st.sampled_from(["Gaming", "Music", "Astrology"]),
              st.sampled_from(["r1", "r2", ""])),
    st.lists(SCORE, min_size=5, max_size=5),
)
TABLE = st.one_of(
    st.builds(lambda rows: REVIEW_HEADER_LINE + csv_text(rows), st.lists(REVIEW_ROW, max_size=4)),
    st.builds(lambda rows: CUSTOM_HEADER_LINE + csv_text(rows),
              st.lists(st.lists(CELL, min_size=4, max_size=4), max_size=4)),
    st.builds(lambda header, rows: header + csv_text(rows),
              st.sampled_from([REVIEW_HEADER_LINE, CUSTOM_HEADER_LINE, "x\n"]),
              st.lists(st.lists(CELL, max_size=9), max_size=3)),
)
SQUAD = st.builds(
    lambda context, question, answer: json.dumps({"data": [{"paragraphs": [
        {"context": context, "qas": [{"question": question, "answers": [{"text": answer}]}]}
    ]}]}),
    st.sampled_from(["The band played jazz.", "Sports context.", "   ", ""]), CELL, CELL,
)
LEXICON = st.lists(
    st.builds("{}\t{}".format, st.sampled_from(["Gaming", "Music", "Astrology"]),
              st.sampled_from(["jazz", "c++", "", "  ", "goal"])),
    max_size=4,
).map("\n".join)
DOCUMENT = st.lists(
    st.sampled_from(["The museum opened.", "Jazz bands play!", "Who won?", "\n\n"]), max_size=30
).map(" ".join)
INPUT_BYTES = st.one_of(
    st.binary(max_size=64),
    (st.text(max_size=200) | DOCUMENT | TABLE | SQUAD | LEXICON).map(str.encode),
)


def csv_text(rows: list[list[str]]) -> str:
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


@st.composite
def cli_calls(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = list(command)
    for flag, values in COMMANDS[command].items():
        if flag == "--output" or draw(st.integers(0, 7)):
            argv += [flag, draw(values)]
    argv += draw(st.sampled_from([[]] * 6 + [["--bogus"], ["--help"]]))
    config = "\n".join(draw(st.lists(CONFIG_LINE, max_size=5)))
    environment = draw(st.sampled_from(
        [{}, {}, {"FAQGEN_CONFIG": "{config}"}, {"FAQGEN_CONFIG": "{config}"},
         {"FAQGEN_CONFIG": "{missing}"}]
    ))
    return argv, environment, config, draw(INPUT_BYTES)


def fill(text: str, places: dict[str, str]) -> str:
    for name, place in places.items():
        text = text.replace(f"{{{name}}}", place)
    return text


class TestCliProperty:
    @settings(max_examples=100, deadline=None)
    @given(cli_calls())
    def test_any_call_exits_0_1_or_2(self, call):
        argv, environment, config, data = call
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as work:
            places = {
                "input": os.path.join(work, "input.txt"),
                "config": os.path.join(work, "faqgen.conf"),
                "missing": os.path.join(work, "missing"),
                "dir": work,
            }
            Path(places["input"]).write_bytes(data)
            Path(places["config"]).write_text(fill(config, places), encoding="utf-8")
            argv = [fill(arg, places) for arg in argv]
            environment = {key: fill(value, places) for key, value in environment.items()}
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = run_cli(argv, environment)
        assert code in (0, 1, 2)
        if code == 1:
            errors = [line for line in err.getvalue().splitlines() if line.startswith("error: ")]
            assert len(errors) == 1
            # With no backend URL, every runtime failure comes from a file or
            # directory the call named (the input, the config, the lexicon it
            # names, an output), all of which lie in the work directory; the
            # error line names it.
            assert work in errors[0], errors[0]
