from __future__ import annotations

import json
from pathlib import Path

import faqgen
from faqgen import cli
from faqgen.chunker import SourceDocument
from faqgen.pipeline import PipelineConfig, run

README = Path(__file__).parents[1] / "README.md"


def library_snippet() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_every_exported_name_resolves():
    for name in faqgen.__all__:
        assert getattr(faqgen, name) is not None, name


def test_readme_config_example_parses(tmp_path):
    section = README.read_text(encoding="utf-8").split("\n### Config file\n", 1)[1]
    config = tmp_path / "faqgen.conf"
    config.write_text(section.split("```ini\n", 1)[1].split("```", 1)[0], encoding="utf-8")
    settings = cli._pipeline_config(cli._config_values(str(config), {}))
    assert settings.lexicon_path is None
    endpoints = settings.endpoints
    assert [
        endpoints.domain_url, endpoints.questions_url,
        endpoints.answer_phrase_url, endpoints.complete_answer_url,
    ] == [f"http://127.0.0.1:8080/v1/{step}"
          for step in ("domain", "questions", "answer_phrase", "complete_answer")]


def test_readme_library_snippet_runs(tmp_path, monkeypatch, capsys, fixture_document_text):
    (tmp_path / "article.txt").write_text(fixture_document_text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(library_snippet(), {})
    *faq_lines, payload = capsys.readouterr().out.strip().splitlines()
    expected = run(
        SourceDocument.from_text("my-doc", fixture_document_text),
        PipelineConfig(requested_faq_count=10),
    )
    assert payload == expected.to_json()
    assert len(faq_lines) == len(expected.faqs) == len(json.loads(payload)["faqs"])
    assert faq_lines[0].startswith("1 ")
