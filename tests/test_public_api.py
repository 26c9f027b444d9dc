from __future__ import annotations

import json
from pathlib import Path

import faqgen
from faqgen.chunker import SourceDocument
from faqgen.pipeline import PipelineConfig, run

README = Path(__file__).parents[1] / "README.md"


def library_snippet() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_every_exported_name_resolves():
    for name in faqgen.__all__:
        assert getattr(faqgen, name) is not None, name


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
