"""Self-tests of the benchmark's checks: each accepts the program's real output
and rejects a copy corrupted in one specific way.

    python3 bench/selftest.py        # from the root of a checkout

The functions are also collected by pytest when this file is named on the
command line (``python -m pytest bench/selftest.py``).
"""

from __future__ import annotations

import ast
import copy
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(Path.cwd() / "src"))

import checks  # noqa: E402
import run  # noqa: E402

SEED = 7


def _expect_failure(fn, fragment: str) -> None:
    try:
        fn()
    except checks.CheckFailed as exc:
        if fragment not in str(exc):
            raise AssertionError(f"rejected for another reason: {exc}") from exc
        return
    raise AssertionError(f"corrupted output was accepted (expected {fragment!r})")


def _pipeline_case():
    workload = run.make_workload("offline_doc", SEED)
    doc = workload.make_input(1)
    result, text = workload.op(doc)
    keys = [(faq.pair.chunk_index, faq.pair.q_index) for faq in result.faqs]
    payload = json.loads(text)

    def check(p=payload, k=keys):
        checks.check_faqs(doc, p, k, run.REQUESTED_FAQS, run.QUESTION_CAP, workload.terms)

    return doc, payload, keys, check


def test_real_pipeline_output_passes():
    _, _, _, check = _pipeline_case()
    check()


def test_score_shifted_by_one_millionth_is_rejected():
    _, payload, _, check = _pipeline_case()
    bad = copy.deepcopy(payload)
    bad["faqs"][3]["semantic_score"] += 1e-6
    _expect_failure(lambda: check(bad), "semantic_score")


def test_two_ranks_swapped_are_rejected():
    _, payload, keys, check = _pipeline_case()
    bad = copy.deepcopy(payload)
    bad["faqs"][0]["rank"], bad["faqs"][1]["rank"] = bad["faqs"][1]["rank"], bad["faqs"][0]["rank"]
    _expect_failure(lambda: check(bad), "ranks are not 1..N")

    # The same two entries exchanged in place, ranks renumbered 1..N.
    i = next(i for i in range(len(keys) - 1) if payload["faqs"][i]["total_score"] != payload["faqs"][i + 1]["total_score"])
    bad = copy.deepcopy(payload)
    faqs = bad["faqs"]
    faqs[i], faqs[i + 1] = faqs[i + 1], faqs[i]
    faqs[i]["rank"], faqs[i + 1]["rank"] = i + 1, i + 2
    swapped = list(keys)
    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
    _expect_failure(lambda: check(bad, swapped), "out of order")


def test_wrong_domain_is_rejected():
    _, payload, _, check = _pipeline_case()
    bad = copy.deepcopy(payload)
    right = bad["faqs"][0]["domain"]
    bad["faqs"][0]["domain"] = next(d for d in checks.DOMAINS if d != right)
    _expect_failure(lambda: check(bad), "domain")


def test_answer_from_another_chunk_is_rejected():
    doc, payload, _, check = _pipeline_case()
    chunks = run.inputs.chunk_contexts(doc.sentences)
    bad = copy.deepcopy(payload)
    own = bad["faqs"][0]["chunk_index"]
    other = (own + 1) % len(chunks)
    bad["faqs"][0]["answer"] = chunks[other][1][0]
    _expect_failure(lambda: check(bad), "answer is not a sentence")


def _tables_case(test) -> None:
    workload = run.make_workload("tables", SEED)
    workload.start()
    try:
        item = workload.make_input(1)
        test(workload, item, workload.op(item))
    finally:
        workload.stop()


def test_real_tables_pass():
    _tables_case(lambda workload, item, output: workload.check(item, output))


def test_dropped_csv_row_is_rejected():
    def drop_rows(workload, item, output):
        question_table = max(workload.out_dir.glob("qg_*.csv"), key=lambda p: p.stat().st_size)
        for path, message in (
            (workload.out_dir / "ae_dataset.csv", "answer-extraction"),
            (workload.out_dir / "ac_dataset.csv", "answer-completion"),
            (question_table, "question table"),
        ):
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            path.write_text("".join(lines[:1] + lines[2:]), encoding="utf-8")
            _expect_failure(lambda: workload.check(item, output), message)
            workload.op(item)  # rewrite the tables for the next case

    _tables_case(drop_rows)


def test_checks_import_nothing_from_faqgen():
    for name in ("checks.py", "inputs.py"):
        tree = ast.parse((BENCH_DIR / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            modules = []
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            assert not any(m.split(".")[0] == "faqgen" for m in modules), f"{name} imports {modules}"


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
