"""Command-line front end: generation, chunk inspection, stub server,
dataset builders and review aggregation.

Exit codes: 0 success, 1 runtime failure, 2 usage error. The package raises
a ``ValueError`` for every malformed input (a document, table, sheet or
lexicon), an ``OSError`` for a file or address it cannot use and a
``GatewayError`` for a backend failure; each is a runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path
from typing import Mapping

from .chunker import DEFAULT_CHUNK_WORDS, EmptyDocument, SourceDocument, build_chunks, read_lines
from .datasets import (
    DEFAULT_ROW_FLOOR,
    AnswerRow,
    build_ac_dataset,
    build_ae_dataset,
    build_qg_datasets,
    parse_squad,
    qg_filename,
    read_custom_table,
    write_answer_table,
    write_qg_table,
)
from .domains import classify, default_lexicon, load_lexicon
from .gateway import BackendEndpointSet, GatewayError
from .pipeline import PipelineConfig, PipelineWarning, chunk_domain, run
from .reviews import aggregate, format_report, read_review_sheet
from .stubserver import serve_stub

CONFIG_ENV_VAR = "FAQGEN_CONFIG"

_INT_KEYS = {"chunk_size_words", "question_cap", "timeout_ms", "max_retries", "workers"}
_STR_KEYS = {
    "domain_url",
    "questions_url",
    "answer_phrase_url",
    "complete_answer_url",
    "lexicon_path",
}
_ENDPOINT_KEYS = {field.name for field in fields(BackendEndpointSet)}


class UsageError(Exception):
    pass


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return number


def _require_file(path: str) -> str:
    """*path* as given, once it names a file, so errors name it as given."""
    if not Path(path).is_file():
        raise UsageError(f"file not found: {path}")
    return path


def _read_text(path: str) -> str:
    """The text of the file at *path* (``read_lines``), "\\r\\n" and "\\r" read
    as "\\n"; a bad byte's error names the file."""
    with _naming(_require_file(path)):
        return "".join(read_lines(path))


def _read_document(path: str) -> SourceDocument:
    return SourceDocument.from_text(Path(path).stem, _read_text(path))


def _read_squad(path: str) -> list[AnswerRow]:
    """The rows of the SQuAD file at *path*, parsed from its bytes as they are."""
    with _naming(_require_file(path)):
        return parse_squad(Path(path).read_bytes())


@contextmanager
def _naming(path: str, error: type[ValueError] = ValueError):
    """Prefix *path* to an *error* raised inside, which rejects the content
    of the file at *path*, so that the error line names the file."""
    try:
        yield
    except error as exc:
        raise ValueError(f"{path}: {exc}") from None


def _config_values(config_flag: str | None, environment: Mapping[str, str]) -> dict:
    path = config_flag or environment.get(CONFIG_ENV_VAR)
    if not path:
        return {}
    values: dict = {}
    for number, raw_line in enumerate(_read_text(path).splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"{path}:{number}: expected 'key = value'")
        key = key.strip()
        value = value.strip()
        if len(value) >= 2 and value[0] == value[-1] and value[0] in "\"'":
            value = value[1:-1]
        if key in _INT_KEYS:
            try:
                values[key] = int(value)
            except ValueError:
                raise UsageError(f"{path}:{number}: {key} must be an integer") from None
        elif key in _STR_KEYS:
            values[key] = value
        else:
            raise UsageError(f"{path}:{number}: unknown key {key!r}")
    return values


def _pipeline_config(values: dict, **flags) -> PipelineConfig:
    """The pipeline settings of config-file *values*; each flag given (not
    None) overrides the setting it names."""
    # Unset keys keep the library defaults; an empty string means "none",
    # which is the default of every string key.
    kwargs = {key: value for key, value in values.items() if value != ""}
    endpoint_kwargs = {key: kwargs.pop(key) for key in _ENDPOINT_KEYS & kwargs.keys()}
    if "workers" in kwargs:
        kwargs["worker_count"] = kwargs.pop("workers")
    kwargs.update((key, value) for key, value in flags.items() if value is not None)
    try:
        return PipelineConfig(endpoints=BackendEndpointSet(**endpoint_kwargs), **kwargs)
    except ValueError as exc:
        raise UsageError(f"invalid config: {exc}") from None


def _print_warnings(warnings: list[PipelineWarning]) -> None:
    for warning in warnings:
        print(f"warning [{warning.kind}] {warning.message}", file=sys.stderr)


def _cmd_generate(args: argparse.Namespace, environment: Mapping[str, str]) -> int:
    config = _pipeline_config(
        _config_values(args.config, environment),
        requested_faq_count=args.count,
        worker_count=args.workers,
    )
    document = _read_document(args.input)
    with _naming(args.input, EmptyDocument):
        result = run(document, config)
    payload = result.to_json()
    if args.output:
        Path(args.output).write_text(payload, encoding="utf-8")
    else:
        print(payload)
    _print_warnings(result.warnings)
    return 0


def _chunks(args: argparse.Namespace, environment: Mapping[str, str]) -> tuple:
    """The pipeline config of ``chunk`` and ``classify``, and their input's chunks."""
    config = _pipeline_config(_config_values(args.config, environment), chunk_size_words=args.size)
    document = _read_document(args.input)
    with _naming(args.input, EmptyDocument):
        return config, build_chunks(document, config.chunk_size_words)


def _cmd_chunk(args: argparse.Namespace, environment: Mapping[str, str]) -> int:
    for chunk in _chunks(args, environment)[1]:
        preview = " ".join(chunk.context.split()[:8])
        print(f"{chunk.index}\t{chunk.word_count}\t{preview}")
    return 0


def _cmd_classify(args: argparse.Namespace, environment: Mapping[str, str]) -> int:
    config, chunks = _chunks(args, environment)
    for chunk in chunks:
        domain, warnings = chunk_domain(chunk, config)
        print(f"{chunk.index}\t{domain}")
        _print_warnings(warnings)
    return 0


def _cmd_serve_stub(args: argparse.Namespace, environment: Mapping[str, str]) -> int:
    host, _, port_text = args.bind.rpartition(":")
    if not host or not port_text.isdecimal() or int(port_text) > 65535:
        raise UsageError(f"--bind must be host:port, got {args.bind!r}")
    serve_stub(host, int(port_text))
    return 0


def _cmd_dataset_squad_group(args: argparse.Namespace, environment: Mapping[str, str]) -> int:
    records = _read_squad(args.squad)
    lexicon = load_lexicon(_require_file(args.lexicon)) if args.lexicon else default_lexicon()
    with _naming(args.squad):
        tables, shortfalls = build_qg_datasets(
            records, lambda context: classify(context, lexicon), floor=args.floor
        )
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for domain, rows in tables.items():
        write_qg_table(out_dir / qg_filename(domain), rows)
    print(f"wrote {len(tables)} domain tables to {out_dir}")
    for entry in shortfalls:
        print(f"shortfall: {entry.domain}: {entry.rows} rows (floor {entry.floor})")
    return 0


def _cmd_dataset_build_ae(args: argparse.Namespace, environment: Mapping[str, str]) -> int:
    records = _read_squad(args.squad)
    custom = read_custom_table(_require_file(args.custom)) if args.custom else []
    rows = build_ae_dataset(records, custom)
    write_answer_table(args.output, rows, include_complete=False)
    print(f"wrote {len(rows)} rows to {args.output}")
    return 0


def _cmd_dataset_build_ac(args: argparse.Namespace, environment: Mapping[str, str]) -> int:
    custom = read_custom_table(_require_file(args.custom))
    with _naming(args.custom):
        rows = build_ac_dataset(custom)
    write_answer_table(args.output, rows, include_complete=True)
    print(f"wrote {len(rows)} rows to {args.output}")
    return 0


def _cmd_eval_aggregate(args: argparse.Namespace, environment: Mapping[str, str]) -> int:
    records = read_review_sheet(_require_file(args.input))
    with _naming(args.input):
        aggregates = aggregate(records)
    print(format_report(aggregates))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="faqgen", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="generate ranked FAQs for a document")
    generate.add_argument("--input", required=True, help="plain-text input file")
    generate.add_argument("--count", required=True, type=_positive_int,
                          help="number of FAQs to return")
    generate.add_argument("--config", help="config file (key = value lines)")
    generate.add_argument("--workers", type=_positive_int,
                          help="chunk worker count (default 1); more help only while steps "
                          "wait on remote backends (see the README). Each document starts "
                          "new worker threads, which open new connections")
    generate.add_argument("--output", help="write the result JSON here instead of stdout")
    generate.set_defaults(handler=_cmd_generate)

    chunk = commands.add_parser("chunk", help="show the chunk layout of a document")
    classify_cmd = commands.add_parser("classify", help="show the domain of every chunk")
    for command, handler in ((chunk, _cmd_chunk), (classify_cmd, _cmd_classify)):
        command.add_argument("--input", required=True)
        command.add_argument("--size", type=_positive_int,
                             help="target words per chunk (default: the config's "
                             f"chunk_size_words, else {DEFAULT_CHUNK_WORDS})")
        command.add_argument("--config", help="config file (key = value lines)")
        command.set_defaults(handler=handler)

    serve = commands.add_parser("serve-stub", help="run the deterministic stub backend")
    serve.add_argument("--bind", required=True, help="host:port to listen on")
    serve.set_defaults(handler=_cmd_serve_stub)

    dataset = commands.add_parser("dataset", help="training-table builders")
    dataset_commands = dataset.add_subparsers(dest="dataset_command", required=True)

    squad_group = dataset_commands.add_parser(
        "squad-group", help="group SQuAD questions by context and split per domain"
    )
    squad_group.add_argument("--squad", required=True, help="SQuAD v1.1 JSON file")
    squad_group.add_argument("--output-dir", required=True)
    squad_group.add_argument("--floor", type=_positive_int, default=DEFAULT_ROW_FLOOR,
                             help="minimum rows per domain before a shortfall is reported")
    squad_group.add_argument("--lexicon", help="alternative classifier lexicon file")
    squad_group.set_defaults(handler=_cmd_dataset_squad_group)

    build_ae = dataset_commands.add_parser(
        "build-ae", help="build the answer-extraction table"
    )
    build_ae.add_argument("--squad", required=True)
    build_ae.add_argument("--custom", help="custom dataset CSV")
    build_ae.add_argument("--output", default="ae_dataset.csv")
    build_ae.set_defaults(handler=_cmd_dataset_build_ae)

    build_ac = dataset_commands.add_parser(
        "build-ac", help="build the answer-completion table"
    )
    build_ac.add_argument("--custom", required=True)
    build_ac.add_argument("--output", default="ac_dataset.csv")
    build_ac.set_defaults(handler=_cmd_dataset_build_ac)

    eval_cmd = commands.add_parser("eval", help="review score aggregation")
    eval_commands = eval_cmd.add_subparsers(dest="eval_command", required=True)
    eval_aggregate = eval_commands.add_parser(
        "aggregate", help="aggregate a review score sheet into a report"
    )
    eval_aggregate.add_argument("--input", required=True, help="review sheet CSV")
    eval_aggregate.set_defaults(handler=_cmd_eval_aggregate)

    return parser


def run_cli(argv: list[str], environment: Mapping[str, str]) -> int:
    """Dispatch *argv*; returns the process exit code instead of exiting."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return int(args.handler(args, environment) or 0)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, GatewayError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:], os.environ))
