"""Per-layer metrics from the spans of a traced run.

``*_s`` metrics are self times summed over the traced operations: a span's
duration minus the part covered by its child spans, with ``post_json``
folded into the gateway step that called it (see ``tracing.self_times``).
Counts are summed over the same operations. A metric whose wrapped name is
missing from the program is reported with value ``None`` (absent).
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from tracing import FOLDED, Span, Tracer, self_times

ENDPOINTS = ("domain", "questions", "answer_phrase", "complete_answer")
DATASET_STEPS = (
    "parse_squad", "build_qg_datasets", "write_qg_table", "build_ae_dataset",
    "write_answer_table", "read_custom_table", "build_ac_dataset",
)
REVIEW_STEPS = ("read_review_sheet", "aggregate", "format_report")
# Spans that only orchestrate; every other span is a step the result waits on.
ORCHESTRATION = ("op", "pipeline.run", "pipeline.process_chunk")

# metric -> (unit, span names it needs)
METRICS: dict[str, tuple[str, tuple[str, ...]]] = {
    "chunker.segment_sentences_calls": ("count", ("chunker.segment_sentences",)),
    "chunker.segment_sentences_s": ("s", ("chunker.segment_sentences",)),
    "chunker.build_chunks_s": ("s", ("chunker.build_chunks",)),
    "chunker.chunks": ("count", ("chunker.build_chunks",)),
    "domains.classify_calls": ("count", ("domains.classify",)),
    "domains.classify_s": ("s", ("domains.classify",)),
    "gateway.generate_questions_s": ("s", ("gateway.generate_questions",)),
    "gateway.extract_answer_phrase_s": ("s", ("gateway.extract_answer_phrase",)),
    "gateway.complete_answer_s": ("s", ("gateway.complete_answer",)),
    "gateway.post_json_calls": ("count", ("gateway.post_json",)),
    "gateway.http_attempts": ("count", ("gateway.requests.post",)),
    "gateway.request_bytes": ("bytes", ("gateway.requests.post",)),
    **{f"gateway.post_json_p50_ms.{e}": ("ms", ("gateway.post_json",)) for e in ENDPOINTS},
    **{f"gateway.post_json_tail_ms.{e}": ("ms", ("gateway.post_json",)) for e in ENDPOINTS},
    "gateway.duplicate_questions": ("count", ("gateway.generate_questions",)),
    "stubserver.cpu_s": ("s", ()),
    "stubserver.cpu_ms_per_call": ("ms", ("gateway.post_json",)),
    "stubserver.peak_rss_mb": ("MB", ()),
    "ranker.rank_s": ("s", ("ranker.rank",)),
    "ranker.pairs_ranked": ("count", ("ranker.rank",)),
    "ranker.rank_us_per_pair": ("us", ("ranker.rank",)),
    "pipeline.process_chunk_s": ("s", ("pipeline.process_chunk",)),
    "pipeline.chunk_latency_p50_ms": ("ms", ("pipeline.process_chunk",)),
    "pipeline.chunk_latency_tail_ms": ("ms", ("pipeline.process_chunk",)),
    "pipeline.worker_busy_ratio": ("ratio", ("pipeline.process_chunk", "pipeline.run")),
    "pipeline.run_self_s": ("s", ("pipeline.run",)),
    "pipeline.to_json_s": ("s", ("pipeline.to_json",)),
    "pipeline.client_cpu_s": ("s", ()),
    **{f"datasets.{step}_s": ("s", (f"datasets.{step}",)) for step in DATASET_STEPS},
    **{f"reviews.{step}_s": ("s", (f"reviews.{step}",)) for step in REVIEW_STEPS},
    "cli.import_s": ("s", ()),
    "cli.lexicon_load_s": ("s", ()),
    "trace.overhead_s": ("s", ()),
}


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def tail_percentile(count: int) -> float:
    """The highest of the usual percentiles with at least ten samples beyond it."""
    for p in (99.9, 99, 95, 90, 75, 50):
        if count - math.ceil(p / 100 * count) >= 10:
            return p
    return 50


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _tail(values: list[float]) -> float:
    return percentile(values, tail_percentile(len(values))) if values else 0.0


def layer_metrics(
    tracer: Tracer,
    worker_count: int,
    client_cpu_s: float,
    server: tuple[float, float] | None,
    probes: list[tuple[float, float, float]],
    overhead_s: float,
) -> dict[str, tuple[float | None, str]]:
    """Every per-layer metric by name: (value, unit)."""
    own = self_times(tracer.spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in tracer.spans:
        by_name[span.name].append(span)

    def self_s(name: str) -> float:
        return sum(own[s.span_id][0] for s in by_name[name])

    def durations(name: str) -> list[float]:
        return [s.end - s.start for s in by_name[name]]

    def notes(name: str) -> int:
        return sum(s.note or 0 for s in by_name[name])

    posts = by_name["gateway.post_json"]
    post_ms = {e: [(s.end - s.start) * 1000 for s in posts if s.note == e] for e in ENDPOINTS}
    chunk_ms = [d * 1000 for d in durations("pipeline.process_chunk")]
    run_time = sum(durations("pipeline.run"))
    pairs = notes("ranker.rank")
    server_cpu, server_rss = server if server else (0.0, 0.0)

    values: dict[str, float] = {
        "chunker.segment_sentences_calls": len(by_name["chunker.segment_sentences"]),
        "chunker.segment_sentences_s": self_s("chunker.segment_sentences"),
        "chunker.build_chunks_s": self_s("chunker.build_chunks"),
        "chunker.chunks": notes("chunker.build_chunks"),
        "domains.classify_calls": len(by_name["domains.classify"]),
        "domains.classify_s": self_s("domains.classify"),
        "gateway.generate_questions_s": self_s("gateway.generate_questions"),
        "gateway.extract_answer_phrase_s": self_s("gateway.extract_answer_phrase"),
        "gateway.complete_answer_s": self_s("gateway.complete_answer"),
        "gateway.post_json_calls": len(posts),
        "gateway.http_attempts": tracer.http_attempts,
        "gateway.request_bytes": tracer.request_bytes,
        "gateway.duplicate_questions": notes("gateway.generate_questions"),
        "stubserver.cpu_s": server_cpu,
        "stubserver.cpu_ms_per_call": server_cpu * 1000 / len(posts) if posts else 0.0,
        "stubserver.peak_rss_mb": server_rss,
        "ranker.rank_s": self_s("ranker.rank"),
        "ranker.pairs_ranked": pairs,
        "ranker.rank_us_per_pair": self_s("ranker.rank") * 1e6 / pairs if pairs else 0.0,
        "pipeline.process_chunk_s": self_s("pipeline.process_chunk"),
        "pipeline.chunk_latency_p50_ms": _p50(chunk_ms),
        "pipeline.chunk_latency_tail_ms": _tail(chunk_ms),
        "pipeline.worker_busy_ratio": (
            sum(chunk_ms) / 1000 / (run_time * worker_count) if run_time else 0.0
        ),
        "pipeline.run_self_s": self_s("pipeline.run"),
        "pipeline.to_json_s": self_s("pipeline.to_json"),
        "pipeline.client_cpu_s": client_cpu_s,
        "cli.import_s": statistics.median(p[1] for p in probes),
        "cli.lexicon_load_s": statistics.median(p[2] for p in probes),
        "trace.overhead_s": overhead_s,
    }
    for e in ENDPOINTS:
        values[f"gateway.post_json_p50_ms.{e}"] = _p50(post_ms[e])
        values[f"gateway.post_json_tail_ms.{e}"] = _tail(post_ms[e])
    for step in DATASET_STEPS:
        values[f"datasets.{step}_s"] = self_s(f"datasets.{step}")
    for step in REVIEW_STEPS:
        values[f"reviews.{step}_s"] = self_s(f"reviews.{step}")

    absent = set(tracer.absent)
    return {
        name: (None if absent.intersection(needs) else values[name], unit)
        for name, (unit, needs) in METRICS.items()
    }


def summary(tracer: Tracer, ops: int) -> list[str]:
    """Readable lines: where the traced operations spent their time.

    With several pool threads the wall self times of steps overlap, so their
    sum can pass the operations' wall time; CPU self times do not overlap
    while the interpreter lock serialises the threads.
    """
    own = self_times(tracer.spans)
    op_wall = sum(s.end - s.start for s in tracer.spans if s.name == "op")
    wall: dict[str, float] = defaultdict(float)
    cpu: dict[str, float] = defaultdict(float)
    for span in tracer.spans:
        wall[span.name] += own[span.span_id][0]
        cpu[span.name] += own[span.span_id][1]
    lines = [f"traced {ops} operations, {op_wall:.3f} s wall"]
    if tracer.absent:
        lines.append(f"absent from the program: {', '.join(tracer.absent)}")
    if not op_wall:
        return lines
    lines.append(f"  {'self time of':<40}{'wall s':>9}{'share':>8}{'cpu s':>9}{'share':>8}")
    for name in sorted(wall, key=lambda n: -wall[n]):
        label = f"{name} (within its caller)" if name in FOLDED else name
        lines.append(
            f"  {label:<40}{wall[name]:9.4f}{wall[name] / op_wall:8.1%}"
            f"{cpu[name]:9.4f}{cpu[name] / op_wall:8.1%}"
        )
    steps = [n for n in wall if n not in ORCHESTRATION and n not in FOLDED]
    lines.append(
        "blocking steps' self time / op wall: "
        f"wall {sum(wall[n] for n in steps) / op_wall:.1%}, "
        f"cpu {sum(cpu[n] for n in steps) / op_wall:.1%}"
    )
    return lines
