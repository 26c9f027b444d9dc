"""Spans around calls into faqgen's layers, recorded from outside the program.

``Tracer.install`` replaces each named public function with a wrapper in its
home module and in every other ``faqgen`` module that imported the same
object under its own name (``segment_sentences`` in ``gateway``, ``classify``
and ``rank`` in ``pipeline``, and so on), so internal calls are covered too.
A name that no longer exists is reported as absent instead of failing.

Each span records its name, start, end, parent, thread, the CPU time of its
thread, and the operation it belongs to. Spans stay in memory until the run
ends. A span opened on a pool thread with nothing open on that thread takes
as parent the innermost span open on the thread that started the operation,
which is the ``run`` call waiting on the pool.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass

# (module, attribute path) of every wrapped name.
TRACED = (
    ("faqgen.chunker", "segment_sentences"),
    ("faqgen.chunker", "build_chunks"),
    ("faqgen.domains", "classify"),
    ("faqgen.gateway", "generate_questions"),
    ("faqgen.gateway", "extract_answer_phrase"),
    ("faqgen.gateway", "complete_answer"),
    ("faqgen.gateway", "post_json"),
    ("faqgen.ranker", "rank"),
    ("faqgen.pipeline", "run"),
    ("faqgen.pipeline", "process_chunk"),
    ("faqgen.pipeline", "FaqResult.to_json"),
    ("faqgen.datasets", "parse_squad"),
    ("faqgen.datasets", "build_qg_datasets"),
    ("faqgen.datasets", "write_qg_table"),
    ("faqgen.datasets", "build_ae_dataset"),
    ("faqgen.datasets", "write_answer_table"),
    ("faqgen.datasets", "read_custom_table"),
    ("faqgen.datasets", "build_ac_dataset"),
    ("faqgen.reviews", "read_review_sheet"),
    ("faqgen.reviews", "aggregate"),
    ("faqgen.reviews", "format_report"),
)

# post_json is the transport half of the gateway step that called it: it is
# timed per endpoint, but its time stays in that step's self time.
FOLDED = frozenset({"gateway.post_json"})


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    cpu: float  # CPU time of the span's thread while the span was open
    thread: int
    parent: int | None
    op_id: int | None
    note: object = None  # what _note kept from the call: a count or an endpoint


def _span_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr.rsplit('.', 1)[-1]}"


def _note(name: str, args: tuple, kwargs: dict, result: object) -> object:
    """The per-call value some metrics need, taken from arguments or result."""
    if name in ("chunker.build_chunks", "ranker.rank"):
        return len(result)
    if name == "gateway.generate_questions":
        texts = [q.text for q in result]
        return len(texts) - len(set(texts))
    if name == "gateway.post_json":
        url = args[0] if args else kwargs["url"]
        return url.rstrip("/").rsplit("/", 1)[-1]
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.http_attempts = 0
        self.request_bytes = 0
        self._op_id: int | None = None
        self._op_thread_stack: list[int] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[int, int | None, list[int]]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._op_thread_stack[-1] if self._op_thread_stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent, stack

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent, stack = tracer._open()
            cpu, start = time.thread_time(), time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end, cpu = time.perf_counter(), time.thread_time() - cpu
                stack.pop()
                note = None if result is None else _note(name, args, kwargs, result)
                tracer.spans.append(
                    Span(span_id, name, start, end, cpu, threading.get_ident(), parent, tracer._op_id, note)
                )

        return traced

    def op(self, op_id: int):
        """Context manager: one operation of the workload, as the root span."""
        return _OpSpan(self, op_id)

    def install(self) -> None:
        self.absent = []
        modules = [m for n, m in sorted(sys.modules.items()) if n == "faqgen" or n.startswith("faqgen.")]
        for module_name, attr in TRACED:
            name = _span_name(module_name, attr)
            owner = sys.modules.get(module_name)
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(original, name)
            self._patch(owner, leaf, wrapper)
            if not outer:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
        self._count_http_attempts()

    def _count_http_attempts(self) -> None:
        requests = getattr(sys.modules.get("faqgen.gateway"), "requests", None)
        post = getattr(requests, "post", None)
        if post is None:
            self.absent.append("gateway.requests.post")
            return
        tracer = self

        @functools.wraps(post)
        def counted_post(url, *args, **kwargs):
            # The gateway posts with json=...; requests encodes it the same way.
            tracer.http_attempts += 1
            tracer.request_bytes += len(json.dumps(kwargs.get("json")).encode("utf-8"))
            return post(url, *args, **kwargs)

        self._patch(requests, "post", counted_post)

    def _patch(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()


class _OpSpan:
    def __init__(self, tracer: Tracer, op_id: int):
        self.tracer, self.op_id = tracer, op_id

    def __enter__(self):
        tracer = self.tracer
        tracer._op_id = self.op_id
        self.span_id, _, stack = tracer._open()
        tracer._op_thread_stack = stack
        self.cpu, self.start = time.thread_time(), time.perf_counter()
        return self

    def __exit__(self, *exc):
        tracer = self.tracer
        end, cpu = time.perf_counter(), time.thread_time() - self.cpu
        tracer._op_thread_stack.pop()
        tracer._op_thread_stack = []
        tracer.spans.append(
            Span(self.span_id, "op", self.start, end, cpu, threading.get_ident(), None, self.op_id)
        )
        tracer._op_id = None
        return False


def self_times(spans: list[Span]) -> dict[int, tuple[float, float]]:
    """Span id -> (wall self time, CPU self time).

    Wall self time is the span's duration minus the part of it covered by
    child spans on any thread; CPU self time is its thread's CPU time minus
    that of its children on the same thread. FOLDED spans are not children.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None and span.name not in FOLDED:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered, reach, child_cpu = 0.0, span.start, 0.0
        for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
            if child.thread == span.thread:
                child_cpu += child.cpu
        result[span.span_id] = (span.end - span.start - covered, span.cpu - child_cpu)
    return result
