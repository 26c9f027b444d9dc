"""faqgen benchmark: three workloads, end-to-end metrics, and a traced run.

    python3 bench/run.py --workload offline_doc --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (each a closed loop from one client process; the first operation
is warm-up and is not timed):

  offline_doc  run() + to_json() on 2-8k-word documents with the built-in stubs
  http_stub    the pipeline with one worker against ``faqgen serve-stub`` in its
               own process, on 0.4-2k-word documents
  tables       the SQuAD, custom-answer and review-sheet table builds

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a fixed set of operations (see README.md). The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import http.client
import json
import os
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402

REQUESTED_FAQS = 10
QUESTION_CAP = 5  # the program's default, which the workloads use
TAIL_PERCENTILE = 90  # with at least 100 timed operations, ten samples lie beyond it
LOOP_WALL_LIMIT_S = 120.0
COLD_STARTS = 9
FAILING_WARNINGS = {"ClassifierFallback", "ChunkSkipped", "QuestionDropped"}

# A cold start of the library: a fresh interpreter imports the CLI module and
# makes a first call that loads the packaged lexicon.
COLD_START = """
import time
t0 = time.perf_counter()
import faqgen.cli
t1 = time.perf_counter()
faqgen.cli.classify("The museum opened a gallery.")
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""
SERVE_STUB = "import sys; from faqgen.cli import main; sys.argv[0] = 'faqgen'; main()"

END_TO_END_UNITS = {
    "words_per_s": "words/s",
    "records_per_s": "records/s",
    "doc_latency_p50_ms": "ms",
    "doc_latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def child_env() -> dict[str, str]:
    path = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Set-up: cold starts of the library and of the stub server
# ---------------------------------------------------------------------------


def library_cold_start() -> tuple[float, float, float]:
    """(wall s, import s, lexicon load s) of one fresh interpreter."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", COLD_START], env=child_env(), capture_output=True,
        text=True, timeout=60, check=True,
    )
    wall = time.perf_counter() - start
    import_s, lexicon_s = (float(x) for x in done.stdout.split())
    return wall, import_s, lexicon_s


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _healthy(port: int) -> bool:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        conn.request("GET", "/v1/health")
        return conn.getresponse().status == 200
    except OSError:
        return False
    finally:
        conn.close()


class StubServer:
    """``faqgen serve-stub`` in its own process, from start to health."""

    def __init__(self) -> None:
        self.port = _free_port()
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-c", SERVE_STUB, "serve-stub", "--bind", f"127.0.0.1:{self.port}"],
            env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            while not _healthy(self.port):
                if self.proc.poll() is not None:
                    raise RuntimeError(f"stub server exited with {self.proc.returncode}")
                if time.perf_counter() - start > 60:
                    raise RuntimeError("stub server did not answer /v1/health in 60 s")
                time.sleep(0.002)
        except BaseException:
            self.stop()
            raise
        self.startup_s = time.perf_counter() - start

    def url(self, endpoint: str) -> str:
        return f"http://127.0.0.1:{self.port}/v1/{endpoint}"

    def cpu_s(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class PipelineWorkload:
    """Documents through run() and to_json(), checked one by one."""

    def __init__(
        self, name: str, seed: int, words: tuple[int, int], round_size: int, min_ops: int, trace_ops: int
    ):
        import faqgen

        self.faqgen = faqgen
        self.name, self.seed, self.words = name, seed, words
        self.round_size, self.min_ops, self.trace_ops = round_size, min_ops, trace_ops
        self.lexicon = inputs.load_lexicon(ROOT)
        self.terms = checks.term_index(self.lexicon)
        self.server: StubServer | None = None
        self.config = faqgen.PipelineConfig(requested_faq_count=REQUESTED_FAQS)

    def cold_start(self) -> float:
        return library_cold_start()[0]

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def make_input(self, index: int) -> inputs.Document:
        target = inputs.ladder_size(self.words, self.round_size, self.seed, index)
        return inputs.document(self.lexicon, self.name, self.seed, index, target)

    def size(self, doc: inputs.Document) -> tuple[int, int]:
        return doc.words, 1

    def op(self, doc: inputs.Document, config=None):
        source = self.faqgen.SourceDocument.from_text(doc.doc_id, doc.text)
        result = self.faqgen.run(source, config or self.config)
        return result, result.to_json()

    def check(self, doc: inputs.Document, output) -> None:
        result, text = output
        bad = sorted({w.kind for w in result.warnings if w.kind in FAILING_WARNINGS})
        if bad:
            raise checks.CheckFailed(f"{doc.doc_id}: warnings {bad}")
        keys = [(faq.pair.chunk_index, faq.pair.q_index) for faq in result.faqs]
        checks.check_faqs(doc, json.loads(text), keys, REQUESTED_FAQS, QUESTION_CAP, self.terms)

    def check_once(self, doc: inputs.Document, output) -> None:
        """Outside timing: one worker and the default worker count (at
        least two) give the same bytes as the timed configuration."""
        default = max(2, self.faqgen.PipelineConfig().worker_count)
        for count in sorted({1, default} - {self.config.worker_count}):
            other = self.op(doc, dataclasses.replace(self.config, worker_count=count))[1]
            if other != output[1]:
                raise checks.CheckFailed(
                    f"{doc.doc_id}: output differs between {count} and {self.config.worker_count} workers"
                )


class HttpWorkload(PipelineWorkload):
    """The pipeline with all four endpoints on a stub server process.

    One pipeline worker, and the benchmark process and the stub server it
    starts share one CPU. A backend call is a chain of hand-offs between
    client and server threads; on a shared host, a hand-off to a thread
    on another virtual CPU waits whenever the host has taken that CPU
    away, and that wait, not the transport, decided the latency. On one
    CPU the hand-offs stay local and a stolen CPU slows the whole chain
    alike, as it does the offline workload.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Before any thread or child process exists, so all inherit it.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def cold_start(self) -> float:
        server = StubServer()
        server.stop()
        return server.startup_s

    def start(self) -> None:
        self.server = StubServer()
        endpoints = self.faqgen.BackendEndpointSet(
            domain_url=self.server.url("domain"),
            questions_url=self.server.url("questions"),
            answer_phrase_url=self.server.url("answer_phrase"),
            complete_answer_url=self.server.url("complete_answer"),
        )
        self.config = dataclasses.replace(self.config, endpoints=endpoints, worker_count=1)

    def stop(self) -> None:
        if self.server is not None:
            self.server.stop()


class TablesWorkload:
    """One operation is one full build of every table from three input files."""

    PARAGRAPHS, CUSTOM_ROWS, REVIEW_DOCS = 400, 160, 100
    round_size = 10

    def __init__(self, name: str, seed: int, min_ops: int, trace_ops: int):
        import faqgen.datasets
        import faqgen.domains
        import faqgen.reviews

        self.datasets, self.domains, self.reviews = faqgen.datasets, faqgen.domains, faqgen.reviews
        self.name, self.seed, self.min_ops, self.trace_ops = name, seed, min_ops, trace_ops
        self.lexicon = inputs.load_lexicon(ROOT)
        self.terms = checks.term_index(self.lexicon)
        self.pool = inputs.SentencePool(self.lexicon, seed)
        self.work = WORK / f"tables-{os.getpid()}"
        self.in_dir, self.out_dir = self.work / "in", self.work / "out"
        self.server = None

    cold_start = PipelineWorkload.cold_start

    def start(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def stop(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only if no other run is using it

    def make_input(self, index: int):
        data = inputs.table_inputs(
            self.pool, self.seed, index, self.PARAGRAPHS, self.CUSTOM_ROWS, self.REVIEW_DOCS
        )
        return data, inputs.write_table_inputs(data, self.in_dir)

    def size(self, item) -> tuple[int, int]:
        return item[0].words, item[0].records

    def op(self, item):
        _, paths = item
        ds, dom, rv = self.datasets, self.domains, self.reviews
        records = ds.parse_squad(paths["squad"].read_bytes())
        lexicon = dom.default_lexicon()
        tables, _ = ds.build_qg_datasets(records, lambda context: dom.classify(context, lexicon))
        for domain, rows in tables.items():
            ds.write_qg_table(self.out_dir / ds.qg_filename(domain), rows)
        custom = ds.read_custom_table(paths["custom"])
        ae = ds.build_ae_dataset(records, custom)
        ds.write_answer_table(self.out_dir / "ae_dataset.csv", ae, include_complete=False)
        ac = ds.build_ac_dataset(custom)
        ds.write_answer_table(self.out_dir / "ac_dataset.csv", ac, include_complete=True)
        aggregates = rv.aggregate(rv.read_review_sheet(paths["reviews"]))
        report = rv.format_report(aggregates)
        counts = {"squad": len(records), "custom": len(custom), "ae": len(ae), "ac": len(ac)}
        return counts, aggregates, report

    def check(self, item, output) -> None:
        counts, aggregates, report = output
        rows = [(a.domain, a.doc_count, a.averages, a.stddevs) for a in aggregates]
        checks.check_tables(item[0], self.out_dir, counts, rows, report, self.terms)

    def check_once(self, item, output) -> None:
        pass


def make_workload(name: str, seed: int):
    """*min_ops* is the fewest timed operations a run takes whatever its
    length: at least 100 keeps ten samples beyond the p90. A run takes
    whole rounds of *round_size* operations; on the pipeline workloads a
    round covers every rung of the document size ladder once. The ladders
    span a factor of four or five, so the slowest tenth of a run is made of
    its largest documents, not of whichever documents met a slow moment
    of the host."""
    if name == "offline_doc":
        return PipelineWorkload(name, seed, (2000, 8000), round_size=20, min_ops=100, trace_ops=40)
    if name == "http_stub":
        return HttpWorkload(name, seed, (400, 2000), round_size=20, min_ops=100, trace_ops=40)
    if name == "tables":
        return TablesWorkload(name, seed, min_ops=100, trace_ops=40)
    raise SystemExit(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


class Tally:
    """Operations attempted and failed; a wrong output also clears ``correct``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def attempt(self, workload, item, tracer=None, op_id=None):
        """Run and check one operation; returns (seconds, output) or None."""
        self.attempted += 1
        try:
            with tracer.op(op_id) if tracer else contextlib.nullcontext():
                start = time.perf_counter()
                output = workload.op(item)
                seconds = time.perf_counter() - start
        except Exception:  # one operation failing must not end the run
            self.failed += 1
            log(traceback.format_exc())
            return None
        try:
            workload.check(item, output)
        except checks.CheckFailed:
            self.failed += 1
            self.correct = False
            log(traceback.format_exc())
            return None
        return seconds, output


def warm_up(workload, tally: Tally) -> None:
    """One untimed operation before the rounds, on an input of its own."""
    item = workload.make_input(-1)
    done = tally.attempt(workload, item)
    if done is not None:
        try:
            workload.check_once(item, done[1])
        except checks.CheckFailed:
            tally.failed += 1
            tally.correct = False
            log(traceback.format_exc())


def measure(workload, seconds: float) -> dict:
    """End-to-end metrics of a closed loop that runs for *seconds*.

    The loop runs whole rounds of operations (see ``make_workload``), so
    every run attempts the same mix, and ends at the first round boundary
    after *seconds* of wall time once it has timed ``min_ops`` operations.
    Its wall time holds the untimed input generation and checks too, so a
    run takes about as long on every workload. The cold starts behind
    ``setup_s`` are spread over the run, between operations, so that their
    median samples the whole run and not one moment of it.
    """
    tally = Tally()
    setup = [workload.cold_start()]
    workload.start()
    try:
        warm_up(workload, tally)
        latencies, words, records, busy = [], 0, 0, 0.0
        index, wall_start = 0, time.perf_counter()
        while True:
            wall = time.perf_counter() - wall_start
            if not index % workload.round_size:
                if wall >= seconds and len(latencies) >= workload.min_ops:
                    break
                if wall > LOOP_WALL_LIMIT_S:
                    log(f"stopped after {LOOP_WALL_LIMIT_S:.0f} s with {len(latencies)} timed operations")
                    break
            progress = min(wall / max(seconds, 1e-9), len(latencies) / workload.min_ops)
            if len(setup) < COLD_STARTS and progress >= len(setup) / COLD_STARTS:
                setup.append(workload.cold_start())
            item = workload.make_input(index)
            index += 1
            done = tally.attempt(workload, item)
            if done is not None:
                latencies.append(done[0])
                busy += done[0]
                item_words, item_records = workload.size(item)
                words += item_words
                records += item_records
    finally:
        workload.stop()
    setup += [workload.cold_start() for _ in range(COLD_STARTS - len(setup))]
    if not latencies:
        return {"tally": tally, "metrics": {}}
    metrics = {
        "words_per_s": words / busy,
        "records_per_s": records / busy,
        "doc_latency_p50_ms": statistics.median(latencies) * 1000,
        "doc_latency_tail_ms": layers.percentile(latencies, TAIL_PERCENTILE) * 1000,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    log(
        f"{workload.name}: {len(latencies)} timed operations, {busy:.2f} s busy "
        f"in {wall:.2f} s; "
        f"tail = p{TAIL_PERCENTILE} over {len(latencies)} samples; "
        f"set-up = median of {len(setup)} cold starts {[round(s, 4) for s in setup]}"
    )
    return {"tally": tally, "metrics": {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}}


def measure_traced(workload) -> dict:
    """Per-layer metrics of a fixed set of operations.

    Each operation runs untraced and traced, one right after the other, so
    that a drift in the host's speed reaches both sides of
    ``trace.overhead_s`` alike. Client and server CPU are taken over the
    untraced runs.
    """
    tally = Tally()
    probes = [library_cold_start() for _ in range(COLD_STARTS)]
    tracer = tracing.Tracer()
    untraced_wall = traced_wall = client_cpu = server_cpu = 0.0
    workload.start()
    try:
        warm_up(workload, tally)
        for index in range(workload.trace_ops):
            item = workload.make_input(index)
            # Alternate which side runs first, so neither always meets the
            # freshly written inputs.
            for traced in (False, True) if index % 2 else (True, False):
                if traced:
                    tracer.install()
                    try:
                        done = tally.attempt(workload, item, tracer, index)
                    finally:
                        tracer.uninstall()
                    traced_wall += done[0] if done else 0.0
                    continue
                cpu = time.process_time()
                server_before = workload.server.cpu_s() if workload.server else 0.0
                done = tally.attempt(workload, item)
                client_cpu += time.process_time() - cpu
                if workload.server:
                    server_cpu += workload.server.cpu_s() - server_before
                untraced_wall += done[0] if done else 0.0
        server = (server_cpu, workload.server.peak_rss_mb()) if workload.server else None
    finally:
        workload.stop()
    worker_count = getattr(getattr(workload, "config", None), "worker_count", 1)
    metrics = layers.layer_metrics(
        tracer, worker_count, client_cpu, server, probes, traced_wall - untraced_wall
    )
    for line in layers.summary(tracer, workload.trace_ops):
        log(line)
    return {"tally": tally, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["offline_doc", "http_stub", "tables"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "faqgen"
    if not (package / "__init__.py").is_file():
        log(f"no faqgen package at {package}; run from the root of a checkout")
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = make_workload(args.workload, args.seed)
    outcome = measure_traced(workload) if args.trace else measure(workload, args.seconds)
    tally, metrics = outcome["tally"], outcome["metrics"]
    for name, (value, unit) in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{args.workload} {name} = {shown} {unit}")
    print(f"{args.workload}: attempted {tally.attempted}, failed {tally.failed}")
    print(json.dumps({
        "correct": tally.correct and bool(metrics),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
