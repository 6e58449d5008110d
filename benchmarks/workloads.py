"""The benchmark's workloads: set-up, timed passes, output checks, metrics.

A run makes its inputs from the seed, sets the program up (load the
taxonomy and the dataset, build, save and reload the index), then repeats
whole passes over the dataset until the timed section has lasted the
requested seconds, and then sets the program up a few more times for the
median set-up time.  A pass is what one ``tagrec run`` + ``tagrec
evaluate`` (or one ``tagrec sweep``) does, with every backend and response
cache built afresh, so each pass starts from an empty cache.  ``setup_s``
is a median over the set-ups; the pass figures are totals over the passes.
After the timed section the outputs are
checked against the benchmark's own computations (see ``checks.py``).

The traced run interleaves untraced and traced passes: the traced ones give
the per-layer figures, and the ratio of the two throughputs is the tracing
overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import requests

from tagrec.backends import CachingEmbedder, CachingRanker, FileBackedGenerator, \
    HashEmbedder, HttpChatRanker, HttpEmbedder, ResponseCache
from tagrec.corpus import load_dataset, load_taxonomy
from tagrec.evaluation import PredictionSet, SweepAxis, evaluate_predictions
from tagrec.pipeline import jsonl_line, run_records, run_sweep
from tagrec.prompting import default_instruction
from tagrec.rerank import RerankConfig
from tagrec.retrieval import VectorIndex, build_index, top_k
from tagrec.sim import OracleKind, OracleRanker, OracleSpec

import checks
import synth
from spans import NullRecorder, Recorder, Traced, instrument, record_seconds, \
    self_seconds, trace_cache

HERE = Path(__file__).resolve().parent
STUB_LATENCY_MS = 20.0
# Passes of the traced run: untraced, traced, traced, untraced, ...  Both
# kinds get the same share of early and late, odd and even passes.
TRACE_ORDER = (False, True, True, False)
# Set-ups per run; setup_s is their median.
SETUPS = 9
# Fewer record samples than this give no tail: the p95 then reads 0.
P95_MIN_SAMPLES = 200


@dataclass(frozen=True)
class Workload:
    name: str
    n_tags: int
    n_records: int       # records per pass
    remote: bool = False
    cached: bool = False
    sweep_values: tuple[int, ...] = ()

    @property
    def cells(self) -> int:
        return len(self.sweep_values) or 1


WORKLOADS = {
    "offline": Workload("offline", n_tags=5000, n_records=200),
    "remote": Workload("remote", n_tags=300, n_records=16, remote=True, cached=True),
    "sweep": Workload("sweep", n_tags=2000, n_records=60, cached=True,
                      sweep_values=(1, 2, 4, 8)),
}


class CountingRanker:
    """Counts calls into the ranker handed to the pipeline (one worker)."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def rank_listwise(self, request):
        self.calls += 1
        return self.inner.rank_listwise(request)

    def __getattr__(self, attr):
        return getattr(self.inner, attr)


def _prompt_key(request) -> str:
    return hashlib.sha256(request.prompt.encode("utf-8")).hexdigest()[:16]


def _session() -> requests.Session:
    session = requests.Session()
    session.trust_env = False  # the stub is local: never route through a proxy
    return session


@contextlib.contextmanager
def stub_service(latency_ms: float):
    """Start ``stub.py`` on a free local port; stop it and wait for it."""
    proc = subprocess.Popen([sys.executable, str(HERE / "stub.py"),
                             "--latency-ms", str(latency_ms)],
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        if not line.startswith("PORT "):
            raise RuntimeError(f"stub service did not start: {line!r}")
        yield f"http://127.0.0.1:{int(line.split()[1])}"
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


@dataclass
class PassResult:
    traced: bool
    records: int          # record runs: records x sweep cells
    failed: int
    wall_s: float
    cpu_s: float
    sys_s: float          # the kernel's share of cpu_s, at clock-tick resolution
    ranker_calls: int
    digest: str
    cache_hits: int = 0
    cache_requests: int = 0
    stub: dict = field(default_factory=dict)
    report: dict | None = None  # the evaluation of a run pass
    table: object = None        # the SweepTable of a sweep pass


class Run:
    """One workload at one seed, with its files under ``work_dir``."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path,
                 stub_url: str | None = None):
        self.wl = workload
        self.seed = seed
        self.work = work_dir
        self.stub_url = stub_url
        self.config = RerankConfig(seed=seed)
        self.instruction = default_instruction()
        self.taxonomy_path = work_dir / "taxonomy.jsonl"
        self.dataset_path = work_dir / "dataset.jsonl"
        self._uses = itertools.count()
        self._sessions: list[requests.Session] = []
        work_dir.mkdir(parents=True, exist_ok=True)
        self.inputs = synth.make_inputs(seed, workload.n_tags, workload.n_records)
        synth.write_inputs(self.inputs, self.taxonomy_path, self.dataset_path)
        self.setup_seconds: list[float] = []
        self.setup_rec = Recorder()
        self.pass_rec = Recorder()
        self.passes: list[PassResult] = []
        self.corpus = self.records = self.index = None
        self.peak_rss_mb = 0.0
        self.quality: dict = {}
        self.error: str | None = None

    def _fresh(self, stem: str, suffix: str = "") -> Path:
        """A path in the work directory that no earlier step of the run used.

        Each set-up, pass and check writes files of its own, so each response
        cache starts empty, and nothing is deleted before the run ends: on
        ext4 without a journal, inodes freed in the last minutes slow down
        every later file creation in their block group (see ``run.py``).
        """
        return self.work / f"{stem}-{next(self._uses)}{suffix}"

    # -- backends, wired as ``tagrec run --cache-dir`` wires them ----------

    def _session(self) -> requests.Session:
        session = _session()
        self._sessions.append(session)
        return session

    def _close_sessions(self) -> None:
        while self._sessions:
            self._sessions.pop().close()

    def _embedder(self, cache: ResponseCache | None, rec):
        """The embedder handed to the program, and its caching wrapper if any."""
        if self.wl.remote:
            embedder = cached = CachingEmbedder(
                HttpEmbedder("stub-embed", f"{self.stub_url}/v1", session=self._session()),
                cache)
        else:
            embedder, cached = HashEmbedder(dim=checks.EMBED_DIM), None
        if isinstance(rec, Recorder):
            embedder = Traced(embedder, "embed_batch", rec, "backends.embed")
        return embedder, cached

    def _backends(self, rec):
        traced = isinstance(rec, Recorder)
        cache = ResponseCache(self._fresh("cache")) if self.wl.cached else None
        if cache is not None and traced:
            trace_cache(cache, rec)
        if self.wl.remote:
            ranker = HttpChatRanker("stub-chat", f"{self.stub_url}/v1",
                                    session=self._session())
        else:
            ranker = OracleRanker(OracleSpec(OracleKind.LEXICAL, seed=self.seed))
            if traced:
                ranker = Traced(ranker, "rank_listwise", rec, "sim.oracle")
        caching = []
        if cache is not None:
            ranker = CachingRanker(ranker, cache)
            caching.append(ranker)
        embedder, cached_embedder = self._embedder(cache, rec)
        if cached_embedder is not None:
            caching.append(cached_embedder)
        if traced:
            ranker = Traced(ranker, "rank_listwise", rec, "backends.ranker",
                            key_of=_prompt_key)
        return FileBackedGenerator(), embedder, CountingRanker(ranker), caching

    # -- set-up -------------------------------------------------------------

    def setup(self, traced: bool) -> None:
        """Set the program up and time it.  The passes use the first set-up."""
        rec = self.setup_rec if traced else NullRecorder()
        index_path = self._fresh("tags", ".idx")
        started = time.perf_counter()
        with rec.span("corpus.load"):
            corpus = load_taxonomy(self.taxonomy_path)
            records = load_dataset(self.dataset_path, corpus)
        cache = ResponseCache(self._fresh("cache")) if self.wl.remote else None
        if cache is not None and traced:
            trace_cache(cache, rec)
        embedder, _ = self._embedder(cache, rec)
        with rec.span("retrieval.build_index"):
            index = build_index(corpus, embedder)
        with rec.span("retrieval.index_save"):
            index.save(index_path)
        with rec.span("retrieval.index_load"):
            index = VectorIndex.load(index_path)
        if tuple(index.tag_ids) != tuple(d.tag_id for d in corpus.docs):
            raise checks.CheckError("reloaded index does not match the taxonomy")
        self.setup_seconds.append(time.perf_counter() - started)
        if self.index is None:
            self.corpus, self.records, self.index = corpus, records, index
        self._close_sessions()

    # -- timed passes -------------------------------------------------------

    def _stub_stats(self) -> dict:
        with _session() as session:
            return session.get(f"{self.stub_url}/stats", timeout=10).json()

    def run_pass(self, traced: bool) -> PassResult:
        rec = self.pass_rec if traced else NullRecorder()
        self.predictions_path = self._fresh("predictions", ".jsonl")
        self.traces_path = self._fresh("traces", ".jsonl")
        before = self._stub_stats() if self.wl.remote else {}
        with instrument(rec) if traced else contextlib.nullcontext():
            wall0, cpu0, times0 = time.perf_counter(), time.process_time(), os.times()
            result = self._pass_body(rec)
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            times = os.times()
        result.traced, result.wall_s, result.cpu_s = traced, wall, cpu
        result.sys_s = times.system - times0.system
        if self.wl.remote:
            after = self._stub_stats()
            result.stub = {
                path: {k: v - before.get(path, {}).get(k, 0) for k, v in entry.items()}
                for path, entry in after.items()}
        self.passes.append(result)
        return result

    def _pass_body(self, rec) -> PassResult:
        generator, embedder, ranker, caching = self._backends(rec)
        common = dict(generator=generator, embedder=embedder, ranker=ranker,
                      instruction=self.instruction)
        if self.wl.sweep_values:
            table = run_sweep(self.records, self.corpus, self.index,
                              template=self.config, axis=SweepAxis.ITERATIONS,
                              values=list(self.wl.sweep_values), **common)
            failed = sum(len(self.records) - (c.report.n_records if c.report else 0)
                         for c in table.cells)
            report = None
            digest = hashlib.sha256(json.dumps(table.to_dict(), sort_keys=True)
                                    .encode("utf-8")).hexdigest()
        else:
            result = run_records(self.records, self.corpus, self.index,
                                 config=self.config, **common)
            with rec.span("pipeline.write"):
                with self.predictions_path.open("w", encoding="utf-8") as fh:
                    for line in result.predictions:
                        fh.write(jsonl_line(line))
                with self.traces_path.open("w", encoding="utf-8") as fh:
                    for trace in result.traces:
                        fh.write(jsonl_line(trace))
            gold = {r.record_id: r.gold_tag_id for r in self.records}
            with self.predictions_path.open("r", encoding="utf-8") as fh:
                items = tuple((d["record_id"], gold[d["record_id"]], d["predicted_tag_id"])
                              for d in map(json.loads, fh))
            with rec.span("evaluation.evaluate"):
                report = evaluate_predictions(PredictionSet(items=items)).to_dict()
            failed = len(result.failed) + len(result.skipped)
            table = None
            digest = hashlib.sha256(self.predictions_path.read_bytes()
                                    + self.traces_path.read_bytes()
                                    + json.dumps(report, sort_keys=True).encode()).hexdigest()
        self._close_sessions()
        counters = [c.counter.snapshot() for c in caching]
        return PassResult(
            traced=False, records=len(self.records) * self.wl.cells, failed=failed,
            wall_s=0.0, cpu_s=0.0, sys_s=0.0, ranker_calls=ranker.calls, digest=digest,
            cache_hits=sum(c["hits"] for c in counters),
            cache_requests=sum(c["requests"] for c in counters), report=report,
            table=table)

    # -- output checks ------------------------------------------------------

    def check(self) -> dict:
        """Check the outputs; return the quality figures."""
        if any(p.failed for p in self.passes):
            raise checks.CheckError("some records were skipped or failed")
        if len({p.digest for p in self.passes}) != 1:
            raise checks.CheckError("passes over the same inputs wrote different outputs")
        if self.wl.remote:
            errors = sum(e["errors"] for p in self.passes for e in p.stub.values())
            if errors:
                raise checks.CheckError(f"{errors} stub requests failed")
        if self.wl.sweep_values:
            return self._check_sweep()
        predictions = _read_jsonl(self.predictions_path)
        traces = _read_jsonl(self.traces_path)
        replies = self._check_traces(predictions, traces, self.config.iterations)
        if replies != self.passes[-1].ranker_calls:
            raise checks.CheckError(f"traces hold {replies} replies, the ranker "
                                    f"was called {self.passes[-1].ranker_calls} times")
        expected = checks.one_pass_metrics(
            (p["gold_tag_id"], p["predicted_tag_id"]) for p in predictions)
        checks.check_report("evaluation", self.passes[-1].report, expected)
        return _quality(expected, predictions)

    def _check_traces(self, predictions: list[dict], traces: list[dict],
                      rounds: int) -> int:
        """Top-k and tournament checks of every record; returns the replies."""
        records = self.inputs.records
        if [p["record_id"] for p in predictions] != [r["record_id"] for r in records] \
                or [t["record_id"] for t in traces] != [r["record_id"] for r in records]:
            raise checks.CheckError("expected one prediction and one trace per record")
        tags = self.inputs.tags
        texts = {t.tag_id: t.text for t in tags}
        position_of = {t.tag_id: i for i, t in enumerate(tags)}
        corpus = checks.hash_bag_matrix([t.text for t in tags], checks.EMBED_DIM)
        queries = checks.hash_bag_matrix([r["gen_tag_doc"] for r in records],
                                         checks.EMBED_DIM)
        scores = queries @ corpus.T
        cfg = self.config
        replies = 0
        for row, (record, pred, trace) in enumerate(zip(records, predictions, traces)):
            checks.check_top_k(record["record_id"], trace["candidates"], scores[row],
                               position_of, cfg.top_k,
                               lambda row=row: self._full_ranking(queries[row]))
            replies += checks.check_trace(trace, pred, record["gen_tag_doc"],
                                          record["gold_tag_id"], texts, cfg.top_k,
                                          cfg.group_size, rounds)
        return replies

    def _full_ranking(self, query: np.ndarray) -> list[tuple[str, float]]:
        """The program's own ranking of the whole taxonomy for one query."""
        return [(c.tag_id, c.score) for c in top_k(query, self.index, len(self.index))]

    def _check_sweep(self) -> dict:
        table = self.passes[-1].table
        if any(c.failed for c in table.cells):
            raise checks.CheckError("a sweep cell failed")
        rounds = max(self.wl.sweep_values)
        generator, embedder, ranker, _ = self._backends(NullRecorder())
        result = run_records(self.records, self.corpus, self.index, generator=generator,
                             embedder=embedder, ranker=ranker,
                             config=RerankConfig(seed=self.seed, iterations=rounds),
                             instruction=self.instruction)
        self._close_sessions()
        predictions = [json.loads(jsonl_line(p)) for p in result.predictions]
        traces = [json.loads(jsonl_line(t)) for t in result.traces]
        self._check_traces(predictions, traces, rounds)
        quality = {}
        for cell in table.cells:
            expected = checks.one_pass_metrics(
                (p["gold_tag_id"], checks.prefix_prediction(t, cell.value))
                for p, t in zip(predictions, traces))
            checks.check_report(f"sweep cell iterations={cell.value}",
                                cell.report.to_dict(), expected)
            quality[f"iterations={cell.value}"] = _quality(expected, predictions)
        return quality

    # -- metrics ------------------------------------------------------------

    def end_to_end(self) -> dict:
        plain = [p for p in self.passes if not p.traced]
        records = sum(p.records for p in plain)
        return {
            "records_per_s": _throughput(plain),
            "setup_s": statistics.median(self.setup_seconds),
            "cpu_ms_per_record": 1000.0 * sum(p.cpu_s for p in plain) / records,
            "peak_rss_mb": self.peak_rss_mb,
            "ranker_calls_per_record": sum(p.ranker_calls for p in plain) / records,
        }

    def per_layer(self) -> dict:
        traced = [p for p in self.passes if p.traced]
        plain = [p for p in self.passes if not p.traced]
        setup_spans = self.setup_rec.spans
        spans = self.pass_rec.spans
        by_name: dict[str, list] = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)
        children: dict[int, list] = {}
        for span in spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)

        def setup_median(name):
            return statistics.median(s.seconds for s in setup_spans if s.name == name)

        def mean_ms(name, pool=None):
            xs = [s.seconds for s in (by_name.get(name, []) if pool is None else pool)]
            return 1000.0 * sum(xs) / len(xs) if xs else 0.0

        distinct_records = len(self.records) * len(traced)
        reranks = by_name.get("rerank.rerank_record", [])
        ranker_spans = by_name.get("backends.ranker", [])
        distinct = sum(len({c.key for c in children.get(r.id, [])
                            if c.name == "backends.ranker"}) for r in reranks)
        stub_requests = sum(e["requests"] for p in traced for e in p.stub.values())
        stub_service = sum(e["service_s"] for p in traced for e in p.stub.values())
        chat_service = sum(p.stub.get("chat/completions", {}).get("service_s", 0.0)
                           for p in traced)
        embeds = [s for s in setup_spans + spans if s.name == "backends.embed"]
        record_ms = sorted(1000.0 * x for x in record_seconds(spans))
        cache_requests = sum(p.cache_requests for p in traced)
        return {
            "corpus.load_s": setup_median("corpus.load"),
            "retrieval.build_index_s": setup_median("retrieval.build_index"),
            "retrieval.index_save_s": setup_median("retrieval.index_save"),
            "retrieval.index_load_s": setup_median("retrieval.index_load"),
            "retrieval.top_k_ms": mean_ms("retrieval.top_k"),
            "retrieval.queries_per_record": (len(by_name.get("retrieval.top_k", []))
                                             / distinct_records),
            "backends.embed_calls": (sum(1 for s in setup_spans if s.name == "backends.embed")
                                     / len(self.setup_seconds)
                                     + len(by_name.get("backends.embed", [])) / len(traced)),
            "backends.embed_ms": mean_ms("backends.embed", embeds),
            "backends.ranker_ms": mean_ms("backends.ranker"),
            "backends.remote_requests_per_record": stub_requests / distinct_records,
            "backends.remote_service_ms": (1000.0 * stub_service / stub_requests
                                           if stub_requests else 0.0),
            "backends.client_overhead_ms": (
                1000.0 * (sum(s.seconds for s in ranker_spans) - chat_service)
                / len(ranker_spans) if self.wl.remote else 0.0),
            "backends.cache_get_ms": mean_ms("backends.cache_get"),
            "backends.cache_put_ms": mean_ms("backends.cache_put"),
            "backends.cache_hit_ratio": (sum(p.cache_hits for p in traced) / cache_requests
                                         if cache_requests else 0.0),
            "prompting.build_ms": mean_ms("prompting.build"),
            "prompting.parse_ms": mean_ms("prompting.parse"),
            "sim.oracle_ms": mean_ms("sim.oracle"),
            "rerank.self_ms": 1000.0 * statistics.fmean(
                self_seconds(r, children.get(r.id, [])) for r in reranks),
            "rerank.distinct_prompt_ratio": distinct / len(ranker_spans),
            "pipeline.record_ms": statistics.median(record_ms),
            "pipeline.record_p95_ms": (record_ms[math.ceil(0.95 * len(record_ms)) - 1]
                                       if len(record_ms) >= P95_MIN_SAMPLES else 0.0),
            "pipeline.write_s": mean_ms("pipeline.write") / 1000.0,
            "evaluation.evaluate_s": mean_ms("evaluation.evaluate") / 1000.0,
            "trace.overhead_ratio": _throughput(plain) / _throughput(traced),
        }

    def write_spans(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for phase, rec in (("setup", self.setup_rec), ("pass", self.pass_rec)):
                for span in rec.spans:
                    fh.write(json.dumps({"phase": phase, **span.to_dict()}) + "\n")


def _throughput(passes: list[PassResult]) -> float:
    return sum(p.records for p in passes) / sum(p.wall_s for p in passes)


def _read_jsonl(path: Path) -> list[dict]:
    with path.open("r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _quality(metrics: dict, predictions: list[dict]) -> dict:
    out = {k: metrics[k] for k in ("hits_at_1", "macro_p", "macro_r", "macro_f1",
                                   "n_classes")}
    out["gold_in_top_k"] = sum(p["gold_in_top_k"] for p in predictions) / len(predictions)
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def execute(workload: Workload, seed: int, seconds: float, traced: bool,
            work_dir: Path) -> Run:
    """Set up, run passes until ``seconds`` of passes, set up again; then check.

    The passes follow one set-up, as the records of one ``tagrec run``
    process do.  Set-ups between passes would leave glibc's allocator in a
    different state before each pass: ``top_k``'s float64 copy of the index
    is then either reused or mapped and faulted in afresh on every query,
    passes differ by a third in speed, and their mix changes from run to
    run.  After one set-up it is mapped afresh on every query, as in a new
    ``tagrec run`` process.  The further set-ups only time ``setup_s``.  A
    failed check sets ``run.error``.
    """
    with contextlib.ExitStack() as stack:
        url = stack.enter_context(stub_service(STUB_LATENCY_MS)) if workload.remote else None
        run = Run(workload, seed, work_dir, url)
        run.setup(traced)
        spent = 0.0
        while spent < seconds or (traced and len(run.passes) % len(TRACE_ORDER)):
            spent += run.run_pass(
                traced and TRACE_ORDER[len(run.passes) % len(TRACE_ORDER)]).wall_s
        while len(run.setup_seconds) < SETUPS:
            run.setup(traced)
        run.peak_rss_mb = peak_rss_mb()
        try:
            run.quality = run.check()
        except checks.CheckError as exc:
            run.error = str(exc)
    return run
