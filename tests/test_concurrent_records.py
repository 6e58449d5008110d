"""Records worked on concurrently, twice the ranker's cap on calls in flight.

Every test compares with, or constrains, the one-record-at-a-time run: the
predictions and traces of a run must not depend on how many records are in
flight or on the order their replies arrive in.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import re
import sys
import threading
import time
from dataclasses import replace

import pytest

from tagrec.backends import BackendRequest, CachingRanker, \
    FileBackedGenerator, HashEmbedder, RankRequest, RateLimiter, ResponseCache
from tagrec.errors import BackendError, ConfigError
from tagrec.pipeline import MAX_CONCURRENCY, jsonl_line, run_records
from tagrec.rerank import Ordering, RerankConfig, VoteMode
from tagrec.retrieval import build_index

from conftest import make_records


def _digest(text: str) -> bytes:
    return hashlib.sha256(text.encode("utf-8")).digest()


class ScrambledRanker:
    """Replies are a function of the prompt alone; later calls return sooner.

    Each call sleeps less than the call started before it, so with several
    calls in flight the replies complete out of the order they were sent.
    About one prompt in seven gets an unparseable reply.  A ranker given a
    ``max_in_flight`` holds it with a rate limiter, as an http ranker does;
    ``full`` is set once that many calls are in flight.  The in-flight
    bookkeeping lets tests check the cap and repeats.
    """

    backend_id = "scrambled"

    def __init__(self, max_in_flight=None, delay_ms=3.0):
        self.limiter = contextlib.nullcontext()
        if max_in_flight is not None:
            self.max_in_flight = max_in_flight
            self.limiter = RateLimiter(max_in_flight)
        self.full = threading.Event()
        self.delay_ms = delay_ms
        self._lock = threading.Lock()
        self._started = itertools.count()
        self.active: list[str] = []
        self.peak = 0
        self.overlapping_repeats = 0
        self.completed: list[int] = []
        self.calls = 0

    def request_of(self, request):
        return BackendRequest(kind="rank", payload=request.prompt,
                              model_id=self.backend_id)

    def rank_listwise(self, request):
        with self.limiter:
            with self._lock:
                n = next(self._started)
                self.calls += 1
                if request.prompt in self.active:
                    self.overlapping_repeats += 1
                self.active.append(request.prompt)
                self.peak = max(self.peak, len(self.active))
                if len(self.active) == getattr(self, "max_in_flight", None):
                    self.full.set()
            time.sleep(max(0.0, self.delay_ms - (n % 4)) / 1000.0)
            with self._lock:
                self.active.remove(request.prompt)
                self.completed.append(n)
        digest = _digest(request.prompt)
        if digest[0] % 7 == 0:
            return "no ranking today"
        order = sorted(range(len(request.items)),
                       key=lambda i: _digest(f"{request.prompt}\x1f{i}"))
        return " > ".join(f"[{i + 1}]" for i in order)


class ChangingRanker:
    """A different reply on every call, as a sampling model gives."""

    backend_id = "changing"
    max_in_flight = 4

    def __init__(self):
        self.calls = 0
        self._replies = itertools.cycle(["[1] > [2]", "[2] > [1]", "[3] > [1]"])

    def request_of(self, request):
        return BackendRequest(kind="rank", payload=request.prompt,
                              model_id=self.backend_id)

    def rank_listwise(self, request):
        self.calls += 1
        time.sleep(0.002)
        return next(self._replies)


@pytest.fixture
def parts(ten_tag_corpus):
    embedder = HashEmbedder(dim=64)
    return ten_tag_corpus, build_index(ten_tag_corpus, embedder), embedder


def _run(parts, ranker, *, concurrency=None, records=None,
         config=RerankConfig(seed=7, group_size=3)):
    corpus, index, embedder = parts
    return run_records(records or make_records(5), corpus, index,
                       generator=FileBackedGenerator(), embedder=embedder,
                       ranker=ranker, config=config,
                       instruction="Describe the tagged concept.",
                       concurrency=concurrency)


def _lines(result) -> tuple[list[str], list[str]]:
    return ([jsonl_line(p) for p in result.predictions],
            [jsonl_line(t) for t in result.traces])


def _run_threads() -> list[threading.Thread]:
    """The threads a run starts: its record workers."""
    return [t for t in threading.enumerate()
            if t.name.startswith("tagrec-record")]


def _replies(result) -> int:
    """Ranker calls a run made: one per reply its traces hold."""
    return sum(reply is not None for trace in result.traces
               for it in trace["iterations"] for reply in it["replies"])


def _same_text_records(n: int):
    """``n`` records whose generated documents are all the same text."""
    first = make_records(1)[0]
    return [replace(first, record_id=f"d{i:03d}") for i in range(n)]


class TestOutputsDoNotDependOnScheduling:
    @pytest.mark.parametrize("ordering", list(Ordering))
    @pytest.mark.parametrize("vote_mode", list(VoteMode))
    @pytest.mark.parametrize("group_size", range(1, 11))
    def test_serial_and_concurrent_runs_are_identical(
            self, parts, ordering, vote_mode, group_size):
        config = RerankConfig(group_size=group_size, ordering=ordering,
                              vote_mode=vote_mode, seed=11)
        serial = _run(parts, ScrambledRanker(delay_ms=1.0), config=config)
        ranker = ScrambledRanker(max_in_flight=4, delay_ms=1.0)
        concurrent = _run(parts, ranker, config=config)
        assert _lines(concurrent) == _lines(serial)
        assert ranker.calls == _replies(serial)

    def test_replies_do_complete_out_of_order(self, parts):
        ranker = ScrambledRanker(max_in_flight=4, delay_ms=6.0)
        _run(parts, ranker)
        assert ranker.completed != sorted(ranker.completed)


class TestCap:
    @pytest.mark.parametrize("n_records", [4, 10])
    def test_twice_the_ranker_cap_of_records_are_in_flight(self, parts,
                                                           n_records):
        """The default: ``min(2n, len(records))`` records at once, and the
        ranker's own limiter holds its calls in flight at ``n``."""
        corpus, index, _ = parts
        in_flight = min(2 * 3, n_records)
        embedder = WatchedEmbedder(together=in_flight)
        ranker = ScrambledRanker(max_in_flight=3)
        result = _run((corpus, index, embedder), ranker,
                      records=make_records(n_records))
        assert result.failed == []
        assert len(set(embedder.threads)) == in_flight
        assert ranker.peak == 3

    def test_records_past_the_cap_fill_its_slots(self, parts):
        """While the first ``n`` records wait for their query embeddings,
        the next ``n`` keep all ``n`` of the ranker's slots busy."""
        corpus, index, _ = parts
        ranker = ScrambledRanker(max_in_flight=3, delay_ms=6.0)
        embedder = WatchedEmbedder(held_until=ranker.full, held=3)
        records = make_records(10)
        results = []
        worker = threading.Thread(target=lambda: results.append(_run(
            (corpus, index, embedder), ranker, records=records)), daemon=True)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert embedder.released == [True] * 3
        assert _lines(results[0]) == _lines(_run(parts, ScrambledRanker(),
                                                 records=records))
        assert _run_threads() == []

    def test_a_cap_past_the_limiters_bound_runs_the_most_records(self, parts):
        class WideRanker(ChangingRanker):
            max_in_flight = 100

        corpus, index, _ = parts
        embedder = WatchedEmbedder(together=10)
        result = _run((corpus, index, embedder), WideRanker(),
                      records=make_records(10))
        assert len(result.predictions) == 10
        assert len(set(embedder.threads)) == 10

    @pytest.mark.parametrize("concurrency", [0, MAX_CONCURRENCY + 1, 10**6,
                                             1e300, 2.5])
    def test_a_concurrency_out_of_range_starts_no_thread(self, parts,
                                                         concurrency):
        """A float is refused as no integer before its range is looked at."""
        ranker = ScrambledRanker(max_in_flight=4)
        rule = (f"from 1 to {MAX_CONCURRENCY}" if type(concurrency) is int
                else "an integer")
        with pytest.raises(ConfigError, match="^" + re.escape(
                f"concurrency must be {rule}, got {concurrency!r}") + "$"):
            _run(parts, ranker, concurrency=concurrency)
        assert ranker.calls == 0
        assert _run_threads() == []

    @pytest.mark.parametrize("concurrency", [1, 2])
    def test_an_explicit_concurrency_wins(self, parts, concurrency):
        ranker = ScrambledRanker(max_in_flight=4)
        _run(parts, ranker, concurrency=concurrency)
        assert ranker.peak == concurrency

    def test_a_ranker_without_a_cap_gets_one_record_at_a_time(self, parts):
        ranker = ScrambledRanker()
        _run(parts, ranker)
        assert ranker.peak == 1
        assert ranker.completed == sorted(ranker.completed)

    def test_calls_of_one_record_are_never_in_flight_together(self, parts):
        class PerRecord(ScrambledRanker):
            def __init__(self):
                super().__init__(max_in_flight=4)
                self.records_in_flight: list[str] = []
                self.overlaps = 0

            def rank_listwise(self, request):
                with self._lock:
                    self.overlaps += request.record_id in self.records_in_flight
                    self.records_in_flight.append(request.record_id)
                try:
                    return super().rank_listwise(request)
                finally:
                    with self._lock:
                        self.records_in_flight.remove(request.record_id)

        ranker = PerRecord()
        _run(parts, ranker)
        assert ranker.peak > 1 and ranker.overlaps == 0


class TestRepeatsBehindACache:
    def test_identical_prompts_are_never_in_flight_together(self, parts,
                                                            tmp_path):
        # one group of all ten, presented in retrieval order, and the same
        # text in every record: every call of the run sends the same prompt
        inner = ScrambledRanker(max_in_flight=4)
        cached = CachingRanker(inner, ResponseCache(tmp_path / "cache"))
        result = _run(parts, cached, records=_same_text_records(6),
                      config=RerankConfig(group_size=10, seed=1))
        assert inner.overlapping_repeats == 0
        assert inner.calls == 1
        assert cached.counter.snapshot() == {"requests": 48, "hits": 47,
                                             "misses": 1}
        assert len(result.predictions) == 6

    def test_nondeterministic_ranker_raises_no_conflict(self, parts, tmp_path):
        inner = ChangingRanker()
        cached = CachingRanker(inner, ResponseCache(tmp_path / "cache"))
        result = _run(parts, cached, records=_same_text_records(6),
                      config=RerankConfig(group_size=10, seed=1))
        assert result.failed == []
        replies = {reply for trace in result.traces
                   for it in trace["iterations"] for reply in it["replies"]}
        assert replies == {"[1] > [2]"}
        assert inner.calls == 1

    def test_turns_are_dropped_once_their_calls_return(self, tmp_path):
        cached = CachingRanker(ScrambledRanker(max_in_flight=8),
                               ResponseCache(tmp_path / "cache"))
        request = RankRequest(prompt="rank these", items=(("a", "x"), ("b", "y")))
        threads = [threading.Thread(target=cached.rank_listwise,
                                    args=(request,), daemon=True)
                   for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert cached.inner.calls == 1
        assert cached._in_flight == set()


class WatchedEmbedder(HashEmbedder):
    """Notes the thread of every query; the first ``together`` queries
    wait until all of them are in flight.  With ``held_until``, the first
    ``held`` queries instead wait up to 10 s for that event, and
    ``released`` notes whether it came."""

    def __init__(self, dim=64, together=1, held_until=None, held=0):
        super().__init__(dim=dim)
        self.threads: list[str] = []
        self.barrier = threading.Barrier(together, timeout=10)
        self.held_until = held_until
        self.held = held
        self.released: list[bool] = []
        self._lock = threading.Lock()

    def embed_batch(self, texts):
        with self._lock:
            self.threads.append(threading.current_thread().name)
            first = len(self.threads)
        if self.held_until is not None:
            if first <= self.held:
                self.released.append(self.held_until.wait(timeout=10))
        elif first <= self.barrier.parties:
            self.barrier.wait()
        return super().embed_batch(texts)


class TestRecordThreads:
    def test_the_workers_first_queries_are_embedded_at_once(self, parts):
        """Each worker retrieves on its own thread, so an http embedder
        gets the six workers' first queries together."""
        corpus, index, _ = parts
        embedder = WatchedEmbedder(together=6)
        records = make_records(6)
        result = _run((corpus, index, embedder),
                      ScrambledRanker(max_in_flight=3), records=records)
        assert result.failed == []
        assert len(embedder.threads) == 6
        assert all(name.startswith("tagrec-record") for name in embedder.threads)
        assert _lines(result) == _lines(_run(parts, ScrambledRanker(),
                                             records=records))
        assert _run_threads() == []

    @pytest.mark.parametrize("concurrency", [1, 3])
    def test_a_width_mismatch_asks_each_worker_once_and_joins_every_thread(
            self, parts, concurrency):
        corpus, index, _ = parts
        embedder = WatchedEmbedder(dim=32)
        with pytest.raises(ConfigError, match="32-dimensional"):
            _run((corpus, index, embedder), ScrambledRanker(),
                 concurrency=concurrency, records=make_records(8))
        assert 1 <= len(embedder.threads) <= concurrency
        assert _run_threads() == []


class TestFailures:
    def test_the_first_failed_call_of_a_record_is_its_reason(self, parts):
        class FailingRanker(ScrambledRanker):
            def rank_listwise(self, request):
                reply = super().rank_listwise(request)
                if request.record_id == "r002":
                    with self._lock:
                        self.failures = getattr(self, "failures", 0) + 1
                        n = self.failures
                    raise BackendError(f"call {n} failed for {request.record_id}")
                return reply

        ranker = FailingRanker(max_in_flight=4)
        result = _run(parts, ranker)
        assert result.failed == [{"record_id": "r002",
                                  "reason": "call 1 failed for r002"}]
        assert ranker.failures == 1  # the record stopped at its first failure
        assert [p["record_id"] for p in result.predictions] == \
            ["r000", "r001", "r003", "r004"]
        assert _run_threads() == []

    def test_no_worker_thread_outlives_the_run(self, parts):
        _run(parts, ScrambledRanker(max_in_flight=4))
        assert _run_threads() == []

    def test_stress_more_workers_than_cores(self, parts):
        """Eight record workers, switching often."""
        records = make_records(10)
        reference = _run(parts, ScrambledRanker(delay_ms=1.0), records=records)
        ranker = ScrambledRanker(max_in_flight=8, delay_ms=1.0)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=lambda: results.append(
                _run(parts, ranker, records=records)), daemon=True)
            worker.start()
            worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert 1 < ranker.peak <= 8
        assert ranker.calls == _replies(reference)
        assert _lines(results[0]) == _lines(reference)
        assert _run_threads() == []
