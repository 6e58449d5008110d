from __future__ import annotations

import numpy as np
import pytest

from tagrec.backends import BackendRequest, CacheEntry, CachingRanker, \
    FileBackedGenerator, GenerateRequest, HashEmbedder, HttpChatGenerator, \
    HttpChatRanker, HttpEmbedder, RankRequest, ResponseCache, RetryPolicy, \
    cache_get, cache_put, embed_batch, generate, rank_listwise
from tagrec.corpus import NumeralRecord
from tagrec.errors import BackendError, CacheConflictError, \
    MissingGenerationError
from tagrec.prompting import assemble_generation_input
from tagrec.retrieval import cosine_similarity


class TestBackendRequest:
    def test_canonical_is_stable(self):
        a = BackendRequest(kind="rank", payload="p", model_id="m",
                           params=(("temperature", "0.0"),))
        b = BackendRequest(kind="rank", payload="p", model_id="m",
                           params=(("temperature", "0.0"),))
        assert a.canonical() == b.canonical()
        assert a.cache_key() == b.cache_key()
        assert len(a.cache_key()) == 64  # sha256 hex

    def test_any_field_changes_the_key(self):
        base = BackendRequest(kind="rank", payload="p", model_id="m")
        assert base.cache_key() != BackendRequest(
            kind="generate", payload="p", model_id="m").cache_key()
        assert base.cache_key() != BackendRequest(
            kind="rank", payload="q", model_id="m").cache_key()
        assert base.cache_key() != BackendRequest(
            kind="rank", payload="p", model_id="m2").cache_key()


class TestResponseCache:
    def test_put_then_get_round_trips(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        entry = CacheEntry(key="ab" * 32, response="hello", created_at=1.0,
                           backend_id="test")
        cache_put(cache, entry)
        got = cache_get(cache, entry.key)
        assert got is not None and got.response == "hello"

    def test_get_before_put_absent(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        assert cache.get("cd" * 32) is None

    def test_conflicting_content_rejected(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        key = "ef" * 32
        cache.put(CacheEntry(key=key, response="one", created_at=1.0,
                             backend_id="t"))
        # identical content re-put is a no-op
        cache.put(CacheEntry(key=key, response="one", created_at=9.0,
                             backend_id="t"))
        with pytest.raises(CacheConflictError):
            cache.put(CacheEntry(key=key, response="two", created_at=1.0,
                                 backend_id="t"))

    def test_two_level_layout_and_stats(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        key = BackendRequest(kind="rank", payload="x", model_id="m").cache_key()
        cache.put(CacheEntry(key=key, response="r", created_at=0.0,
                             backend_id="t"))
        expected = tmp_path / "cache" / key[:2] / key[2:4] / f"{key}.json"
        assert expected.exists()
        stats = cache.stats()
        assert stats["entries"] == 1 and stats["bytes"] > 0

    def test_clear(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        for i in range(3):
            key = BackendRequest(kind="rank", payload=str(i),
                                 model_id="m").cache_key()
            cache.put(CacheEntry(key=key, response="r", created_at=0.0,
                                 backend_id="t"))
        assert cache.clear() == 3
        assert cache.stats()["entries"] == 0

    def test_concurrent_writers_of_same_key(self, tmp_path):
        import threading

        cache = ResponseCache(tmp_path / "cache")
        key = "aa" * 32
        errors = []

        def writer():
            try:
                cache.put(CacheEntry(key=key, response="same bytes",
                                     created_at=0.0, backend_id="t"))
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert cache.get(key).response == "same bytes"
        assert cache.stats()["entries"] == 1

    def test_concurrent_writers_of_different_content(self, tmp_path):
        import sys
        import threading

        cache = ResponseCache(tmp_path / "cache")
        key = "bb" * 32
        start = threading.Barrier(8, timeout=10)
        conflicts = []

        def writer(i):
            start.wait()
            try:
                cache.put(CacheEntry(key=key, response=f"reply {i}",
                                     created_at=0.0, backend_id="t"))
            except CacheConflictError as exc:
                conflicts.append(exc)

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(conflicts) == 7
        assert cache.get(key).response in {f"reply {i}" for i in range(8)}
        assert cache.stats()["entries"] == 1
        assert list((tmp_path / "cache").rglob("*.tmp")) == []

    def test_put_of_a_new_key_reads_nothing(self, tmp_path, monkeypatch):
        cache = ResponseCache(tmp_path / "cache")
        reads = []
        monkeypatch.setattr(cache, "get", lambda key: reads.append(key))
        cache.put(CacheEntry(key="cc" * 32, response="r", created_at=0.0,
                             backend_id="t"))
        assert reads == []


class TestHashEmbedder:
    def test_deterministic(self):
        emb = HashEmbedder(dim=64)
        a = emb.embed_batch(["the same text"])
        b = emb.embed_batch(["the same text"])
        assert np.array_equal(a, b)

    def test_dim_respected(self):
        vecs = HashEmbedder(dim=64).embed_batch(["one", "two three"])
        assert vecs.shape == (2, 64)

    def test_self_cosine_is_one(self):
        emb = HashEmbedder(dim=32)
        [v] = emb.embed_batch(["revenue from contracts"])
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_token_order_invariant(self):
        emb = HashEmbedder(dim=32)
        a, b = emb.embed_batch(["alpha beta gamma", "gamma alpha beta"])
        assert np.array_equal(a, b)

    def test_disjoint_tokens_are_orthogonal(self):
        # Derived oracle: texts hit disjoint buckets, hence cosine 0.
        emb = HashEmbedder(dim=512)
        first, second = "alpha beta", "gamma delta"
        buckets_a = {emb._bucket(t) for t in first.split()}
        buckets_b = {emb._bucket(t) for t in second.split()}
        assert not buckets_a & buckets_b  # collision-free inputs
        va, vb = emb.embed_batch([first, second])
        assert cosine_similarity(va, vb) == pytest.approx(0.0, abs=1e-12)

    def test_whitespace_only_rejected(self):
        with pytest.raises(BackendError):
            HashEmbedder(dim=8).embed_batch(["   "])


def _record(gen_doc):
    return NumeralRecord(record_id="r1", report_text="total 5 .",
                         numeral="5", question="q", gen_tag_doc=gen_doc)


class TestFileBackedGenerator:
    def test_pass_through(self):
        record = _record("GD")
        inp = assemble_generation_input("P", record)
        assert generate(inp, FileBackedGenerator(), record) == "GD"

    def test_missing_generation(self):
        record = _record(None)
        inp = assemble_generation_input("P", record)
        with pytest.raises(MissingGenerationError, match="r1"):
            generate(inp, FileBackedGenerator(), record)


class TestEmbedBatchContract:
    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            embed_batch([], HashEmbedder(dim=8))
        with pytest.raises(ValueError):
            embed_batch(["ok", ""], HashEmbedder(dim=8))

    def test_order_preserved(self):
        emb = HashEmbedder(dim=16)
        batch = embed_batch(["one", "two"], emb)
        assert np.array_equal(batch[0], emb.embed_batch(["one"])[0])
        assert np.array_equal(batch[1], emb.embed_batch(["two"])[0])


# --------------------------------------------------------------------------
# HTTP backends against a scripted fake session


class FakeResponse:
    def __init__(self, status_code, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = text

    def json(self):
        if self._payload is None:
            raise ValueError("no json")
        return self._payload


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers})
        result = self.responses.pop(0)
        if isinstance(result, Exception):
            raise result
        return result


def chat_payload(content):
    return {"choices": [{"message": {"role": "assistant",
                                     "content": content}}]}


FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0, factor=1.0,
                         max_delay=0.0)


class TestHttpRanker:
    def test_happy_path_posts_chat_body(self):
        session = FakeSession([FakeResponse(200, chat_payload("[2] > [1]"))])
        ranker = HttpChatRanker("m1", "http://api.test/v1", session=session,
                                retry=FAST_RETRY)
        reply = rank_listwise(RankRequest(prompt="rank these"), ranker)
        assert reply == "[2] > [1]"
        [call] = session.calls
        assert call["url"] == "http://api.test/v1/chat/completions"
        assert call["json"]["model"] == "m1"
        assert call["json"]["temperature"] == 0.0
        assert call["json"]["messages"] == [
            {"role": "user", "content": "rank these"}]

    def test_system_message_prepended(self):
        session = FakeSession([FakeResponse(200, chat_payload("[1]"))])
        ranker = HttpChatRanker("m1", "http://api.test/v1", system="be terse",
                                session=session, retry=FAST_RETRY)
        ranker.rank_listwise(RankRequest(prompt="p"))
        messages = session.calls[0]["json"]["messages"]
        assert messages[0] == {"role": "system", "content": "be terse"}

    def test_transient_statuses_retry_then_succeed(self):
        session = FakeSession([
            FakeResponse(500),
            FakeResponse(429),
            FakeResponse(200, chat_payload("[1] > [2]")),
        ])
        sleeps = []
        ranker = HttpChatRanker(
            "m1", "http://api.test/v1", session=session,
            retry=RetryPolicy(max_attempts=4, base_delay=0.25, factor=2.0,
                              max_delay=8.0),
            sleep=sleeps.append,
        )
        assert ranker.rank_listwise(RankRequest(prompt="p")) == "[1] > [2]"
        assert len(session.calls) == 3
        assert sleeps == [0.25, 0.5]  # exponential backoff

    def test_exhausted_retries(self):
        session = FakeSession([FakeResponse(503)] * 3)
        ranker = HttpChatRanker("m1", "http://api.test/v1", session=session,
                                retry=FAST_RETRY, sleep=lambda _: None)
        with pytest.raises(BackendError, match="giving up"):
            ranker.rank_listwise(RankRequest(prompt="p"))

    def test_auth_failure_not_retried(self):
        session = FakeSession([FakeResponse(401)])
        ranker = HttpChatRanker("m1", "http://api.test/v1", session=session,
                                retry=FAST_RETRY)
        with pytest.raises(BackendError, match="authentication"):
            ranker.rank_listwise(RankRequest(prompt="p"))
        assert len(session.calls) == 1

    def test_api_key_header_from_env(self, monkeypatch):
        monkeypatch.setenv("TAGREC_RANKER_API_KEY", "sk-test")
        session = FakeSession([FakeResponse(200, chat_payload("[1]"))])
        ranker = HttpChatRanker("m1", "http://api.test/v1", session=session,
                                retry=FAST_RETRY)
        ranker.rank_listwise(RankRequest(prompt="p"))
        assert session.calls[0]["headers"]["Authorization"] == "Bearer sk-test"

    def test_base_url_env_override(self, monkeypatch):
        monkeypatch.setenv("TAGREC_RANKER_BASE_URL", "http://other.test/v2")
        session = FakeSession([FakeResponse(200, chat_payload("[1]"))])
        ranker = HttpChatRanker("m1", "http://api.test/v1", session=session,
                                retry=FAST_RETRY)
        ranker.rank_listwise(RankRequest(prompt="p"))
        assert session.calls[0]["url"].startswith("http://other.test/v2")

    def test_malformed_response(self):
        session = FakeSession([FakeResponse(200, {"choices": []})])
        ranker = HttpChatRanker("m1", "http://api.test/v1", session=session,
                                retry=FAST_RETRY)
        with pytest.raises(BackendError, match="malformed"):
            ranker.rank_listwise(RankRequest(prompt="p"))


class TestHttpGenerator:
    def test_happy_path(self):
        session = FakeSession([FakeResponse(200, chat_payload("a tag doc"))])
        gen = HttpChatGenerator("g1", "http://api.test/v1", session=session,
                                retry=FAST_RETRY)
        out = gen.generate(GenerateRequest(record_id="r", text="input"))
        assert out == "a tag doc"
        assert session.calls[0]["json"]["messages"][-1]["content"] == "input"


class TestHttpEmbedder:
    def test_vectors_in_input_order(self):
        payload = {"data": [{"embedding": [1.0, 0.0]},
                            {"embedding": [0.0, 1.0]}]}
        session = FakeSession([FakeResponse(200, payload)])
        emb = HttpEmbedder("e1", "http://api.test/v1", session=session,
                           retry=FAST_RETRY)
        vecs = emb.embed_batch(["a", "b"])
        assert vecs.shape == (2, 2)
        assert vecs[0].tolist() == [1.0, 0.0]
        body = session.calls[0]["json"]
        assert body == {"model": "e1", "input": ["a", "b"]}

    def test_count_mismatch_rejected(self):
        payload = {"data": [{"embedding": [1.0, 0.0]}]}
        session = FakeSession([FakeResponse(200, payload)])
        emb = HttpEmbedder("e1", "http://api.test/v1", session=session,
                           retry=FAST_RETRY)
        with pytest.raises(BackendError, match="vectors"):
            emb.embed_batch(["a", "b"])


class CountingRanker:
    """Stands in for a remote ranker; counts transport-level calls."""

    backend_id = "counting-ranker"

    def __init__(self):
        self.calls = 0

    def request_of(self, request):
        return BackendRequest(kind="rank", payload=request.prompt,
                              model_id="counting")

    def rank_listwise(self, request):
        self.calls += 1
        return "[1] > [2]"


class CountingGenerator:
    backend_id = "counting-generator"

    def __init__(self):
        self.calls = 0

    def request_of(self, request):
        return BackendRequest(kind="generate", payload=request.text,
                              model_id="counting")

    def generate(self, request):
        self.calls += 1
        return f"generated for {request.record_id}"


class TestCachingGenerator:
    def test_cached_response_identical_and_no_backend_call(self, tmp_path):
        from tagrec.backends import CachingGenerator

        cache = ResponseCache(tmp_path / "cache")
        first_inner = CountingGenerator()
        first = CachingGenerator(first_inner, cache)
        req = GenerateRequest(record_id="r1", text="assembled input")
        text = first.generate(req)
        assert first_inner.calls == 1

        second_inner = CountingGenerator()
        second = CachingGenerator(second_inner, cache)
        assert second.generate(req) == text
        assert second_inner.calls == 0


class TestRateLimiter:
    def test_enforces_minimum_interval(self):
        from tagrec.backends import RateLimiter
        import time

        limiter = RateLimiter(max_in_flight=2, min_interval=0.02)
        start = time.monotonic()
        for _ in range(3):
            with limiter:
                pass
        # three acquisitions, two enforced gaps
        assert time.monotonic() - start >= 0.04

    def test_semaphore_bounds_concurrency(self):
        import threading
        from tagrec.backends import RateLimiter

        limiter = RateLimiter(max_in_flight=2)
        active = []
        peak = []
        lock = threading.Lock()

        def work():
            with limiter:
                with lock:
                    active.append(1)
                    peak.append(len(active))
                import time
                time.sleep(0.01)
                with lock:
                    active.pop()

        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert max(peak) <= 2


class TestCachingRanker:
    def test_miss_then_hit(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        inner = CountingRanker()
        cached = CachingRanker(inner, cache)
        req = RankRequest(prompt="the prompt")
        assert cached.rank_listwise(req) == "[1] > [2]"
        assert cached.rank_listwise(req) == "[1] > [2]"
        assert inner.calls == 1
        snap = cached.counter.snapshot()
        assert snap == {"requests": 2, "hits": 1, "misses": 1}

    def test_warm_cache_needs_no_backend(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        CachingRanker(CountingRanker(), cache).rank_listwise(
            RankRequest(prompt="p"))
        fresh_inner = CountingRanker()
        cached = CachingRanker(fresh_inner, cache)
        assert cached.rank_listwise(RankRequest(prompt="p")) == "[1] > [2]"
        assert fresh_inner.calls == 0
