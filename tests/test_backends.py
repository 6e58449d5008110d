from __future__ import annotations

import json
import os
import random
import re
import sys
import threading

import numpy as np
import pytest
import requests

from tagrec.backends import BackendRequest, CacheEntry, CachingEmbedder, \
    CachingRanker, FileBackedGenerator, GenerateRequest, HashEmbedder, \
    HttpChatGenerator, HttpChatRanker, HttpEmbedder, RankRequest, \
    RateLimiter, ResponseCache, RetryPolicy, generate
from tagrec.corpus import NumeralRecord
from tagrec.errors import BackendError, CacheConflictError, \
    MissingGenerationError
from tagrec.prompting import assemble_generation_input
from tagrec.sim import OracleKind, OracleRanker, OracleSpec

from conftest import FakeEmbeddingService, embed_threads


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
        cache.put(entry)
        got = cache.get(entry.key)
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

    def test_writers_racing_to_make_one_directory(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        keys = [f"abcd{i:060x}" for i in range(8)]  # one directory, 8 entries
        start = threading.Barrier(8, timeout=10)
        errors = []

        def writer(key):
            start.wait()
            try:
                cache.put(CacheEntry(key=key, response=key, created_at=0.0,
                                     backend_id="t"))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(k,)) for k in keys]
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
        assert errors == []
        assert [cache.get(k).response for k in keys] == keys
        assert sorted(p.name for p in (tmp_path / "cache" / "ab" / "cd").iterdir()) \
            == sorted(f"{k}.json" for k in keys)

    def test_temp_file_is_private_and_beside_the_entry(self, tmp_path,
                                                       monkeypatch):
        cache = ResponseCache(tmp_path / "cache")
        key = "dd" * 32
        linked = []
        link = os.link

        def recording_link(src, dst):
            linked.append((src, os.stat(src).st_mode & 0o777))
            link(src, dst)
        monkeypatch.setattr(os, "link", recording_link)
        cache.put(CacheEntry(key=key, response="r", created_at=0.0,
                             backend_id="t"))
        [(tmp, mode)] = linked
        assert re.fullmatch(rf".*/cache/dd/dd/{key}\.[0-9a-f]{{16}}\.tmp", tmp)
        assert mode == 0o600  # as tempfile.mkstemp made it
        assert not os.path.exists(tmp)

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
        assert float(v @ v) == pytest.approx(1.0)  # a unit vector

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
        assert float(va @ vb) == pytest.approx(0.0, abs=1e-12)

    def test_whitespace_only_rejected(self):
        with pytest.raises(BackendError):
            HashEmbedder(dim=8).embed_batch(["   "])


def counting_buckets(emb):
    """Count the tokens ``emb`` hashes, by wrapping its ``_bucket``."""
    hashed = []
    bucket = emb._bucket
    emb._bucket = lambda token: hashed.append(token) or bucket(token)
    return hashed


class SmallMemoEmbedder(HashEmbedder):
    MEMO_TOKENS = 4


VOCABULARY = [f"tok{i}" for i in range(12)]


def random_batches(seed, n_batches, max_tokens=6):
    rng = np.random.default_rng(seed)
    return [[" ".join(rng.choice(VOCABULARY, int(rng.integers(1, max_tokens + 1))))
             for _ in range(int(rng.integers(1, 4)))]
            for _ in range(n_batches)]


class TestHashEmbedderMemo:
    def test_each_distinct_token_is_hashed_once_per_embedder(self):
        emb = HashEmbedder(dim=16)
        hashed = counting_buckets(emb)
        emb.embed_batch(["a b a", "b A a"])
        assert sorted(hashed) == ["a", "b"]
        emb.embed_batch(["a c", "c b c"])
        emb.embed_batch(["b", "a"])
        assert sorted(hashed) == ["a", "b", "c"]

        fresh = HashEmbedder(dim=16)
        fresh_hashed = counting_buckets(fresh)
        fresh.embed_batch(["b", "a"])
        assert sorted(fresh_hashed) == ["a", "b"]  # a new embedder starts cold

    def test_a_one_text_batch_leaves_the_memo_alone(self):
        emb = HashEmbedder(dim=16)
        hashed = counting_buckets(emb)
        emb.embed_batch(["a b", "c"])
        memo = dict(emb._memo)
        got = emb.embed_batch(["a d d"])
        assert emb._memo == memo
        assert hashed[3:] == ["a", "d", "d"]  # hashed afresh, token by token
        want = HashEmbedder(dim=16).embed_batch(["a d d", "x"])[:1]
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_memo_stays_within_its_cap_and_vectors_across_a_clear(self):
        emb = SmallMemoEmbedder(dim=8)
        hashed = counting_buckets(emb)
        for batch in random_batches(seed=5, n_batches=60):
            got = emb.embed_batch(batch)
            want = HashEmbedder(dim=8).embed_batch(batch)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert len(emb._memo) <= SmallMemoEmbedder.MEMO_TOKENS
        assert len(hashed) > len(set(hashed))  # the memo was cleared

    def test_a_batch_larger_than_the_memo_is_hashed_in_full(self):
        emb = SmallMemoEmbedder(dim=8)
        emb.embed_batch(["tok1 tok2"])
        batch = [" ".join(VOCABULARY[:7]), "tok1 tok9"]
        got = emb.embed_batch(batch)
        want = HashEmbedder(dim=8).embed_batch(batch)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert len(emb._memo) <= SmallMemoEmbedder.MEMO_TOKENS

    def test_threads_sharing_one_embedder_get_the_same_vectors(self):
        import sys
        import threading

        emb = SmallMemoEmbedder(dim=8)
        batches = random_batches(seed=9, n_batches=40)
        want = [HashEmbedder(dim=8).embed_batch(b) for b in batches]
        start = threading.Barrier(6, timeout=10)
        errors = []

        def worker(offset):
            start.wait()
            try:
                for i in range(len(batches)):
                    j = (i + offset) % len(batches)
                    got = emb.embed_batch(batches[j])
                    if not np.array_equal(got.view(np.int64), want[j].view(np.int64)):
                        errors.append(f"batch {j} differs")
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(7 * i,)) for i in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(emb._memo) <= SmallMemoEmbedder.MEMO_TOKENS


def _record(gen_doc):
    return NumeralRecord(record_id="r1", report_text="total 5 .",
                         numeral="5", question="q", gen_tag_doc=gen_doc)


class TestFileBackedGenerator:
    def test_pass_through(self):
        request = assemble_generation_input("P", _record("GD"))
        assert generate(request, FileBackedGenerator()) == "GD"

    def test_missing_generation(self):
        request = assemble_generation_input("P", _record(None))
        with pytest.raises(MissingGenerationError, match="r1"):
            generate(request, FileBackedGenerator())


# --------------------------------------------------------------------------
# HTTP backends against a scripted fake session


class FakeResponse:
    def __init__(self, status_code, payload=None, text="", headers=None):
        self.status_code = status_code
        self._payload = payload
        self.text = text
        if headers is not None:  # without it, a response has no headers at all
            self.headers = headers

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
        reply = ranker.rank_listwise(RankRequest(prompt="rank these"))
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

    def retry_sleeps(self, responses):
        session = FakeSession(responses)
        sleeps = []
        ranker = HttpChatRanker(
            "m1", "http://api.test/v1", session=session,
            retry=RetryPolicy(max_attempts=6, base_delay=0.25, factor=2.0,
                              max_delay=8.0),
            sleep=sleeps.append,
        )
        assert ranker.rank_listwise(RankRequest(prompt="p")) == "[1] > [2]"
        return sleeps

    def test_retry_after_seconds_lengthen_the_wait(self):
        sleeps = self.retry_sleeps([
            FakeResponse(429, headers={"Retry-After": "3"}),
            FakeResponse(503, headers={"Retry-After": " 1 "}),
            FakeResponse(500),
            FakeResponse(429, headers={"Retry-After": "5"}),
            requests.ConnectionError("reset"),
            FakeResponse(200, chat_payload("[1] > [2]")),
        ])
        # max(policy delay, Retry-After), and the policy alone after a reply
        # without one or after no reply at all.
        assert sleeps == [3.0, 1.0, 1.0, 5.0, 4.0]

    def test_retry_after_is_capped_by_the_policy(self):
        sleeps = self.retry_sleeps([
            FakeResponse(429, headers={"Retry-After": "120"}),
            FakeResponse(200, chat_payload("[1] > [2]")),
        ])
        assert sleeps == [8.0]

    def test_shorter_retry_after_keeps_the_backoff(self):
        sleeps = self.retry_sleeps([
            FakeResponse(429, headers={"Retry-After": "0"}),
            FakeResponse(200, chat_payload("[1] > [2]")),
        ])
        assert sleeps == [0.25]

    @pytest.mark.parametrize("value", [
        "Wed, 21 Oct 2015 07:28:00 GMT", "-5", "soon", "1.5", "", "inf",
        "nan", "\u0663",  # an Arabic-Indic digit three
    ])
    def test_unusable_retry_after_is_ignored(self, value):
        sleeps = self.retry_sleeps([
            FakeResponse(503, headers={"Retry-After": value}),
            FakeResponse(200, chat_payload("[1] > [2]")),
        ])
        assert sleeps == [0.25]

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

    @pytest.mark.parametrize("kwargs, message", [
        ({"max_attempts": 0}, "max_attempts"),
        ({"base_delay": -0.5}, "delay"),
        ({"max_delay": -1.0}, "delay"),
        ({"max_delay": float("nan")}, "delay"),
        ({"factor": float("nan")}, "factor"),
    ])
    def test_retry_policy_rejects_no_attempts_and_bad_delays(self, kwargs,
                                                             message):
        # With no attempt, every call would fail without being sent.
        with pytest.raises(ValueError, match=message):
            RetryPolicy(**kwargs)

    @pytest.mark.parametrize("timeout", [0, -1.0, float("nan")])
    def test_timeout_must_be_positive(self, timeout):
        # requests rejects a zero timeout on every call, so no call could
        # succeed; the client refuses it when it is made instead.
        with pytest.raises(ValueError, match="timeout"):
            HttpChatRanker("m1", "http://api.test/v1", session=FakeSession([]),
                           timeout=timeout)


class TestHttpGenerator:
    def test_happy_path(self):
        session = FakeSession([FakeResponse(200, chat_payload("a tag doc"))])
        gen = HttpChatGenerator("g1", "http://api.test/v1", session=session,
                                retry=FAST_RETRY)
        out = gen.generate(GenerateRequest(record_id="r", text="input"))
        assert out == "a tag doc"
        assert session.calls[0]["json"]["messages"][-1]["content"] == "input"


# Keys of backends without a system prompt, as the code before the system
# prompt joined the key computed them: warm caches written then still hit.
PINNED_KEYS = {
    "rank": "2f266a40a3e5a5a8009df3b4a8370ab2faee632a7083ce2dcd3f751267b4836a",
    "generate": "755c54513226f3d5db94e5379ed21e5e28a3228be9f7c737a8e9b6524b76ad99",
    "embed": "cbdc10a5e66da969dfbf56818e5ae817665bc4f1e29dd6b28ee5bd2703baa302",
}


def chat_key(cls, request, model="m1", system=None):
    backend = cls(model, "http://api.test/v1", system=system,
                  session=FakeSession([]))
    return backend.request_of(request).cache_key()


class TestChatCacheKeys:
    @pytest.mark.parametrize("cls,request_", [
        (HttpChatRanker, RankRequest(prompt="rank these")),
        (HttpChatGenerator, GenerateRequest(record_id="r", text="input")),
    ])
    def test_system_prompt_changes_the_key(self, cls, request_):
        keys = {chat_key(cls, request_, system=system)
                for system in (None, "be terse", "be verbose")}
        assert len(keys) == 3
        # An empty system prompt sends no system message.
        assert chat_key(cls, request_, system="") == chat_key(cls, request_)

    def test_keys_without_system_are_unchanged(self):
        assert chat_key(HttpChatRanker, RankRequest(prompt="rank these")) \
            == PINNED_KEYS["rank"]
        assert chat_key(HttpChatGenerator,
                        GenerateRequest(record_id="r", text="input"),
                        model="g1") == PINNED_KEYS["generate"]
        embedder = HttpEmbedder("e1", "http://api.test/v1",
                                session=FakeSession([]))
        assert embedder.request_of(["a", "b"]).cache_key() == PINNED_KEYS["embed"]


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

    def test_cached_batch_is_stored_under_the_embedder_key(self, tmp_path):
        payload = {"data": [{"embedding": [1.0, 0.0]},
                            {"embedding": [0.0, 1.0]}]}
        session = FakeSession([FakeResponse(200, payload)])
        cached = CachingEmbedder(
            HttpEmbedder("e1", "http://api.test/v1", session=session,
                         retry=FAST_RETRY),
            ResponseCache(tmp_path / "cache"))
        first = cached.embed_batch(["a", "b"])
        assert np.array_equal(cached.embed_batch(["a", "b"]), first)
        assert len(session.calls) == 1
        assert cached.cache.get(PINNED_KEYS["embed"]) is not None


class Float32Embedder:
    """An embedder whose float32 vectors do not print as short decimals."""

    backend_id = "float32-embedder"

    def __init__(self):
        self.calls = 0

    def request_of(self, texts):
        return BackendRequest(kind="embed", payload=json.dumps(texts),
                              model_id="float32")

    def embed_batch(self, texts):
        self.calls += 1
        values = [0.1, 1 / 3, -0.0, 1e-40, 3.4e38, -2.5, 7e-8, 0.7]
        return np.array([values[i:] + values[:i] for i in range(len(texts))],
                        dtype=np.float32)


BATCHES = [[f"batch{b} text{i} shared words" for i in range(3)] for b in range(7)]


def capped_embedder(service, cap=3, retry=FAST_RETRY, **kwargs):
    return HttpEmbedder("e1", "http://api.test/v1", session=service, retry=retry,
                        limiter=RateLimiter(max_in_flight=cap), **kwargs)


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.float64
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


def one_at_a_time(batches):
    """Each batch's vectors from a fresh embedder, one call after another."""
    embedder = capped_embedder(FakeEmbeddingService(delays=(0.0,)))
    return [embedder.embed_batch(texts) for texts in batches]


class TestOverlappedBatches:
    """``HttpEmbedder.embed_batches`` against replies that complete out of order."""

    def test_batches_come_back_in_order_with_the_cap_in_flight(self):
        service = FakeEmbeddingService()
        got = list(capped_embedder(service).embed_batches(BATCHES))
        assert_same_bits(got, one_at_a_time(BATCHES))
        assert service.sent == [texts[0] for texts in BATCHES]
        assert service.peak == 3
        assert service.active == 0
        assert embed_threads() == []

    @pytest.mark.parametrize("cap", [1, 2, 8])
    def test_never_more_than_the_cap_in_flight(self, cap):
        service = FakeEmbeddingService()
        got = list(capped_embedder(service, cap=cap).embed_batches(BATCHES))
        assert_same_bits(got, one_at_a_time(BATCHES))
        assert service.peak == min(cap, len(BATCHES))

    def test_a_429_with_retry_after_is_retried(self):
        service = FakeEmbeddingService(script={BATCHES[2][0]: [429]})
        sleeps = []
        embedder = capped_embedder(
            service, retry=RetryPolicy(max_attempts=3, base_delay=0.0,
                                       max_delay=5.0), sleep=sleeps.append)
        got = list(embedder.embed_batches(BATCHES))
        assert_same_bits(got, one_at_a_time(BATCHES))
        assert sleeps == [1.0]
        assert service.sent.count(BATCHES[2][0]) == 2
        assert service.active == 0

    def test_a_transport_error_while_reading_a_body_is_retried(self):
        service = FakeEmbeddingService(script={BATCHES[4][0]: ["read-error"]})
        got = list(capped_embedder(service).embed_batches(BATCHES))
        assert_same_bits(got, one_at_a_time(BATCHES))
        assert service.sent.count(BATCHES[4][0]) == 2
        assert service.active == 0

    def test_read_errors_use_up_the_same_attempts(self):
        service = FakeEmbeddingService(
            script={BATCHES[1][0]: ["read-error", 503, "read-error"]})
        batches = capped_embedder(service).embed_batches(BATCHES)
        next(batches)
        with pytest.raises(BackendError, match="giving up after 3 attempts: "
                                               "connection reset"):
            next(batches)
        assert service.sent.count(BATCHES[1][0]) == 3
        assert embed_threads() == []
        assert service.active == 0

    def test_a_failing_batch_raises_in_its_place(self):
        service = FakeEmbeddingService(script={BATCHES[3][0]: [503] * 3})
        batches = capped_embedder(service).embed_batches(BATCHES)
        assert_same_bits([next(batches) for _ in range(3)],
                         one_at_a_time(BATCHES[:3]))
        with pytest.raises(BackendError, match="giving up after 3 attempts"):
            next(batches)
        assert embed_threads() == []
        assert service.active == 0

    def test_closing_early_joins_the_threads_and_closes_unread_replies(self):
        service = FakeEmbeddingService()
        batches = capped_embedder(service).embed_batches(BATCHES)
        next(batches)
        batches.close()
        assert embed_threads() == []
        assert service.active == 0
        assert len(service.sent) < len(BATCHES)


class TestCachingEmbedderOverlap:
    def cached(self, cache_dir, service):
        return CachingEmbedder(capped_embedder(service), ResponseCache(cache_dir))

    def test_entries_match_one_batch_at_a_time_and_a_warm_cache_sends_nothing(
            self, tmp_path):
        cold = self.cached(tmp_path / "a", FakeEmbeddingService())
        got = list(cold.embed_batches(BATCHES))
        assert_same_bits(got, one_at_a_time(BATCHES))
        sequential = self.cached(tmp_path / "b", FakeEmbeddingService())
        for texts in BATCHES:
            sequential.embed_batch(texts)

        def entries(root):
            return {p.relative_to(root): {**json.loads(p.read_bytes()),
                                          "created_at": 0}
                    for p in root.glob("*/*/*.json")}
        assert entries(tmp_path / "a") == entries(tmp_path / "b")
        assert len(entries(tmp_path / "a")) == len(BATCHES)

        service = FakeEmbeddingService()
        warm = self.cached(tmp_path / "a", service)
        assert_same_bits(list(warm.embed_batches(BATCHES)), got)
        assert service.sent == []
        assert warm.counter.snapshot() == {"requests": 7, "hits": 7, "misses": 0}
        assert embed_threads() == []

    def test_a_half_warm_cache_sends_only_the_misses(self, tmp_path):
        warmer = self.cached(tmp_path / "cache", FakeEmbeddingService())
        for texts in BATCHES[::2]:
            warmer.embed_batch(texts)
        service = FakeEmbeddingService()
        cached = self.cached(tmp_path / "cache", service)
        got = list(cached.embed_batches(BATCHES))
        assert_same_bits(got, one_at_a_time(BATCHES))
        assert service.sent == [texts[0] for texts in BATCHES[1::2]]
        assert cached.counter.snapshot() == {"requests": 7, "hits": 4, "misses": 3}

    def test_a_repeated_batch_is_sent_once(self, tmp_path):
        service = FakeEmbeddingService()
        cached = self.cached(tmp_path / "cache", service)
        batches = [BATCHES[0], BATCHES[1], BATCHES[0], BATCHES[2], BATCHES[1]]
        got = list(cached.embed_batches(batches))
        assert_same_bits(got, one_at_a_time(batches))
        assert sorted(service.sent) == sorted(t[0] for t in BATCHES[:3])

    def test_callers_in_different_orders_take_turns_without_deadlock(
            self, tmp_path):
        service = FakeEmbeddingService(delays=(0.002, 0.0, 0.001))
        cached = self.cached(tmp_path / "cache", service)
        orders = [BATCHES, BATCHES[::-1]]
        orders += [random.Random(seed).sample(BATCHES, len(BATCHES))
                   for seed in (1, 2)]
        results, errors = {}, []

        def caller(i, batches):
            try:
                results[i] = list(cached.embed_batches(batches))
            except Exception as exc:  # reported by the assertions below
                errors.append(exc)

        threads = [threading.Thread(target=caller, args=(i, batches))
                   for i, batches in enumerate(orders)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        for i, batches in enumerate(orders):
            assert_same_bits(results[i], one_at_a_time(batches))
        # Each key was sent once: the other callers waited and hit.
        assert sorted(service.sent) == sorted(t[0] for t in BATCHES)
        assert cached.counter.snapshot()["misses"] == len(BATCHES)
        assert cached._turns == {}
        assert embed_threads() == []

    def test_an_inner_embedder_without_overlap_goes_one_at_a_time(self, tmp_path):
        cached = CachingEmbedder(Float32Embedder(), ResponseCache(tmp_path / "c"))
        got = list(cached.embed_batches([["a"], ["b", "c"]]))
        assert [v.shape for v in got] == [(1, 8), (2, 8)]
        assert cached.inner.calls == 2

    def test_a_one_text_miss_is_sent_by_embed_batch_and_starts_no_thread(
            self, tmp_path, monkeypatch):
        service = FakeEmbeddingService()
        cached = self.cached(tmp_path / "cache", service)
        sent_by = []
        embed_batch = cached.inner.embed_batch
        monkeypatch.setattr(cached.inner, "embed_batch",
                            lambda texts: sent_by.append(texts) or embed_batch(texts))
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread) or start(thread))
        got = cached.embed_batch(["the query text"])
        assert_same_bits([got], one_at_a_time([["the query text"]]))
        assert sent_by == [["the query text"]]
        assert service.sent == ["the query text"]
        assert started == []

    def test_a_warm_build_reads_each_entry_when_its_batch_is_reached(
            self, tmp_path):
        want = list(self.cached(tmp_path / "cache",
                                FakeEmbeddingService()).embed_batches(BATCHES))
        cached = self.cached(tmp_path / "cache", FakeEmbeddingService())
        reads = []
        get = cached.cache.get
        cached.cache.get = lambda key: reads.append(key) or get(key)
        batches = cached.embed_batches(BATCHES)
        got = [next(batches)]
        assert len(reads) == 1
        got += batches
        assert len(reads) == len(BATCHES)
        assert_same_bits(got, want)

    def test_an_entry_cleared_after_the_check_is_embedded_again(self, tmp_path):
        want = list(self.cached(tmp_path / "cache",
                                FakeEmbeddingService()).embed_batches(BATCHES))
        service = FakeEmbeddingService()
        cached = self.cached(tmp_path / "cache", service)
        batches = cached.embed_batches(BATCHES)
        got = [next(batches)]
        cached.cache.clear()  # as ``tagrec cache clear`` from another process
        got += batches
        assert_same_bits(got, want)
        assert service.sent == [texts[0] for texts in BATCHES[1:]]
        assert cached.counter.snapshot() == {"requests": 7, "hits": 1, "misses": 6}
        assert cached.cache.stats()["entries"] == len(BATCHES) - 1
        assert cached._turns == {}


class TestCachingEmbedder:
    def test_a_miss_returns_the_bits_a_hit_reads(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        texts = ["a", "b", "c"]
        missed = CachingEmbedder(Float32Embedder(), cache).embed_batch(texts)
        warm_inner = Float32Embedder()
        hit = CachingEmbedder(warm_inner, cache).embed_batch(texts)
        assert warm_inner.calls == 0
        assert missed.dtype == hit.dtype == np.float64
        assert np.array_equal(missed.view(np.int64), hit.view(np.int64))
        want = Float32Embedder().embed_batch(texts).astype(np.float64)
        assert np.array_equal(missed.view(np.int64), want.view(np.int64))

    def test_embed_batch_gives_its_turn_back_when_it_returns_or_raises(
            self, tmp_path):
        inner = Float32Embedder()
        cached = CachingEmbedder(inner, ResponseCache(tmp_path / "cache"))
        cached.embed_batch(["a"])
        assert cached._turns == {}

        def failing(texts):
            raise BackendError("embedder: down")
        inner.embed_batch = failing
        with pytest.raises(BackendError, match="down"):
            cached.embed_batch(["b"])
        assert cached._turns == {}

    def test_the_entry_holds_the_vectors_json(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        texts = ["a", "b"]
        CachingEmbedder(Float32Embedder(), cache).embed_batch(texts)
        [path] = (tmp_path / "cache").glob("*/*/*.json")
        entry = json.loads(path.read_bytes())
        assert entry["response"] == json.dumps(
            Float32Embedder().embed_batch(texts).tolist())


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


class TestInFlightCap:
    def test_limiter_rejects_a_cap_below_one(self):
        with pytest.raises(ValueError, match="max_in_flight"):
            RateLimiter(max_in_flight=0)

    def test_http_ranker_exposes_its_limiter_cap(self, tmp_path):
        ranker = HttpChatRanker("m", "http://x", session=FakeSession([]),
                                limiter=RateLimiter(max_in_flight=7))
        assert ranker.max_in_flight == 7
        assert HttpChatRanker("m", "http://x",
                              session=FakeSession([])).max_in_flight == 4
        cached = CachingRanker(ranker, ResponseCache(tmp_path / "cache"))
        assert cached.max_in_flight == 7

    def test_http_embedder_exposes_its_limiter_cap(self, tmp_path):
        embedder = HttpEmbedder("e", "http://x", session=FakeSession([]),
                                limiter=RateLimiter(max_in_flight=7))
        assert embedder.max_in_flight == 7
        assert HttpEmbedder("e", "http://x",
                            session=FakeSession([])).max_in_flight == 4
        cached = CachingEmbedder(embedder, ResponseCache(tmp_path / "cache"))
        assert cached.max_in_flight == 7
        assert CachingEmbedder(HashEmbedder(8), ResponseCache(
            tmp_path / "cache")).max_in_flight is None

    def test_in_process_rankers_have_no_cap(self, tmp_path):
        oracle = OracleRanker(OracleSpec(OracleKind.PERFECT))
        assert getattr(oracle, "max_in_flight", None) is None
        cached = CachingRanker(CountingRanker(), ResponseCache(tmp_path / "c"))
        assert cached.max_in_flight is None

    @pytest.mark.parametrize("cap, pool_size", [(4, 10), (10, 10), (32, 32)])
    def test_own_session_pools_a_connection_per_call_in_flight(self, cap,
                                                               pool_size):
        ranker = HttpChatRanker("m", "https://x",
                                limiter=RateLimiter(max_in_flight=cap))
        session = ranker._client.session
        for url in ("http://x/v1", "https://x/v1"):
            assert session.get_adapter(url)._pool_maxsize == pool_size

    def test_callers_session_is_left_alone(self):
        session = requests.Session()
        adapters = dict(session.adapters)
        HttpChatRanker("m", "http://x", session=session,
                       limiter=RateLimiter(max_in_flight=32))
        assert session.adapters == adapters


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
