from __future__ import annotations

import errno
import os
import struct
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tagrec.backends import CachingEmbedder, HashEmbedder, HttpEmbedder, \
    RateLimiter, ResponseCache, RetryPolicy
from tagrec import retrieval
from tagrec.errors import BackendError
from tagrec.retrieval import VectorIndex, _top_positions, build_index, \
    retrieve, top_k

from conftest import FakeEmbeddingService, embed_threads, make_corpus, \
    make_records, v1_bytes


def brute_force_top_k(query, index, k):
    """Independent oracle: per-entry cosine, sort by (-score, position)."""
    q = np.asarray(query, dtype=np.float64)
    scored = []
    for pos in range(len(index)):
        v = np.asarray(index.vectors[pos], dtype=np.float64)
        score = float(np.dot(v, q) / (np.linalg.norm(v) * np.linalg.norm(q)))
        scored.append((pos, score))
    scored.sort(key=lambda t: (-t[1], t[0]))
    return [index.tag_ids[pos] for pos, _ in scored[:k]]


def per_query_top_k(query, vectors, k):
    """The scan ``top_k`` stands for: a row-major float64 copy, norms, full sort.

    Scores come from numpy's own loops (``einsum``), never BLAS, so their
    bits do not depend on the CPU's BLAS kernel.  Returns (position,
    score.hex()) pairs, so scores compare bit for bit.
    """
    q = np.asarray(query, dtype=np.float64)
    mat = np.ascontiguousarray(vectors, dtype=np.float64)
    norms = np.linalg.norm(mat, axis=1)
    scores = (np.einsum("ij,j->i", mat, q)
              / (norms * np.sqrt(np.einsum("i,i->", q, q))))
    order = np.argsort(-scores, kind="stable")[:k]
    return [(int(pos), float(scores[pos]).hex()) for pos in order]


class _DimDriftEmbedder:
    backend_id = "drift"

    def __init__(self):
        self.calls = 0

    def embed_batch(self, texts):
        self.calls += 1
        dim = 8 if self.calls == 1 else 16
        rng = np.random.default_rng(self.calls)
        return rng.normal(size=(len(texts), dim))


class TestIndex:
    def test_build_preserves_corpus_order(self, ten_tag_corpus):
        index = build_index(ten_tag_corpus, HashEmbedder(dim=32))
        assert len(index) == 10
        assert index.tag_ids == tuple(d.tag_id for d in ten_tag_corpus.docs)
        assert index.dim == 32

    def test_dim_drift_rejected(self, ten_tag_corpus):
        with pytest.raises(BackendError, match="dimension changed"):
            build_index(ten_tag_corpus, _DimDriftEmbedder(), batch_size=4)

    def test_persist_reload_bit_exact(self, tmp_path, ten_tag_corpus):
        index = build_index(ten_tag_corpus, HashEmbedder(dim=16))
        path = tmp_path / "tags.idx"
        index.save(path)
        reloaded = VectorIndex.load(path)
        assert reloaded.tag_ids == index.tag_ids
        assert reloaded.vectors.dtype == np.float32
        assert np.array_equal(reloaded.vectors, index.vectors)
        # save again: identical bytes
        path2 = tmp_path / "tags2.idx"
        reloaded.save(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_the_file_holds_the_vectors_column_by_column(self, tmp_path):
        rows = np.arange(1, 7, dtype=np.float32).reshape(2, 3)
        index = VectorIndex(tag_ids=("a", "bc"), vectors=rows)
        path = tmp_path / "tags.idx"
        index.save(path)
        data = path.read_bytes()
        assert data[:8] == b"TRIX" + struct.pack("<I", 3)
        assert data[-24:] == struct.pack("<6f", 1, 4, 2, 5, 3, 6)
        for made in (index, VectorIndex.load(path),
                     build_index(make_corpus(), HashEmbedder(dim=8))):
            assert made.vectors.flags.f_contiguous
            assert made.vectors.dtype == np.float32
        assert np.array_equal(VectorIndex.load(path).vectors, rows)
        path.write_bytes(data[:4] + struct.pack("<I", 2) + data[8:])
        with pytest.raises(ValueError, match="not a version-3 index file; "
                                             "rebuild with embed-index$"):
            VectorIndex.load(path)

    def test_truncated_file_rejected(self, tmp_path, ten_tag_corpus):
        index = build_index(ten_tag_corpus, HashEmbedder(dim=8))
        path = tmp_path / "tags.idx"
        index.save(path)
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(ValueError, match="truncated"):
            VectorIndex.load(path)

    def test_every_truncation_and_trailing_bytes_rejected(self, tmp_path):
        index = VectorIndex(tag_ids=("a", "bc"),
                            vectors=np.arange(6, dtype=np.float32).reshape(2, 3))
        path = tmp_path / "tags.idx"
        index.save(path)
        data = path.read_bytes()
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(ValueError, match="truncated"):
                VectorIndex.load(path)
        path.write_bytes(data + b"\0")
        with pytest.raises(ValueError, match="trailing bytes after 2 entries"):
            VectorIndex.load(path)

    def test_build_matches_one_cast_of_all_batches(self, ten_tag_corpus):
        embedder = HashEmbedder(dim=16)
        index = build_index(ten_tag_corpus, embedder, batch_size=3)
        whole = embedder.embed_batch([d.text for d in ten_tag_corpus.docs])
        assert index.vectors.dtype == np.float32
        assert np.array_equal(index.vectors, whole.astype(np.float32))

    def test_unicode_tag_ids_round_trip(self, tmp_path):
        index = VectorIndex(tag_ids=("净利润", "收入"),
                            vectors=np.eye(2, dtype=np.float32))
        path = tmp_path / "u.idx"
        index.save(path)
        assert VectorIndex.load(path).tag_ids == ("净利润", "收入")

    def test_a_failed_save_leaves_the_old_index_and_no_temp_file(
            self, tmp_path, ten_tag_corpus, monkeypatch):
        """The disk fills up after the header is written."""
        old = build_index(ten_tag_corpus, HashEmbedder(dim=8))
        path = tmp_path / "tags.idx"
        old.save(path)
        before = path.read_bytes()

        class DiskFull:
            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.writes += 1
                if self.writes > 1:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.fh.write(data)

        monkeypatch.setattr(retrieval, "open",
                            lambda *args: DiskFull(open(*args)), raising=False)
        new = build_index(ten_tag_corpus, HashEmbedder(dim=16))
        with pytest.raises(OSError, match="No space left"):
            new.save(path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert VectorIndex.load(path).dim == 8
        assert list(tmp_path.glob("*.tmp")) == []


TAG_IDS = st.text(st.one_of(st.sampled_from("\n\0é净"), st.characters(
    blacklist_categories=("Cs",))), min_size=1, max_size=12)


@st.composite
def indexes(draw):
    dim, count = draw(st.integers(1, 300)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vectors = rng.normal(size=(count, dim)).astype(np.float32)
    vectors[rng.random(size=vectors.shape) < 0.2] = -0.0
    vectors[~vectors.any(axis=1), 0] = 1.0  # an index holds no zero row
    return VectorIndex(
        tuple(draw(st.lists(TAG_IDS, min_size=count, max_size=count,
                            unique=True))), vectors,
        embedder_id=draw(st.none() | st.text(max_size=20)),
        corpus_sha256=draw(st.none() | st.text("0123456789abcdef",
                                                min_size=64, max_size=64)))


@settings(derandomize=True, max_examples=15, deadline=None)
@given(indexes())
def test_the_index_file_round_trips_and_every_damage_is_named(index):
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp, "a.idx"), Path(tmp, "b.idx")
        index.save(path)
        loaded = VectorIndex.load(path)
        assert (loaded.tag_ids, loaded.embedder_id, loaded.corpus_sha256) == \
            (index.tag_ids, index.embedder_id, index.corpus_sha256)
        assert loaded.vectors.dtype == np.float32
        assert np.array_equal(loaded.vectors.view(np.uint32),
                              index.vectors.view(np.uint32))
        loaded.save(again)
        data = path.read_bytes()
        assert again.read_bytes() == data

        again.write_bytes(data + b"\0")
        with pytest.raises(ValueError, match=f"trailing bytes after "
                                             f"{len(index)} entries$"):
            VectorIndex.load(again)
        errors = set()
        for cut in range(len(data) - 1, -1, -1):  # every proper prefix
            os.truncate(again, cut)
            try:
                VectorIndex.load(again)
            except ValueError as exc:
                errors.add(str(exc))
            else:
                errors.add(f"{cut} bytes load")
        assert errors == {f"{again}: truncated index file"}

        for field in (8, 12):  # dim, then count
            huge = struct.pack("<I", 2**32 - 1)
            again.write_bytes(data[:field] + huge + data[field + 4:])
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="truncated index file$"):
                    VectorIndex.load(again)
                assert tracemalloc.get_traced_memory()[1] < 2**20
            finally:
                tracemalloc.stop()

        again.write_bytes(v1_bytes(index))
        with pytest.raises(ValueError, match="rebuild with embed-index$"):
            VectorIndex.load(again)


def http_embedder(service, cap=3):
    return HttpEmbedder("e", "http://api.test/v1", session=service,
                        limiter=RateLimiter(max_in_flight=cap),
                        retry=RetryPolicy(max_attempts=3, base_delay=0.0,
                                          max_delay=0.0))


class OneAtATime:
    """An embedder that offers ``embed_batch`` alone: the sequential build."""

    def __init__(self, inner):
        self.backend_id = inner.backend_id
        self.embed_batch = inner.embed_batch


def index_bytes(index, path) -> bytes:
    index.save(path)
    return path.read_bytes()


class TestOverlappedBuild:
    """Batches of 2 tags: five requests, at most three in flight."""

    def test_index_is_bit_identical_to_a_sequential_build(self, tmp_path,
                                                           ten_tag_corpus):
        service = FakeEmbeddingService(gate=(3, 5))
        overlapped = build_index(ten_tag_corpus, http_embedder(service),
                                 batch_size=2)
        sequential = build_index(
            ten_tag_corpus, OneAtATime(http_embedder(FakeEmbeddingService())),
            batch_size=2)
        assert index_bytes(overlapped, tmp_path / "a.idx") == \
            index_bytes(sequential, tmp_path / "b.idx")
        assert len(service.sent) == 5
        assert service.peak == 3
        assert service.active == 0
        assert embed_threads() == []

    def test_cached_build_is_bit_identical_and_a_warm_one_sends_nothing(
            self, tmp_path, ten_tag_corpus):
        """The file of a cached build is that of an uncached one: the index
        names the inner embedder.  Its vectors are the hash embedder's,
        bit for bit, though its file names another embedder."""
        hashed = build_index(ten_tag_corpus, HashEmbedder(dim=8), batch_size=2)
        uncached = build_index(ten_tag_corpus,
                               http_embedder(FakeEmbeddingService()),
                               batch_size=2)
        for sent in (5, 0):
            service = FakeEmbeddingService()
            embedder = CachingEmbedder(http_embedder(service),
                                       ResponseCache(tmp_path / "cache"))
            index = build_index(ten_tag_corpus, embedder, batch_size=2)
            assert index_bytes(index, tmp_path / "a.idx") == \
                index_bytes(uncached, tmp_path / "b.idx")
            assert index.embedder_id == "http-embedder:e"
            assert index.tag_ids == hashed.tag_ids
            assert np.array_equal(index.vectors.view(np.uint32),
                                  hashed.vectors.view(np.uint32))
            assert len(service.sent) == sent
        assert embed_threads() == []

    def test_hash_embedder_starts_no_thread(self, ten_tag_corpus, monkeypatch):
        started = []
        start = threading.Thread.start

        def recording_start(thread):
            started.append(thread)
            start(thread)
        monkeypatch.setattr(threading.Thread, "start", recording_start)
        build_index(ten_tag_corpus, HashEmbedder(dim=8), batch_size=2)
        assert started == []

    def test_a_hash_build_matches_one_made_batch_by_batch(
            self, tmp_path, ten_tag_corpus, monkeypatch):
        class BatchByBatch:  # no embed_batches, so one embed_batch per batch
            def __init__(self, inner):
                self.backend_id = inner.backend_id
                self.embed_batch = inner.embed_batch

        embedder = HashEmbedder(dim=8)
        calls = []
        embed_batches = embedder.embed_batches
        monkeypatch.setattr(embedder, "embed_batches",
                            lambda batches: calls.append(1) or embed_batches(batches))
        index = build_index(ten_tag_corpus, embedder, batch_size=3)
        want = build_index(ten_tag_corpus, BatchByBatch(HashEmbedder(dim=8)),
                           batch_size=3)
        assert calls == [1]
        assert index_bytes(index, tmp_path / "a.idx") == \
            index_bytes(want, tmp_path / "b.idx")

    def test_a_failing_batch_names_its_first_tag(self, ten_tag_corpus):
        texts = [doc.text for doc in ten_tag_corpus.docs]
        service = FakeEmbeddingService(script={texts[6]: [503] * 3})
        with pytest.raises(BackendError, match="embedding failed for batch "
                           "starting at tag 'InventoryNet': .*giving up"):
            build_index(ten_tag_corpus, http_embedder(service), batch_size=2)
        assert embed_threads() == []
        assert service.active == 0

    def test_a_dimension_change_stops_the_build_and_its_threads(
            self, ten_tag_corpus):
        texts = [doc.text for doc in ten_tag_corpus.docs]
        service = FakeEmbeddingService(script={texts[2]: ["wide"]})
        with pytest.raises(BackendError, match="dimension changed across "
                           "batches: 8 then 16 .*'OperatingExpenses'") as raised:
            build_index(ten_tag_corpus, http_embedder(service), batch_size=2)
        # Closed by build_index itself: its frame, alive in the traceback,
        # would keep the embedder's generator and threads alive otherwise.
        assert raised.tb is not None
        assert embed_threads() == []
        assert service.active == 0

    def test_a_corrupt_cache_entry_names_its_own_batch(self, tmp_path,
                                                       ten_tag_corpus):
        cache = ResponseCache(tmp_path / "cache")
        embedder = CachingEmbedder(http_embedder(FakeEmbeddingService()), cache)
        texts = [doc.text for doc in ten_tag_corpus.docs]
        key = embedder.inner.request_of(texts[8:10]).cache_key()
        embedder.embed_batch(texts[8:10])
        next((tmp_path / "cache").glob(f"*/*/{key}.json")).write_text(
            "{", encoding="utf-8")
        with pytest.raises(BackendError, match="batch starting at tag "
                                               "'InterestExpense'"):
            build_index(ten_tag_corpus, embedder, batch_size=2)
        assert embed_threads() == []
        assert embedder._in_flight == set()


def random_index(rng, n, dim):
    vectors = rng.normal(size=(n, dim)).astype(np.float32)
    return VectorIndex(tag_ids=tuple(f"t{i:04d}" for i in range(n)),
                       vectors=vectors)


class TestTopK:
    def test_colinear_entry_wins(self):
        vectors = np.array([[1, 1], [1, 0], [0, 1]], dtype=np.float32)
        index = VectorIndex(tag_ids=("a", "b", "c"), vectors=vectors)
        [hit] = top_k([2.0, 2.0], index, 1)
        assert hit.tag_id == "a"
        assert hit.score == pytest.approx(1.0)
        assert hit.retrieval_rank == 1

    def test_tie_broken_by_corpus_order(self):
        vectors = np.array([[0, 1], [1, 0], [1, 0]], dtype=np.float32)
        index = VectorIndex(tag_ids=("far", "first", "second"),
                            vectors=vectors)
        hits = top_k([1.0, 0.0], index, 2)
        assert [h.tag_id for h in hits] == ["first", "second"]

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(2, 50))
            dim = int(rng.integers(2, 16))
            k = int(rng.integers(1, n + 1))
            index = random_index(rng, n, dim)
            query = rng.normal(size=dim)
            got = [c.tag_id for c in top_k(query, index, k)]
            assert got == brute_force_top_k(query, index, k)

    def test_ranks_and_scores_well_formed(self):
        rng = np.random.default_rng(3)
        index = random_index(rng, 20, 6)
        hits = top_k(rng.normal(size=6), index, 10)
        assert [h.retrieval_rank for h in hits] == list(range(1, 11))
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)

    def test_full_size_is_total_ordering(self):
        rng = np.random.default_rng(11)
        index = random_index(rng, 15, 4)
        query = rng.normal(size=4)
        hits = top_k(query, index, len(index))
        assert sorted(h.tag_id for h in hits) == sorted(index.tag_ids)
        assert [h.tag_id for h in hits] == brute_force_top_k(
            query, index, len(index))

    def test_k_out_of_range(self):
        rng = np.random.default_rng(0)
        index = random_index(rng, 5, 4)
        with pytest.raises(ValueError):
            top_k(rng.normal(size=4), index, 6)
        with pytest.raises(ValueError):
            top_k(rng.normal(size=4), index, 0)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(0)
        index = random_index(rng, 5, 4)
        with pytest.raises(ValueError, match="mismatch"):
            top_k(rng.normal(size=5), index, 2)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_brute_force_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 200))
        dim = int(rng.integers(2, 32))
        k = int(rng.integers(1, n + 1))
        index = random_index(rng, n, dim)
        query = rng.normal(size=dim)
        got = [c.tag_id for c in top_k(query, index, k)]
        assert got == brute_force_top_k(query, index, k)


# Small-integer rows drawn from a few distinct ones: many duplicated rows
# and many equal scores, so k often falls inside a run of ties.
tie_heavy = st.integers(1, 4).flatmap(lambda dim: st.tuples(
    st.lists(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).filter(any),
             min_size=1, max_size=4),
    st.lists(st.integers(0, 3), min_size=1, max_size=30),
    st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).filter(any),
))


class TestColumnScan:
    @settings(max_examples=150, deadline=None)
    @given(case=tie_heavy)
    def test_same_ids_and_score_bits_as_per_query_scan(self, case):
        pool, picks, query = case
        vectors = np.array([pool[i % len(pool)] for i in picks], dtype=np.float32)
        index = VectorIndex(tag_ids=tuple(f"t{i}" for i in range(len(picks))),
                            vectors=vectors)
        for k in range(1, len(index) + 1):
            expected = [(index.tag_ids[pos], bits)
                        for pos, bits in per_query_top_k(query, vectors, k)]
            got = [(c.tag_id, c.score.hex()) for c in top_k(query, index, k)]
            assert got == expected

    @settings(max_examples=300, deadline=None)
    @given(scores=st.lists(
        st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                  st.sampled_from([0.0, -0.0, 0.5, float("nan")])),
        min_size=1, max_size=40))
    def test_partial_selection_equals_stable_argsort(self, scores):
        scores = np.array(scores, dtype=np.float64)
        full = np.argsort(-scores, kind="stable")
        for k in range(1, scores.size + 1):
            assert _top_positions(scores, k).tolist() == full[:k].tolist()

    @pytest.mark.parametrize("dim", [1, 7, 8, 9, 37, 256])
    def test_score_bits_follow_einsum_on_a_seeded_sweep(self, dim):
        """Single-row indexes, dense and ~5%-dense queries, and negative
        entries, so that some skipped products are -0.0.  A sum in any
        other order than einsum's differs from it in some last bit here."""
        rng = np.random.default_rng(dim)
        for case in range(200):
            n = 1 if case % 3 == 0 else int(rng.integers(2, 30))
            vectors = rng.normal(size=(n, dim)).astype(np.float32)
            index = VectorIndex(tag_ids=tuple(f"t{i}" for i in range(n)),
                                vectors=vectors)
            density = 1.0 if case % 2 else 0.05
            query = rng.normal(size=dim) * (rng.random(dim) < density)
            query[rng.integers(dim)] = rng.normal()
            expected = [(index.tag_ids[pos], bits)
                        for pos, bits in per_query_top_k(query, vectors, n)]
            got = [(c.tag_id, c.score.hex()) for c in top_k(query, index, n)]
            assert got == expected

    def test_a_strided_query_scores_as_its_contiguous_copy(self):
        rng = np.random.default_rng(37)
        index = random_index(rng, 500, 37)
        queries = rng.normal(size=(37, 5))
        for column in range(queries.shape[1]):
            strided, copied = ([(c.tag_id, c.score.hex())
                                for c in top_k(query, index, len(index))]
                               for query in (queries[:, column],
                                             queries[:, column].copy()))
            assert strided == copied

    def test_products_are_rounded_in_float64_whatever_the_scalar_type(self):
        """numpy 1.x multiplies a float32 array by a float64 scalar in
        float32; a float32 scalar does so on every version.  The products
        must still be those of the widened column."""
        rng = np.random.default_rng(11)
        index = random_index(rng, 300, 37)
        query = rng.normal(size=37).astype(np.float32)
        assert (retrieval._dots(index, query).tobytes()
                == retrieval._dots(index, query.astype(np.float64)).tobytes())

    def test_norms_by_block_equal_norms_of_whole_matrix(self):
        rng = np.random.default_rng(5)
        n = 2 * VectorIndex.BLOCK_ROWS + 37
        index = random_index(rng, n, 24)
        whole = np.linalg.norm(np.ascontiguousarray(index.vectors,
                                                    dtype=np.float64), axis=1)
        assert index.norms.tobytes() == whole.tobytes()
        query = rng.normal(size=24)
        got = [(c.tag_id, c.score.hex()) for c in top_k(query, index, 50)]
        assert got == [(index.tag_ids[pos], bits)
                       for pos, bits in per_query_top_k(query, index.vectors, 50)]

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_a_zero_row_is_refused_where_the_index_is_made(self, zero):
        vectors = np.array([[1, 0], [zero, zero], [0, 1]], dtype=np.float32)
        with pytest.raises(ValueError,
                           match="^index entry 'empty' has a zero vector$"):
            VectorIndex(tag_ids=("a", "empty", "c"), vectors=vectors)
        index = VectorIndex(tag_ids=("a", "c"), vectors=vectors[[0, 2]])
        with pytest.raises(ValueError, match="zero query vector"):
            top_k([0.0, 0.0], index, 1)

    def test_a_zero_row_fails_the_build_naming_its_tag(self, ten_tag_corpus):
        class ZeroForNetIncome:
            backend_id = "zero"

            def embed_batch(self, texts):
                return np.array([[0.0, 0.0] if "profit or loss" in text
                                 else [1.0, 2.0] for text in texts])
        with pytest.raises(BackendError, match="^embedding failed: index entry "
                                               "'NetIncomeLoss' has a zero vector$"):
            build_index(ten_tag_corpus, ZeroForNetIncome())

    def test_a_query_after_the_first_makes_no_float64_copy(self):
        """A 4,000 x 64 float64 copy of the index would take 2.05 MB."""
        index = random_index(np.random.default_rng(2), 4000, 64)
        query = np.random.default_rng(3).normal(size=64)
        top_k(query, index, 5)  # computes and keeps the norms
        tracemalloc.start()
        try:
            top_k(query, index, 5)
            assert tracemalloc.get_traced_memory()[1] < 2**19
        finally:
            tracemalloc.stop()


class TestRetrieve:
    def test_self_similar_doc_ranks_first(self, ten_tag_corpus):
        embedder = HashEmbedder(dim=64)
        index = build_index(ten_tag_corpus, embedder)
        record = make_records(1)[0]
        hits = retrieve(record, ten_tag_corpus.texts()["Revenues"], index,
                        embedder, k=1)
        assert hits[0].tag_id == "Revenues"
        assert hits[0].score == pytest.approx(1.0)

    def test_k_candidates_returned(self, ten_tag_corpus):
        embedder = HashEmbedder(dim=64)
        index = build_index(ten_tag_corpus, embedder)
        record = make_records(1)[0]
        hits = retrieve(record, "some generated text", index, embedder, k=10)
        assert len(hits) == 10

    def test_empty_gen_doc_rejected(self, ten_tag_corpus):
        embedder = HashEmbedder(dim=64)
        index = build_index(ten_tag_corpus, embedder)
        record = make_records(1)[0]
        with pytest.raises(ValueError, match="gen_doc"):
            retrieve(record, "", index, embedder, k=2)

    @pytest.mark.parametrize("reply,match", [
        (RuntimeError("service down"), "embedding failed for {what}: service down"),
        (np.ones((2, 8)), r"returned shape \(2, 8\) for {n} texts"),
        (np.ones(8), r"returned shape \(8,\) for {n} texts"),
    ])
    def test_bad_embedder_output_is_a_backend_error(self, ten_tag_corpus,
                                                    reply, match):
        class BadEmbedder:
            backend_id = "bad"

            def embed_batch(self, texts):
                if isinstance(reply, Exception):
                    raise reply
                return reply

        with pytest.raises(BackendError, match=match.format(
                what="batch starting at tag 'Revenues'", n=10)):
            build_index(ten_tag_corpus, BadEmbedder())
        index = build_index(ten_tag_corpus, HashEmbedder(dim=8))
        record = make_records(1)[0]
        with pytest.raises(BackendError, match=match.format(
                what=f"record '{record.record_id}'", n=1)):
            retrieve(record, "some generated text", index, BadEmbedder(), k=2)

    def test_taxonomy_scale_top_10(self):
        # full-taxonomy-sized index: 2794 entries, still an instant scan
        rng = np.random.default_rng(2794)
        index = random_index(rng, 2794, 64)
        query = rng.normal(size=64)
        hits = top_k(query, index, 10)
        assert len(hits) == 10
        assert [h.retrieval_rank for h in hits] == list(range(1, 11))
        assert [h.tag_id for h in hits] == brute_force_top_k(query, index, 10)
