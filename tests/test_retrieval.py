from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tagrec.backends import HashEmbedder
from tagrec.errors import BackendError
from tagrec.retrieval import IndexScan, VectorIndex, _top_positions, \
    build_index, cosine_similarity, retrieve, top_k

from conftest import make_records


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
    """The per-query scan IndexScan replaces: float64 copy, norms, full sort.

    Returns (position, score.hex()) pairs, so scores compare bit for bit.
    """
    q = np.asarray(query, dtype=np.float64)
    mat = vectors.astype(np.float64)
    norms = np.linalg.norm(mat, axis=1)
    scores = (mat @ q) / (norms * np.linalg.norm(q))
    order = np.argsort(-scores, kind="stable")[:k]
    return [(int(pos), float(scores[pos]).hex()) for pos in order]


class TestCosine:
    def test_orthogonal(self):
        assert cosine_similarity([1, 0], [0, 1]) == 0.0

    def test_colinear_scale_invariant(self):
        assert cosine_similarity([2, 2], [1, 1]) == pytest.approx(1.0)

    def test_analytic_value(self):
        assert cosine_similarity([1, 0], [1, 1]) == pytest.approx(
            1 / np.sqrt(2), abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            cosine_similarity([1, 0], [1, 0, 0])

    def test_zero_vector(self):
        with pytest.raises(ValueError, match="zero"):
            cosine_similarity([0, 0], [1, 1])

    @given(
        a=st.lists(st.floats(-100, 100), min_size=3, max_size=3),
        b=st.lists(st.floats(-100, 100), min_size=3, max_size=3),
        c=st.floats(0.01, 50),
    )
    def test_symmetry_and_positive_scaling(self, a, b, c):
        if np.linalg.norm(a) < 1e-6 or np.linalg.norm(b) < 1e-6:
            return
        ab = cosine_similarity(a, b)
        assert ab == pytest.approx(cosine_similarity(b, a), abs=1e-9)
        scaled = cosine_similarity([c * x for x in a], b)
        assert scaled == pytest.approx(ab, abs=1e-9)
        assert -1.0 - 1e-9 <= ab <= 1.0 + 1e-9


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


class TestIndexScan:
    @settings(max_examples=150, deadline=None)
    @given(case=tie_heavy)
    def test_same_ids_and_score_bits_as_per_query_scan(self, case):
        pool, picks, query = case
        vectors = np.array([pool[i % len(pool)] for i in picks], dtype=np.float32)
        index = VectorIndex(tag_ids=tuple(f"t{i}" for i in range(len(picks))),
                            vectors=vectors)
        scan = IndexScan(index)
        for k in range(1, len(index) + 1):
            expected = [(index.tag_ids[pos], bits)
                        for pos, bits in per_query_top_k(query, vectors, k)]
            for source in (scan, index):
                got = [(c.tag_id, c.score.hex()) for c in top_k(query, source, k)]
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

    def test_norms_by_block_equal_norms_of_whole_matrix(self):
        rng = np.random.default_rng(5)
        n = 2 * IndexScan.NORM_BLOCK_ROWS + 37
        index = random_index(rng, n, 24)
        scan = IndexScan(index)
        whole = np.linalg.norm(index.vectors.astype(np.float64), axis=1)
        assert scan.norms.tobytes() == whole.tobytes()
        query = rng.normal(size=24)
        got = [(c.tag_id, c.score.hex()) for c in top_k(query, scan, 50)]
        assert got == [(index.tag_ids[pos], bits)
                       for pos, bits in per_query_top_k(query, index.vectors, 50)]

    def test_zero_vector_reported_by_the_first_query(self):
        vectors = np.array([[1, 0], [0, 0], [0, 1]], dtype=np.float32)
        index = VectorIndex(tag_ids=("a", "empty", "c"), vectors=vectors)
        scan = IndexScan(index)
        for source in (scan, index):
            with pytest.raises(ValueError,
                               match="^index entry 'empty' has a zero vector$"):
                top_k([1.0, 1.0], source, 1)
        # A zero query is reported before a zero row.
        with pytest.raises(ValueError, match="zero query vector"):
            top_k([0.0, 0.0], scan, 1)


class TestRetrieve:
    def test_self_similar_doc_ranks_first(self, ten_tag_corpus):
        embedder = HashEmbedder(dim=64)
        index = build_index(ten_tag_corpus, embedder)
        record = make_records(1)[0]
        hits = retrieve(record, ten_tag_corpus.text_of("Revenues"), index,
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

    def test_taxonomy_scale_top_10(self):
        # full-taxonomy-sized index: 2794 entries, still an instant scan
        rng = np.random.default_rng(2794)
        index = random_index(rng, 2794, 64)
        query = rng.normal(size=64)
        hits = top_k(query, index, 10)
        assert len(hits) == 10
        assert [h.retrieval_rank for h in hits] == list(range(1, 11))
        assert [h.tag_id for h in hits] == brute_force_top_k(query, index, 10)
