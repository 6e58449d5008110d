"""Acceptance suite: one test per exit criterion.

Each criterion is checked at its stated tolerance; the conftest terminal
summary prints one PASS/FAIL line per criterion after the run.
"""

from __future__ import annotations

import hashlib
import json
import math
import time

import numpy as np
import pytest

from tagrec.backends import BackendRequest, CachingRanker, \
    FileBackedGenerator, HashEmbedder, ResponseCache
from tagrec.cli import main as cli_main
from tagrec.errors import UnparseableReplyError
from tagrec.evaluation import PredictionSet, macro_metrics
from tagrec.pipeline import jsonl_line, run_records
from tagrec.prompting import parse_ranking_reply
from tagrec.rerank import Ordering, RerankConfig, VoteMode, rerank_record
from tagrec.retrieval import VectorIndex, build_index, top_k
from tagrec.sim import OracleKind, OracleRanker, OracleSpec, \
    recovery_experiment, retrieval_like_weights, synthetic_candidates

from conftest import make_records, write_dataset, write_taxonomy
from test_evaluation import brute_force_macro
from test_retrieval import brute_force_top_k


def test_c01_retrieval_oracle_equivalence():
    """top_k equals an exhaustive brute-force scan on 500 random instances."""
    rng = np.random.default_rng(20240601)
    started = time.monotonic()
    for _ in range(500):
        n = int(rng.integers(2, 201))
        dim = int(rng.integers(4, 65))
        vectors = rng.normal(size=(n, dim)).astype(np.float32)
        # sprinkle exact duplicates so the tie rule is exercised
        if n >= 4 and rng.random() < 0.3:
            vectors[int(rng.integers(1, n))] = vectors[0]
        index = VectorIndex(tag_ids=tuple(f"t{i:04d}" for i in range(n)),
                            vectors=vectors)
        query = rng.normal(size=dim)
        k = int(rng.integers(1, n + 1))
        got = [(c.tag_id, c.retrieval_rank) for c in top_k(query, index, k)]
        expected = [(tag_id, rank) for rank, tag_id
                    in enumerate(brute_force_top_k(query, index, k), start=1)]
        assert got == expected
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"retrieval oracle check took {elapsed:.1f}s"


def _seeded_run(seed, *, iterations=8, group_size=5, top_k_=10,
                vote_mode=VoteMode.PER_GROUP, oracle=None):
    gold_rank = seed % top_k_ + 1
    candidates, texts, gold = synthetic_candidates(top_k_, gold_rank)
    config = RerankConfig(group_size=group_size, iterations=iterations,
                          seed=seed, top_k=top_k_, vote_mode=vote_mode)
    ranker = OracleRanker(oracle or OracleSpec(OracleKind.PERFECT))
    predicted, trace = rerank_record("generated document", candidates, texts,
                                     config, ranker, record_id=f"s{seed}",
                                     gold_tag_id=gold)
    return predicted, trace, gold


def test_c02_vote_conservation():
    """Votes sum to T*ceil(top_k/group_size) per-group, and to T per-round."""
    oracles = [OracleSpec(OracleKind.PERFECT),
               OracleSpec(OracleKind.IDENTITY_ECHO),
               OracleSpec(OracleKind.NOISY, error_rate=0.5, seed=9)]
    group_sizes = [3, 4, 5, 6, 7]
    for seed in range(1000):
        group_size = group_sizes[seed % len(group_sizes)]
        oracle = oracles[seed % len(oracles)]
        _, trace, _ = _seeded_run(seed, group_size=group_size, oracle=oracle)
        assert sum(trace.tally.counts.values()) == 8 * math.ceil(10 / group_size)
        _, trace, _ = _seeded_run(seed, group_size=group_size, oracle=oracle,
                                  vote_mode=VoteMode.PER_ROUND)
        assert sum(trace.tally.counts.values()) == 8


def test_c03_perfect_oracle_gold_votes():
    """With the perfect oracle the gold tag wins its group in all T rounds."""
    for seed in range(1000):
        _, trace, gold = _seeded_run(seed)
        assert trace.tally.counts[gold] == 8


def test_c04_perfect_oracle_recovery():
    """Recovery >= 0.98 at defaults; exactly 1.0 with a single group."""
    started = time.monotonic()
    rate = recovery_experiment(1000, RerankConfig(seed=101),
                               OracleSpec(OracleKind.PERFECT))
    assert rate >= 0.98, f"recovery {rate} below the 0.98 floor"
    single = recovery_experiment(1000,
                                 RerankConfig(seed=101, group_size=10),
                                 OracleSpec(OracleKind.PERFECT))
    assert single == 1.0
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"recovery experiments took {elapsed:.1f}s"


def test_c05_iteration_monotonicity():
    """Perfect-oracle recovery is non-decreasing in T on shared seeds."""
    rates = [
        recovery_experiment(1000, RerankConfig(seed=77, iterations=t),
                            OracleSpec(OracleKind.PERFECT))
        for t in (1, 2, 4, 8)
    ]
    assert rates == sorted(rates), f"not monotone: {rates}"
    assert rates[-1] >= 0.98


def test_c06_ordering_strategy_direction():
    """Order-preserving beats order-shuffled under primacy-biased ranking.

    Gold ranks are drawn from a retrieval-like prior: with a uniform gold
    rank, intra-group order carries no information about gold by symmetry,
    so no ordering strategy could separate (see the decisions record).
    """
    spec = OracleSpec(OracleKind.POSITION_BIASED)
    weights = retrieval_like_weights(10)
    preserved = recovery_experiment(
        1000, RerankConfig(seed=55, ordering=Ordering.ORDER_PRESERVING),
        spec, gold_rank_weights=weights)
    shuffled = recovery_experiment(
        1000, RerankConfig(seed=55, ordering=Ordering.ORDER_SHUFFLED),
        spec, gold_rank_weights=weights)
    assert preserved >= shuffled, (preserved, shuffled)


def test_c07_metrics_oracle_equivalence():
    """macro_metrics matches brute-force confusion enumeration to 1e-12."""
    rng = np.random.default_rng(31337)
    for _ in range(200):
        n_classes = int(rng.integers(1, 11))
        n_items = int(rng.integers(1, 101))
        classes = [f"cls{c}" for c in range(n_classes)]
        items = tuple(
            (f"r{i}", classes[int(rng.integers(n_classes))],
             classes[int(rng.integers(n_classes))])
            for i in range(n_items)
        )
        macro_p, macro_r, macro_f1, per_class = macro_metrics(
            PredictionSet(items=items))
        bf_p, bf_r, bf_f1, bf_stats = brute_force_macro(items)
        assert abs(macro_p - bf_p) <= 1e-12
        assert abs(macro_r - bf_r) <= 1e-12
        assert abs(macro_f1 - bf_f1) <= 1e-12
        for c in per_class:
            assert (c.tp, c.fp, c.fn) == bf_stats[c.tag_id][:3]
    # hand fixture: golds A,A,B predicted A,A,A
    _, _, macro_f1, _ = macro_metrics(PredictionSet(items=(
        ("r1", "A", "A"), ("r2", "A", "A"), ("r3", "B", "A"))))
    assert macro_f1 == 0.4


def _fuzz_strings(count):
    rng = np.random.default_rng(0xF0221)
    alphabet = list("[]0123456789> ,;abcdefXYZ\n\t微秒[]]][")
    for _ in range(count):
        length = int(rng.integers(0, 60))
        yield "".join(alphabet[int(i)]
                      for i in rng.integers(0, len(alphabet), size=length))


def test_c08_parsing_robustness():
    """10k fuzzed replies: a valid permutation or a typed error, no crash."""
    rng = np.random.default_rng(0xBEEF)
    for raw in _fuzz_strings(10_000):
        group_len = int(rng.integers(1, 11))
        try:
            reply = parse_ranking_reply(raw, group_len)
        except UnparseableReplyError:
            continue
        assert sorted(reply.order) == list(range(1, group_len + 1))
    # the three documented repair examples, exactly
    assert parse_ranking_reply("[3] > [1] > [2]", 3).order == (3, 1, 2)
    assert parse_ranking_reply("The ranking: [2] > [2] > [1]", 3).order == \
        (2, 1, 3)
    with pytest.raises(UnparseableReplyError):
        parse_ranking_reply("no brackets here", 3)


class _RemoteLikeRanker:
    """Deterministic stand-in for a remote ranker; counts transport calls."""

    backend_id = "remote-like"

    def __init__(self):
        self.transport_calls = 0

    def request_of(self, request):
        return BackendRequest(kind="rank", payload=request.prompt,
                              model_id="remote-like")

    def rank_listwise(self, request):
        self.transport_calls += 1
        n = len(request.items)
        shift = int(hashlib.sha256(request.prompt.encode()).hexdigest(), 16) % n
        order = [(i + shift) % n + 1 for i in range(n)]
        return " > ".join(f"[{i}]" for i in order)


def test_c09_determinism_and_replay(tmp_path, ten_tag_corpus):
    """Identical config + warm cache: byte-identical outputs, zero calls."""
    records = make_records(5)
    embedder = HashEmbedder(dim=64)
    index = build_index(ten_tag_corpus, embedder)
    cache = ResponseCache(tmp_path / "cache")

    def one_run(tag):
        inner = _RemoteLikeRanker()
        ranker = CachingRanker(inner, cache)
        result = run_records(
            records, ten_tag_corpus, index,
            generator=FileBackedGenerator(), embedder=embedder, ranker=ranker,
            config=RerankConfig(seed=99), instruction="Describe the concept.",
        )
        predictions = tmp_path / f"{tag}.predictions.jsonl"
        traces = tmp_path / f"{tag}.traces.jsonl"
        predictions.write_text("".join(jsonl_line(p)
                                       for p in result.predictions),
                               encoding="utf-8")
        traces.write_text("".join(jsonl_line(t) for t in result.traces),
                          encoding="utf-8")
        return predictions, traces, inner, ranker

    preds_a, traces_a, inner_a, _ = one_run("first")
    assert inner_a.transport_calls > 0
    preds_b, traces_b, inner_b, cached_b = one_run("second")
    assert preds_a.read_bytes() == preds_b.read_bytes()
    assert traces_a.read_bytes() == traces_b.read_bytes()
    assert inner_b.transport_calls == 0
    snap = cached_b.counter.snapshot()
    assert snap["hits"] == snap["requests"] > 0


def test_c10_end_to_end_fixture(tmp_path):
    """10 tags, 5 records, gen docs equal to gold texts: perfect scores."""
    taxonomy = write_taxonomy(tmp_path / "taxonomy.jsonl")
    dataset = write_dataset(tmp_path / "dataset.jsonl", make_records(5))
    predictions = tmp_path / "predictions.jsonl"
    code = cli_main([
        "run", "--taxonomy", str(taxonomy), "--dataset", str(dataset),
        "--embedder", "hash:64", "--ranker", "perfect", "--seed", "1",
        "--predictions-out", str(predictions),
    ])
    assert code == 0
    report_path = tmp_path / "report.json"
    code = cli_main([
        "evaluate", "--predictions", str(predictions),
        "--dataset", str(dataset), "--out", str(report_path),
    ])
    assert code == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["hits_at_1"] == 1.0
    assert report["macro_f1"] == 1.0
