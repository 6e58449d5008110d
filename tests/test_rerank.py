from __future__ import annotations

import json
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tagrec import rerank as rerank_module
from tagrec.corpus import TagDocument
from tagrec.rerank import Ordering, RerankConfig, VoteMode, derive_seed, \
    partition_into_groups, rank_group, rerank_record
from tagrec.retrieval import Candidate
from tagrec.sim import OracleKind, OracleRanker, OracleSpec, \
    synthetic_candidates


def candidates_of(n):
    return [Candidate(tag_id=f"c{i}", score=1.0 - i / 100,
                      retrieval_rank=i) for i in range(1, n + 1)]


def texts_of(candidates):
    return {c.tag_id: f"document for {c.tag_id}" for c in candidates}


class ExplodingRanker:
    backend_id = "exploding"

    def rank_listwise(self, request):
        raise AssertionError("backend must not be called")


class GarbageRanker:
    backend_id = "garbage"

    def rank_listwise(self, request):
        return "I cannot rank these, sorry."


class TestConfig:
    def test_defaults(self):
        config = RerankConfig()
        assert (config.group_size, config.iterations, config.top_k) == (5, 8, 10)
        assert config.ordering is Ordering.ORDER_PRESERVING
        assert config.vote_mode is VoteMode.PER_GROUP

    @pytest.mark.parametrize("kwargs", [
        {"group_size": 0},
        {"iterations": 0},
        {"group_size": 11},
        {"seed": -1},
        # a float or a bool is no integer, and a string is no enum member
        {"iterations": 2.9},
        {"top_k": 10.0},
        {"seed": True},
        {"seed": 1.5},
        {"vote_mode": "per-round"},
        {"ordering": "bogus"},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RerankConfig(**kwargs)


class TestPartition:
    def test_ten_into_two_fives(self):
        rng = np.random.default_rng(0)
        assignment = partition_into_groups(candidates_of(10), 5,
                                           Ordering.ORDER_PRESERVING, rng)
        assert len(assignment.groups) == 2
        assert all(len(g) == 5 for g in assignment.groups)
        seen = {c.tag_id for g in assignment.groups for c in g}
        assert seen == {c.tag_id for c in candidates_of(10)}

    def test_remainder_group_sizes(self):
        rng = np.random.default_rng(0)
        assignment = partition_into_groups(candidates_of(10), 3,
                                           Ordering.ORDER_PRESERVING, rng)
        assert [len(g) for g in assignment.groups] == [3, 3, 3, 1]

    def test_order_preserving_sorts_by_rank(self):
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            assignment = partition_into_groups(candidates_of(10), 5,
                                               Ordering.ORDER_PRESERVING, rng)
            for group in assignment.groups:
                ranks = [c.retrieval_rank for c in group]
                assert ranks == sorted(ranks)
                assert len(set(ranks)) == len(ranks)

    def test_order_shuffled_keeps_draw(self):
        rng = np.random.default_rng(4)
        assignment = partition_into_groups(candidates_of(10), 5,
                                           Ordering.ORDER_SHUFFLED, rng)
        assert assignment.groups == assignment.drawn

    def test_group_size_validation(self):
        with pytest.raises(ValueError):
            partition_into_groups(candidates_of(4), 0,
                                  Ordering.ORDER_PRESERVING,
                                  np.random.default_rng(0))
        with pytest.raises(ValueError):
            partition_into_groups([], 2, Ordering.ORDER_PRESERVING,
                                  np.random.default_rng(0))

    @settings(deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=20),
        group_size=st.integers(min_value=1, max_value=20),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        ordering=st.sampled_from(list(Ordering)),
    )
    def test_disjoint_cover_property(self, n, group_size, seed, ordering):
        cands = candidates_of(n)
        rng = np.random.default_rng(seed)
        assignment = partition_into_groups(cands, group_size, ordering, rng)
        assert len(assignment.groups) == math.ceil(n / group_size)
        flat = [c.tag_id for g in assignment.groups for c in g]
        assert len(flat) == n
        assert set(flat) == {c.tag_id for c in cands}


class TestRankGroup:
    def test_singleton_needs_no_backend(self):
        [only] = candidates_of(1)
        outcome = rank_group("gen", [only], ExplodingRanker(),
                             texts_of([only]))
        assert outcome.winner is only
        assert outcome.raw_reply is None
        assert not outcome.fallback

    def test_identity_echo_first_presented_wins(self):
        cands = candidates_of(4)
        outcome = rank_group("gen", cands,
                             OracleRanker(OracleSpec(OracleKind.IDENTITY_ECHO)),
                             texts_of(cands))
        assert outcome.winner.tag_id == "c1"

    def test_perfect_oracle_gold_wins(self):
        cands = candidates_of(5)
        outcome = rank_group("gen", cands,
                             OracleRanker(OracleSpec(OracleKind.PERFECT)),
                             texts_of(cands), gold_tag_id="c4")
        assert outcome.winner.tag_id == "c4"

    def test_unparseable_reply_falls_back_to_first(self):
        cands = candidates_of(3)
        outcome = rank_group("gen", cands, GarbageRanker(), texts_of(cands))
        assert outcome.winner.tag_id == "c1"
        assert outcome.fallback
        assert outcome.raw_reply == "I cannot rank these, sorry."

    def test_huge_identifier_in_a_reply_is_repaired(self):
        class HugeRanker:
            backend_id = "huge"

            def rank_listwise(self, request):
                return "[2] > [" + "9" * 5000 + "] > [1]"

        cands = candidates_of(3)
        outcome = rank_group("gen", cands, HugeRanker(), texts_of(cands))
        assert outcome.winner.tag_id == "c2"
        assert not outcome.fallback


class RecordingRanker:
    """Lexical oracle that records each call's presented ids and thread."""

    backend_id = "recording"

    def __init__(self):
        self.inner = OracleRanker(OracleSpec(OracleKind.LEXICAL))
        self.calls = []

    def rank_listwise(self, request):
        self.calls.append(([t for t, _ in request.items],
                           threading.get_ident()))
        return self.inner.rank_listwise(request)


class TestPlanPlayTally:
    @pytest.mark.parametrize("group_size", [2, 3, 5, 10])
    def test_every_group_is_ranked_once_in_plan_order_on_the_caller(
            self, group_size):
        candidates, texts, _ = synthetic_candidates(10, 3)
        ranker = RecordingRanker()
        config = RerankConfig(group_size=group_size, seed=9)
        _, trace = rerank_record("synthetic tag", candidates, texts, config,
                                 ranker, record_id="r")
        planned = [group for it in trace.iterations
                   for group in it["presented"] if len(group) > 1]
        assert [ids for ids, _ in ranker.calls] == planned
        assert {thread for _, thread in ranker.calls} == \
            {threading.get_ident()}

    def test_each_document_is_built_once_per_record(self, monkeypatch):
        built = []

        class CountingDocument(TagDocument):
            def __post_init__(self):
                built.append(self.tag_id)
                super().__post_init__()

        monkeypatch.setattr(rerank_module, "TagDocument", CountingDocument)
        candidates, texts, _ = synthetic_candidates(10, 3)
        for record in ("a", "b"):
            rerank_record("synthetic tag", candidates, texts, RerankConfig(),
                          RecordingRanker(), record_id=record)
        assert sorted(built) == sorted(2 * list(texts))

    def test_singletons_need_no_document(self):
        candidates, texts, _ = synthetic_candidates(10, 3)
        ranker = RecordingRanker()
        predicted, _ = rerank_record("synthetic tag", candidates, {},
                                         RerankConfig(group_size=1), ranker)
        assert ranker.calls == [] and predicted == "syn001"


class ScriptedRanker:
    """Ranks the next tag of ``picks`` first, one pick per call."""

    backend_id = "scripted"

    def __init__(self, picks):
        self.picks = iter(picks)

    def rank_listwise(self, request):
        presented = [tag_id for tag_id, _ in request.items]
        return f"[{presented.index(next(self.picks)) + 1}]"


class TestTally:
    @pytest.mark.parametrize("vote_mode", list(VoteMode))
    def test_a_tie_goes_to_the_better_retrieval_rank(self, vote_mode):
        # One group of all three per round: c3 wins the first and last
        # round, c2 the two between, and c1, the best-ranked, none.
        candidates = candidates_of(3)
        config = RerankConfig(group_size=3, iterations=4, top_k=3,
                              vote_mode=vote_mode)
        predicted, trace = rerank_record(
            "gen", candidates, texts_of(candidates), config,
            ScriptedRanker(["c3", "c2", "c2", "c3"]))
        assert trace.tally.counts == {"c3": 2, "c2": 2}
        assert trace.tally.total_rounds == 4
        assert predicted == trace.predicted_tag_id == "c2"


def run_once(seed, *, iterations=8, group_size=5, top_k=10,
             ordering=Ordering.ORDER_PRESERVING,
             vote_mode=VoteMode.PER_GROUP, oracle=None, gold_rank=4):
    candidates, texts, gold = synthetic_candidates(top_k, gold_rank)
    config = RerankConfig(group_size=group_size, iterations=iterations,
                          ordering=ordering, seed=seed, top_k=top_k,
                          vote_mode=vote_mode)
    ranker = OracleRanker(oracle or OracleSpec(OracleKind.PERFECT))
    return rerank_record("generated doc", candidates, texts, config, ranker,
                         record_id="rec", gold_tag_id=gold), gold


class TestRerankRecord:
    def test_perfect_oracle_gold_gets_exactly_t_votes(self):
        for seed in range(50):
            (predicted, trace), gold = run_once(seed)
            assert trace.tally.counts[gold] == 8
            assert predicted == gold or trace.tally.counts[predicted] == 8

    def test_vote_conservation_per_group(self):
        for seed in range(20):
            (_, trace), _ = run_once(seed, group_size=3, top_k=10)
            assert sum(trace.tally.counts.values()) == 8 * math.ceil(10 / 3)

    def test_vote_conservation_per_round(self):
        for seed in range(20):
            (_, trace), _ = run_once(seed, vote_mode=VoteMode.PER_ROUND)
            assert sum(trace.tally.counts.values()) == 8

    def test_vote_modes_coincide_for_single_group(self):
        (pred_a, trace_a), _ = run_once(3, group_size=10, iterations=4)
        (pred_b, trace_b), _ = run_once(3, group_size=10, iterations=4,
                                        vote_mode=VoteMode.PER_ROUND)
        assert pred_a == pred_b
        assert trace_a.tally.counts == trace_b.tally.counts

    def test_single_group_single_round_is_one_listwise_call(self):
        (predicted, trace), gold = run_once(7, iterations=1, group_size=10)
        assert len(trace.iterations) == 1
        assert len(trace.iterations[0]["winners"]) == 1
        assert predicted == gold  # perfect oracle tops the single group

    def test_deterministic_trace_bytes(self):
        (_, trace_a), _ = run_once(42, oracle=OracleSpec(OracleKind.NOISY,
                                                         error_rate=0.4,
                                                         seed=2))
        (_, trace_b), _ = run_once(42, oracle=OracleSpec(OracleKind.NOISY,
                                                         error_rate=0.4,
                                                         seed=2))
        dump = lambda t: json.dumps(t.to_dict(), sort_keys=True)
        assert dump(trace_a) == dump(trace_b)

    def test_rounds_are_prefix_stable(self):
        (_, trace_short), _ = run_once(5, iterations=3)
        (_, trace_long), _ = run_once(5, iterations=8)
        assert trace_long.iterations[:3] == trace_short.iterations[:3]

    def test_partition_disjoint_every_round(self):
        (_, trace), _ = run_once(13)
        all_ids = {f"syn{i:03d}" for i in range(1, 11)}
        for it in trace.iterations:
            flat = [t for g in it["presented"] for t in g]
            assert sorted(flat) == sorted(all_ids)
            drawn_flat = [t for g in it["partition"] for t in g]
            assert sorted(drawn_flat) == sorted(all_ids)

    def test_candidate_count_must_match_config(self):
        candidates, texts, gold = synthetic_candidates(8, 1)
        config = RerankConfig(top_k=10)
        with pytest.raises(ValueError, match="expected 10"):
            rerank_record("gen", candidates, texts, config,
                          OracleRanker(OracleSpec(OracleKind.PERFECT)),
                          gold_tag_id=gold)

    def test_empty_gen_doc_rejected(self):
        candidates, texts, gold = synthetic_candidates(10, 1)
        with pytest.raises(ValueError, match="gen_doc"):
            rerank_record("", candidates, texts, RerankConfig(),
                          OracleRanker(OracleSpec(OracleKind.PERFECT)),
                          gold_tag_id=gold)

    def test_fallback_events_recorded(self):
        candidates, texts, gold = synthetic_candidates(10, 1)
        config = RerankConfig(iterations=2)
        predicted, trace = rerank_record("gen", candidates, texts, config,
                                         GarbageRanker(), gold_tag_id=gold)
        # every group of every round fell back to presented-first
        assert len(trace.fallback_events) == 2 * 2
        assert predicted == "syn001"  # retrieval order prior survives

    def test_predicted_tag_is_a_candidate(self):
        for seed in range(10):
            (predicted, trace), _ = run_once(
                seed, oracle=OracleSpec(OracleKind.NOISY, error_rate=0.8,
                                        seed=seed))
            assert predicted in {c.tag_id for c in trace.candidates}

    def test_noisy_recovery_monotone_in_error_rate(self):
        # shared trials: the noise draw per call ignores error_rate, so the
        # error sets are nested as p grows
        from tagrec.sim import recovery_experiment

        rates = [
            recovery_experiment(1000, RerankConfig(seed=21),
                                OracleSpec(OracleKind.NOISY, error_rate=p,
                                           seed=1))
            for p in (0.0, 0.1, 0.3)
        ]
        assert rates[0] >= rates[1] >= rates[2], rates


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed("a", 1) == derive_seed("a", 1)
        assert derive_seed("a", 1) != derive_seed("a", 2)
        assert derive_seed("a", 1) != derive_seed("b", 1)

    def test_non_negative_64bit(self):
        for part in ("x", "y", 123, "記録"):
            seed = derive_seed(part)
            assert 0 <= seed < 2**63
