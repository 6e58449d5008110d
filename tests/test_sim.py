from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from tagrec.backends import CachingRanker, RankRequest, ResponseCache
from tagrec.rerank import RerankConfig
from tagrec.sim import OracleKind, OracleRanker, OracleSpec, oracle_rank, \
    recovery_experiment, retrieval_like_weights, synthetic_candidates


def group_of(n):
    return [(f"t{i}", f"text {i}") for i in range(1, n + 1)]


class TestOracleSpec:
    def test_noisy_requires_error_rate(self):
        with pytest.raises(ValueError):
            OracleSpec(OracleKind.NOISY)
        with pytest.raises(ValueError):
            OracleSpec(OracleKind.NOISY, error_rate=1.5)
        with pytest.raises(ValueError):
            OracleSpec(OracleKind.NOISY, error_rate=True)

    def test_seed_is_an_integer(self):
        with pytest.raises(ValueError, match="^seed must be an integer, "
                                             "got 1.5$"):
            OracleSpec(OracleKind.PERFECT, seed=1.5)

    def test_error_rate_only_for_noisy(self):
        with pytest.raises(ValueError):
            OracleSpec(OracleKind.PERFECT, error_rate=0.5)

    def test_labels(self):
        assert OracleSpec(OracleKind.PERFECT).label == "perfect"
        assert OracleSpec(OracleKind.NOISY, error_rate=0.25).label == "noisy:0.25"
        # labelled, and so keyed, as the CLI's float gives it
        assert OracleSpec(OracleKind.NOISY, error_rate=1).label == "noisy:1.0"


class TestOracleRank:
    def test_perfect_puts_gold_first(self):
        perm = oracle_rank(OracleSpec(OracleKind.PERFECT), "g", group_of(5),
                           gold_tag_id="t3")
        assert perm[0] == 3
        assert perm == (3, 1, 2, 4, 5)

    def test_perfect_without_gold_in_group_is_identity(self):
        perm = oracle_rank(OracleSpec(OracleKind.PERFECT), "g", group_of(4),
                           gold_tag_id="absent")
        assert perm == (1, 2, 3, 4)

    def test_perfect_requires_gold(self):
        with pytest.raises(ValueError, match="gold"):
            oracle_rank(OracleSpec(OracleKind.PERFECT), "g", group_of(3))

    @pytest.mark.parametrize("seed", [0, 1, 7, 99])
    def test_noisy_rate_zero_equals_perfect(self, seed):
        noisy = OracleSpec(OracleKind.NOISY, error_rate=0.0, seed=seed)
        perfect = OracleSpec(OracleKind.PERFECT, seed=seed)
        for gold in ("t1", "t2", "t5"):
            assert oracle_rank(noisy, "g", group_of(5), gold_tag_id=gold) == \
                oracle_rank(perfect, "g", group_of(5), gold_tag_id=gold)

    def test_noisy_is_bit_reproducible(self):
        spec = OracleSpec(OracleKind.NOISY, error_rate=0.7, seed=11)
        a = oracle_rank(spec, "g", group_of(5), gold_tag_id="t2",
                        record_id="r")
        b = oracle_rank(spec, "g", group_of(5), gold_tag_id="t2",
                        record_id="r")
        assert a == b

    def test_noisy_rate_one_always_displaces_gold(self):
        spec = OracleSpec(OracleKind.NOISY, error_rate=1.0, seed=3)
        for record_id in ("a", "b", "c", "d"):
            perm = oracle_rank(spec, "g", group_of(5), gold_tag_id="t1",
                               record_id=record_id)
            assert perm[0] != 1

    def test_lexical_overlap(self):
        group = [("t1", "alpha beta"), ("t2", "gamma")]
        perm = oracle_rank(OracleSpec(OracleKind.LEXICAL), "alpha beta", group)
        assert perm == (1, 2)

    def test_lexical_ties_by_presented_position(self):
        group = [("t1", "nothing shared"), ("t2", "also unrelated")]
        perm = oracle_rank(OracleSpec(OracleKind.LEXICAL), "query words", group)
        assert perm == (1, 2)

    def test_position_biased_and_echo_are_presented_order(self):
        for kind in (OracleKind.POSITION_BIASED, OracleKind.IDENTITY_ECHO):
            perm = oracle_rank(OracleSpec(kind), "g", group_of(4))
            assert perm == (1, 2, 3, 4)

    @settings(deadline=None)
    @given(
        kind=st.sampled_from(list(OracleKind)),
        n=st.integers(min_value=1, max_value=9),
        gold_pos=st.integers(min_value=1, max_value=9),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_every_output_is_a_permutation(self, kind, n, gold_pos, seed):
        if kind is OracleKind.NOISY:
            spec = OracleSpec(kind, error_rate=0.5, seed=seed)
        else:
            spec = OracleSpec(kind, seed=seed)
        gold = f"t{min(gold_pos, n)}"
        perm = oracle_rank(spec, "gen doc", group_of(n), gold_tag_id=gold)
        assert sorted(perm) == list(range(1, n + 1))

    @given(
        n=st.integers(min_value=1, max_value=9),
        gold_pos=st.integers(min_value=1, max_value=9),
        gen_doc=st.text(min_size=1, max_size=30),
    )
    def test_perfect_always_tops_gold_when_present(self, n, gold_pos,
                                                   gen_doc):
        gold_pos = min(gold_pos, n)
        perm = oracle_rank(OracleSpec(OracleKind.PERFECT), gen_doc,
                           group_of(n), gold_tag_id=f"t{gold_pos}")
        assert perm[0] == gold_pos


class TestOracleRankerBackend:
    def test_reply_format_parses(self):
        ranker = OracleRanker(OracleSpec(OracleKind.PERFECT))
        reply = ranker.rank_listwise(RankRequest(
            prompt="p", gen_doc="g", items=tuple(group_of(5)),
            gold_tag_id="t4"))
        assert reply == "[4] > [1] > [2] > [3] > [5]"

    def test_requires_structured_items(self):
        ranker = OracleRanker(OracleSpec(OracleKind.IDENTITY_ECHO))
        with pytest.raises(Exception, match="structured"):
            ranker.rank_listwise(RankRequest(prompt="p"))

    REQUEST = RankRequest(prompt="p", gen_doc="g", items=tuple(group_of(3)),
                          record_id="r", gold_tag_id="t1")

    def test_the_noisy_key_holds_the_seed_that_draws_its_noise(self):
        keys = {OracleRanker(OracleSpec(OracleKind.NOISY, error_rate=0.3,
                                        seed=seed)).request_of(self.REQUEST)
                .cache_key() for seed in range(6)}
        assert len(keys) == 6

    @pytest.mark.parametrize("kind", [k for k in OracleKind
                                      if k is not OracleKind.NOISY])
    def test_an_oracle_that_ignores_the_seed_keys_without_it(self, kind):
        requests = {OracleRanker(OracleSpec(kind, seed=seed))
                    .request_of(self.REQUEST) for seed in range(3)}
        assert [request.params for request in requests] == [()]

    def test_a_cache_warmed_at_one_seed_answers_another_as_uncached(
            self, tmp_path):
        """Seed 2 once read seed 0's cached reply for the same request."""
        def ranker(seed):
            return OracleRanker(OracleSpec(OracleKind.NOISY, error_rate=0.3,
                                           seed=seed))
        uncached = ranker(2).rank_listwise(self.REQUEST)
        assert ranker(0).rank_listwise(self.REQUEST) != uncached
        cache = ResponseCache(tmp_path / "cache")
        CachingRanker(ranker(0), cache).rank_listwise(self.REQUEST)
        assert CachingRanker(ranker(2), cache).rank_listwise(self.REQUEST) \
            == uncached


class TestRecoveryExperiment:
    def test_single_group_recovers_always(self):
        config = RerankConfig(group_size=10, top_k=10, iterations=3, seed=5)
        rate = recovery_experiment(50, config, OracleSpec(OracleKind.PERFECT))
        assert rate == 1.0

    def test_perfect_defaults_recover_most(self):
        config = RerankConfig(seed=2)
        rate = recovery_experiment(200, config, OracleSpec(OracleKind.PERFECT))
        assert rate >= 0.95

    def test_reproducible(self):
        config = RerankConfig(seed=9)
        spec = OracleSpec(OracleKind.NOISY, error_rate=0.2, seed=4)
        assert recovery_experiment(60, config, spec) == \
            recovery_experiment(60, config, spec)

    def test_total_noise_is_much_worse_than_perfect(self):
        config = RerankConfig(seed=3)
        perfect = recovery_experiment(150, config,
                                      OracleSpec(OracleKind.PERFECT))
        broken = recovery_experiment(150, config,
                                     OracleSpec(OracleKind.NOISY,
                                                error_rate=1.0, seed=1))
        assert broken < perfect - 0.3

    def test_gold_rank_weights_validation(self):
        config = RerankConfig(seed=1)
        with pytest.raises(ValueError):
            recovery_experiment(5, config, OracleSpec(OracleKind.PERFECT),
                                gold_rank_weights=[1.0] * 3)
        with pytest.raises(ValueError):
            recovery_experiment(0, config, OracleSpec(OracleKind.PERFECT))

    def test_retrieval_like_weights_shape(self):
        w = retrieval_like_weights(10)
        assert len(w) == 10
        assert w == sorted(w, reverse=True)

    def test_synthetic_candidates_place_gold(self):
        candidates, texts, gold = synthetic_candidates(10, gold_rank=4)
        assert candidates[3].tag_id == gold
        assert [c.retrieval_rank for c in candidates] == list(range(1, 11))
        assert set(texts) == {c.tag_id for c in candidates}
        with pytest.raises(ValueError):
            synthetic_candidates(10, gold_rank=11)
