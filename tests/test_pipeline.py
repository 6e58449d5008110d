from __future__ import annotations

import json
import tracemalloc

import pytest

from tagrec.backends import FileBackedGenerator, HashEmbedder
from tagrec.corpus import NumeralRecord
from tagrec.errors import ConfigError
from tagrec.evaluation import SweepAxis, evaluate_predictions
from tagrec.pipeline import apply_axis, jsonl_line, run_records, run_sweep
from tagrec.rerank import Ordering, RerankConfig, VoteMode
from tagrec.retrieval import build_index
from tagrec.sim import OracleKind, OracleRanker, OracleSpec

from conftest import TEN_TAGS, make_corpus, make_records


@pytest.fixture
def parts(ten_tag_corpus):
    embedder = HashEmbedder(dim=64)
    index = build_index(ten_tag_corpus, embedder)
    return ten_tag_corpus, index, embedder


def run(parts, records, *, ranker=None, config=None, concurrency=1):
    corpus, index, embedder = parts
    return run_records(
        records, corpus, index,
        generator=FileBackedGenerator(),
        embedder=embedder,
        ranker=ranker or OracleRanker(OracleSpec(OracleKind.PERFECT)),
        config=config or RerankConfig(seed=7),
        instruction="Describe the tagged concept.",
        concurrency=concurrency,
    )


class TestRunRecords:
    def test_perfect_fixture_all_gold(self, parts):
        records = make_records(5)
        result = run(parts, records)
        assert len(result.predictions) == 5
        for line in result.predictions:
            assert line["predicted_tag_id"] == line["gold_tag_id"]
            assert line["gold_in_top_k"] is True
            assert sum(line["votes"].values()) == 8 * 2

    def test_output_sorted_by_record_id(self, parts):
        records = list(reversed(make_records(5)))
        result = run(parts, records)
        ids = [p["record_id"] for p in result.predictions]
        assert ids == sorted(ids)

    def test_missing_gen_doc_is_counted_skip(self, parts):
        records = make_records(3)
        records[1] = NumeralRecord(
            record_id=records[1].record_id,
            report_text=records[1].report_text,
            numeral=records[1].numeral,
            question=records[1].question,
            gold_tag_id=records[1].gold_tag_id,
            gen_tag_doc=None,
        )
        result = run(parts, records)
        assert len(result.predictions) == 2
        assert len(result.skipped) == 1
        assert result.skipped[0]["record_id"] == records[1].record_id

    def test_record_failure_does_not_abort(self, parts):
        class FlakyRanker:
            backend_id = "flaky"

            def rank_listwise(self, request):
                if request.record_id == "r001":
                    raise RuntimeError("boom")
                return "[1] > [2] > [3] > [4] > [5]"

        result = run(parts, make_records(3), ranker=FlakyRanker())
        assert len(result.failed) == 1
        assert result.failed[0]["record_id"] == "r001"
        assert len(result.predictions) == 2

    def test_concurrency_does_not_change_results(self, parts):
        records = make_records(5)
        serial = run(parts, records, concurrency=1)
        threaded = run(parts, records, concurrency=4)
        assert [jsonl_line(p) for p in serial.predictions] == \
            [jsonl_line(p) for p in threaded.predictions]
        assert [jsonl_line(t) for t in serial.traces] == \
            [jsonl_line(t) for t in threaded.traces]

    def test_top_k_larger_than_index_is_systemic(self, parts):
        with pytest.raises(ConfigError, match="top_k"):
            run(parts, make_records(2),
                config=RerankConfig(top_k=11, group_size=5))

    def test_index_of_another_taxonomy_is_systemic(self, parts):
        corpus, _, embedder = parts
        reordered = build_index(make_corpus(TEN_TAGS[::-1]), embedder)
        with pytest.raises(ConfigError, match="do not match the taxonomy"):
            run((corpus, reordered, embedder), make_records(2))

    @pytest.mark.parametrize("concurrency", [1, 3])
    def test_embedder_of_another_width_than_the_index_is_systemic(
            self, parts, concurrency):
        corpus, index, _ = parts
        with pytest.raises(ConfigError, match="32-dimensional.*64-dimensional"):
            run((corpus, index, HashEmbedder(dim=32)), make_records(5),
                concurrency=concurrency)

    def test_gold_in_top_k_rate(self, parts):
        result = run(parts, make_records(5))
        assert result.gold_in_top_k_rate() == 1.0

    def test_prediction_set_excludes_goldless(self, parts):
        records = make_records(3)
        extra = NumeralRecord(record_id="zz9", report_text="total 42 .",
                              numeral="42", question="q",
                              gen_tag_doc=make_corpus().texts()["LongTermDebt"])
        result = run(parts, records + [extra],
                     ranker=OracleRanker(OracleSpec(OracleKind.LEXICAL)))
        assert len(result.predictions) == 4
        assert len(result.prediction_set().items) == 3

    def test_backend_swap_changes_only_winner_choices(self, parts):
        """Swapping the ranker must leave partitions and candidates intact."""
        records = make_records(5)
        echo = run(parts, records,
                   ranker=OracleRanker(OracleSpec(OracleKind.IDENTITY_ECHO)))
        perfect = run(parts, records,
                      ranker=OracleRanker(OracleSpec(OracleKind.PERFECT)))
        for a, b in zip(echo.traces, perfect.traces):
            assert a["record_id"] == b["record_id"]
            assert a["candidates"] == b["candidates"]
            for it_a, it_b in zip(a["iterations"], b["iterations"]):
                assert it_a["partition"] == it_b["partition"]
                assert it_a["presented"] == it_b["presented"]
        # and the lexical ranker, seeing gen_doc == gold text, agrees with
        # perfect on every prediction here
        lexical = run(parts, records,
                      ranker=OracleRanker(OracleSpec(OracleKind.LEXICAL)))
        assert [p["predicted_tag_id"] for p in lexical.predictions] == \
            [p["predicted_tag_id"] for p in perfect.predictions]


class TestRunScan:
    def test_the_run_adds_only_the_norms_to_the_index(self, parts):
        _, index, _ = parts
        before = dict(index.__dict__)
        run(parts, make_records(3))
        assert index.__dict__.keys() - before.keys() == {"norms"}
        assert index.norms.shape == (len(index),)
        assert all(index.__dict__[name] is value for name, value in before.items())

    def test_a_run_makes_no_float64_copy_of_the_index(self):
        """A 4,000 x 64 float64 copy of the index would take 2.05 MB."""
        corpus = make_corpus(TEN_TAGS + [(f"Tag{i}", f"tag number {i}")
                                         for i in range(3990)])
        embedder = HashEmbedder(dim=64)
        index = build_index(corpus, embedder)
        run((corpus, index, embedder), make_records(1))  # computes the norms
        tracemalloc.start()
        try:
            result = run((corpus, index, embedder), make_records(3))
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()
        assert len(result.predictions) == 3


class TestApplyAxis:
    def test_iterations(self):
        config = apply_axis(RerankConfig(), SweepAxis.ITERATIONS, 3)
        assert config.iterations == 3

    def test_group_size(self):
        config = apply_axis(RerankConfig(), SweepAxis.GROUP_SIZE, 4)
        assert config.group_size == 4

    def test_ordering(self):
        config = apply_axis(RerankConfig(), SweepAxis.ORDERING,
                            "order-shuffled")
        assert config.ordering is Ordering.ORDER_SHUFFLED

    @pytest.mark.parametrize("axis, value, field, want", [
        (SweepAxis.ITERATIONS, "3", "iterations", 3),
        (SweepAxis.GROUP_SIZE, " 4 ", "group_size", 4),
        (SweepAxis.ORDERING, Ordering.ORDER_SHUFFLED, "ordering",
         Ordering.ORDER_SHUFFLED),
    ])
    def test_a_value_takes_the_type_of_its_field(self, axis, value, field,
                                                 want):
        config = apply_axis(RerankConfig(), axis, value)
        assert getattr(config, field) == want
        assert type(getattr(config, field)) is type(want)

    @pytest.mark.parametrize("axis, value", [
        (SweepAxis.ITERATIONS, "x"), (SweepAxis.ORDERING, "bogus"),
        # not cut to 2 rounds, or taken as 1
        (SweepAxis.ITERATIONS, 2.9), (SweepAxis.ITERATIONS, True)])
    def test_a_value_of_the_wrong_form_raises(self, axis, value):
        with pytest.raises(ValueError):
            apply_axis(RerankConfig(), axis, value)

    def test_invalid_value_propagates(self):
        with pytest.raises(ValueError):
            apply_axis(RerankConfig(top_k=10), SweepAxis.GROUP_SIZE, 11)


class TestRunSweep:
    def test_iterations_axis_shape_and_monotone_with_perfect(self, parts):
        corpus, index, embedder = parts
        table = run_sweep(
            make_records(5), corpus, index,
            generator=FileBackedGenerator(), embedder=embedder,
            ranker=OracleRanker(OracleSpec(OracleKind.PERFECT)),
            template=RerankConfig(seed=3), instruction="inst",
            axis=SweepAxis.ITERATIONS, values=[2, 8],
        )
        assert len(table.cells) == 2
        h2 = table.cells[0].report.hits_at_1
        h8 = table.cells[1].report.hits_at_1
        assert h8 >= h2

    def test_ordering_axis_direction_with_position_bias(self, parts):
        # gen_doc == gold text puts gold at retrieval rank 1, so preserved
        # order recovers it; shuffling discards that prior.
        corpus, index, embedder = parts
        table = run_sweep(
            make_records(5), corpus, index,
            generator=FileBackedGenerator(), embedder=embedder,
            ranker=OracleRanker(OracleSpec(OracleKind.POSITION_BIASED)),
            template=RerankConfig(seed=3), instruction="inst",
            axis=SweepAxis.ORDERING,
            values=["order-preserving", "order-shuffled"],
        )
        preserved = table.cells[0].report.hits_at_1
        shuffled = table.cells[1].report.hits_at_1
        assert preserved >= shuffled
        assert preserved == 1.0

    def test_failed_cell_marked(self, parts):
        corpus, index, embedder = parts
        table = run_sweep(
            make_records(3), corpus, index,
            generator=FileBackedGenerator(), embedder=embedder,
            ranker=OracleRanker(OracleSpec(OracleKind.PERFECT)),
            template=RerankConfig(seed=3), instruction="inst",
            axis=SweepAxis.GROUP_SIZE, values=[5, 11, 4],
        )
        assert [c.failed for c in table.cells] == [False, True, False]
        assert "group_size must not exceed top_k" in table.cells[1].error
        assert table.cells[1].report is None

    def test_config_error_aborts_the_sweep(self, parts):
        corpus, index, embedder = parts
        with pytest.raises(ConfigError, match="exceeds the index size"):
            run_sweep(
                make_records(3), corpus, index,
                generator=FileBackedGenerator(), embedder=embedder,
                ranker=OracleRanker(OracleSpec(OracleKind.PERFECT)),
                template=RerankConfig(top_k=11), instruction="inst",
                axis=SweepAxis.ITERATIONS, values=[1, 2],
            )

    def test_empty_values_rejected(self, parts):
        corpus, index, embedder = parts
        with pytest.raises(ValueError, match="non-empty"):
            run_sweep(
                make_records(3), corpus, index,
                generator=FileBackedGenerator(), embedder=embedder,
                ranker=OracleRanker(OracleSpec(OracleKind.PERFECT)),
                template=RerankConfig(), instruction="inst",
                axis=SweepAxis.ITERATIONS, values=[],
            )

    def test_group_size_single_value_consistency(self, parts):
        corpus, index, embedder = parts
        records = make_records(5)
        table = run_sweep(
            records, corpus, index,
            generator=FileBackedGenerator(), embedder=embedder,
            ranker=OracleRanker(OracleSpec(OracleKind.PERFECT)),
            template=RerankConfig(seed=11), instruction="inst",
            axis=SweepAxis.GROUP_SIZE, values=[5],
        )
        direct = run(parts, records, config=RerankConfig(seed=11))
        expected = evaluate_predictions(direct.prediction_set())
        assert table.cells[0].report == expected


class TestJsonlLine:
    def test_sorted_keys_and_newline(self):
        line = jsonl_line({"b": 1, "a": 2})
        assert line == '{"a": 2, "b": 1}\n'
        assert json.loads(line) == {"a": 2, "b": 1}
