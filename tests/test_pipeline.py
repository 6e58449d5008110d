from __future__ import annotations

import json

import pytest

from tagrec import pipeline, retrieval
from tagrec.backends import FileBackedGenerator, HashEmbedder
from tagrec.corpus import NumeralRecord
from tagrec.errors import ConfigError
from tagrec.evaluation import SweepAxis, evaluate_predictions
from tagrec.pipeline import apply_axis, jsonl_line, run_records, run_sweep
from tagrec.rerank import Ordering, RerankConfig, VoteMode
from tagrec.retrieval import IndexScan, VectorIndex, build_index
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
    def test_same_outputs_as_retrieving_from_the_plain_index(self, parts,
                                                              monkeypatch):
        corpus, index, _ = parts
        records = make_records(5) + [NumeralRecord(
            record_id="r900", report_text="total 42 .", numeral="42",
            question="q", gold_tag_id="LongTermDebt",
            gen_tag_doc="cost of debt and income taxes for the period")]
        config = RerankConfig(seed=7, top_k=6, group_size=3)
        ranker = OracleRanker(OracleSpec(OracleKind.LEXICAL))
        scanned = run(parts, records, ranker=ranker, config=config)

        passed = []

        def retrieve_from_index(record, gen_doc, scan, embedder, k):
            passed.append(scan)
            return retrieval.retrieve(record, gen_doc, index, embedder, k)

        monkeypatch.setattr(pipeline, "retrieve", retrieve_from_index)
        plain = run(parts, records, ranker=ranker, config=config)
        assert len(passed) == len(records)
        assert all(isinstance(s, IndexScan) and s is passed[0] for s in passed)
        assert [jsonl_line(p) for p in scanned.predictions] == \
            [jsonl_line(p) for p in plain.predictions]
        assert [jsonl_line(t) for t in scanned.traces] == \
            [jsonl_line(t) for t in plain.traces]

    def test_index_holds_no_copy_after_the_run(self, parts):
        _, index, _ = parts
        before = dict(index.__dict__)
        run(parts, make_records(3))
        assert index.__dict__.keys() == before.keys()
        assert all(index.__dict__[name] is value for name, value in before.items())

    def test_zero_vector_fails_each_record_as_before(self):
        corpus = make_corpus()
        embedder = HashEmbedder(dim=64)
        built = build_index(corpus, embedder)
        vectors = built.vectors.copy()
        vectors[3] = 0.0
        index = VectorIndex(tag_ids=built.tag_ids, vectors=vectors)
        result = run((corpus, index, embedder), make_records(2))
        assert result.predictions == []
        assert [f["reason"] for f in result.failed] == \
            ["index entry 'NetIncomeLoss' has a zero vector"] * 2


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

    def test_one_scan_serves_every_cell(self, parts, monkeypatch):
        corpus, index, embedder = parts
        built = []

        class CountedScan(IndexScan):
            def __init__(self, index):
                built.append(1)
                super().__init__(index)
        monkeypatch.setattr(pipeline, "IndexScan", CountedScan)
        table = run_sweep(
            make_records(3), corpus, index,
            generator=FileBackedGenerator(), embedder=embedder,
            ranker=OracleRanker(OracleSpec(OracleKind.PERFECT)),
            template=RerankConfig(seed=3), instruction="inst",
            axis=SweepAxis.ITERATIONS, values=[1, 2, 4],
        )
        assert [c.failed for c in table.cells] == [False] * 3
        assert len(built) == 1


class TestJsonlLine:
    def test_sorted_keys_and_newline(self):
        line = jsonl_line({"b": 1, "a": 2})
        assert line == '{"a": 2, "b": 1}\n'
        assert json.loads(line) == {"a": 2, "b": 1}
