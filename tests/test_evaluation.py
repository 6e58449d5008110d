from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from tagrec.evaluation import PredictionSet, SweepAxis, SweepCell, SweepTable, \
    evaluate_predictions, hits_at_1, macro_metrics


def pset(*triples):
    return PredictionSet(items=tuple(triples))


def brute_force_macro(items):
    """Independent oracle: explicit confusion enumeration per gold class."""
    universe = sorted({gold for _, gold, _ in items})
    stats = {}
    for cls in universe:
        tp = fp = fn = 0
        for _, gold, pred in items:
            if gold == cls and pred == cls:
                tp += 1
            elif gold != cls and pred == cls:
                fp += 1
            elif gold == cls and pred != cls:
                fn += 1
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
        stats[cls] = (tp, fp, fn, p, r, f1)
    n = len(universe)
    macro_p = sum(s[3] for s in stats.values()) / n
    macro_r = sum(s[4] for s in stats.values()) / n
    macro_f1 = sum(s[5] for s in stats.values()) / n
    return macro_p, macro_r, macro_f1, stats


class TestHitsAt1:
    def test_two_of_three(self):
        preds = pset(("r1", "A", "A"), ("r2", "A", "A"), ("r3", "B", "A"))
        assert hits_at_1(preds) == pytest.approx(2 / 3, abs=1e-9)

    def test_all_correct(self):
        assert hits_at_1(pset(("r1", "A", "A"), ("r2", "B", "B"))) == 1.0

    def test_none_correct(self):
        assert hits_at_1(pset(("r1", "A", "B"), ("r2", "B", "A"))) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hits_at_1(pset())


class TestMacroMetrics:
    def test_hand_fixture_exact(self):
        preds = pset(("r1", "A", "A"), ("r2", "A", "A"), ("r3", "B", "A"))
        macro_p, macro_r, macro_f1, per_class = macro_metrics(preds)
        by_id = {c.tag_id: c for c in per_class}
        assert by_id["A"].precision == pytest.approx(2 / 3, abs=1e-12)
        assert by_id["A"].recall == 1.0
        assert by_id["A"].f1 == pytest.approx(0.8, abs=1e-12)
        assert (by_id["B"].precision, by_id["B"].recall, by_id["B"].f1) == \
            (0.0, 0.0, 0.0)
        assert macro_p == pytest.approx(1 / 3, abs=1e-12)
        assert macro_r == pytest.approx(1 / 2, abs=1e-12)
        assert macro_f1 == 0.4  # exact

    def test_all_correct_is_all_ones(self):
        preds = pset(("r1", "A", "A"), ("r2", "B", "B"), ("r3", "C", "C"))
        macro_p, macro_r, macro_f1, _ = macro_metrics(preds)
        assert (macro_p, macro_r, macro_f1) == (1.0, 1.0, 1.0)

    def test_single_class_single_item(self):
        macro_p, macro_r, macro_f1, per_class = macro_metrics(
            pset(("r1", "A", "A")))
        assert (macro_p, macro_r, macro_f1) == (1.0, 1.0, 1.0)
        assert per_class[0].tp == 1

    def test_predicted_only_class_adds_no_row(self):
        preds = pset(("r1", "A", "X"), ("r2", "A", "A"))
        _, _, _, per_class = macro_metrics(preds)
        assert [c.tag_id for c in per_class] == ["A"]

    @given(st.lists(
        st.tuples(st.sampled_from("ABCDEFGHIJ"), st.sampled_from("ABCDEFGHIJ")),
        min_size=1, max_size=100,
    ))
    def test_matches_brute_force_enumeration(self, pairs):
        items = tuple((f"r{i}", g, p) for i, (g, p) in enumerate(pairs))
        macro_p, macro_r, macro_f1, per_class = macro_metrics(
            PredictionSet(items=items))
        bf_p, bf_r, bf_f1, bf_stats = brute_force_macro(items)
        assert macro_p == pytest.approx(bf_p, abs=1e-12)
        assert macro_r == pytest.approx(bf_r, abs=1e-12)
        assert macro_f1 == pytest.approx(bf_f1, abs=1e-12)
        for c in per_class:
            tp, fp, fn, p, r, f1 = bf_stats[c.tag_id]
            assert (c.tp, c.fp, c.fn) == (tp, fp, fn)
            assert c.f1 == pytest.approx(f1, abs=1e-12)

    @given(st.lists(
        st.tuples(st.sampled_from("ABCD"), st.sampled_from("ABCD")),
        min_size=1, max_size=60,
    ))
    def test_closed_world_count_identity(self, pairs):
        # predictions drawn from gold alphabet: sum(fp) == sum(fn) == n - sum(tp)
        golds = {g for g, _ in pairs}
        items = tuple((f"r{i}", g, p if p in golds else g)
                      for i, (g, p) in enumerate(pairs))
        _, _, _, per_class = macro_metrics(PredictionSet(items=items))
        total_tp = sum(c.tp for c in per_class)
        total_fp = sum(c.fp for c in per_class)
        total_fn = sum(c.fn for c in per_class)
        assert total_fp == total_fn == len(items) - total_tp

    @given(st.lists(
        st.tuples(st.sampled_from("ABCDE"), st.sampled_from("ABCDE")),
        min_size=1, max_size=60,
    ))
    def test_f1_is_harmonic_mean_when_both_positive(self, pairs):
        items = tuple((f"r{i}", g, p) for i, (g, p) in enumerate(pairs))
        _, _, _, per_class = macro_metrics(PredictionSet(items=items))
        for c in per_class:
            if c.precision > 0 and c.recall > 0:
                harmonic = 2 * c.precision * c.recall / (c.precision + c.recall)
                assert c.f1 == pytest.approx(harmonic, abs=1e-12)
            else:
                assert c.f1 == 0.0


class TestEvalReport:
    def test_avg_and_hits_identity(self):
        preds = pset(("r1", "A", "A"), ("r2", "A", "B"), ("r3", "B", "B"))
        report = evaluate_predictions(preds)
        assert report.avg == pytest.approx(
            (report.hits_at_1 + report.macro_p + report.macro_r
             + report.macro_f1) / 4)
        total_tp = sum(c.tp for c in report.per_class)
        assert report.hits_at_1 == pytest.approx(total_tp / report.n_records)
        assert report.n_records == 3
        assert report.n_classes == 2

    def test_to_dict_round_trips_fields(self):
        report = evaluate_predictions(pset(("r1", "A", "A")))
        doc = report.to_dict()
        assert doc["hits_at_1"] == 1.0
        assert doc["per_class"][0]["tag_id"] == "A"


class TestPredictionSet:
    def test_duplicate_record_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            pset(("r1", "A", "A"), ("r1", "B", "B"))

    def test_missing_gold_rejected(self):
        with pytest.raises(ValueError, match="gold"):
            pset(("r1", "", "A"))


class TestSweepTable:
    """Rendering; the sweep loop itself is tested through ``run_sweep``."""

    REPORT = evaluate_predictions(pset(("r1", "A", "A")))

    def test_render_text_shape(self):
        table = SweepTable(axis=SweepAxis.ITERATIONS, cells=(
            SweepCell(value=1, report=self.REPORT),
            SweepCell(value=2, report=None, error="cell exploded")))
        lines = table.render_text().splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert "Hits@1" in lines[0] and "AVG" in lines[0]
        assert lines[3].split()[:2] == ["2", "failed"]

    def test_to_dict(self):
        table = SweepTable(axis=SweepAxis.ORDERING, cells=(
            SweepCell(value="order-preserving", report=self.REPORT),))
        doc = table.to_dict()
        assert doc["axis"] == "ordering"
        assert doc["cells"][0]["report"]["hits_at_1"] == 1.0
        assert doc["cells"][0]["error"] is None
