"""Prediction scoring (Hits@1, macro precision/recall/F1) and parameter sweeps.

The tag universe is extremely long-tailed, so headline quality is tracked
with macro-averaged per-class metrics next to plain top-1 accuracy.  The
class universe is the set of gold tags present in the evaluated items;
classes that only ever appear as predictions do not add rows.

In this single-label setting, per class c:

    tp_c = #(gold=c and pred=c)
    fp_c = #(gold!=c and pred=c)
    fn_c = #(gold=c and pred!=c)

with precision/recall defined as 0 when their denominator is 0, and F1
computed as 2*tp / (2*tp + fp + fn) (the harmonic mean of precision and
recall whenever both are positive, and 0 exactly when both are 0).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Sequence

__all__ = [
    "PredictionSet",
    "ClassStats",
    "EvalReport",
    "SweepAxis",
    "SweepCell",
    "SweepTable",
    "hits_at_1",
    "macro_metrics",
    "evaluate_predictions",
    "render_table",
]


@dataclass(frozen=True)
class PredictionSet:
    """(record_id, gold_tag_id, predicted_tag_id) triples, gold required."""

    items: tuple[tuple[str, str, str], ...]

    def __post_init__(self) -> None:
        if not self.items:
            raise ValueError("prediction set is empty")
        seen: set[str] = set()
        for record_id, gold, predicted in self.items:
            if record_id in seen:
                raise ValueError(f"duplicate record_id {record_id!r}")
            seen.add(record_id)
            if not gold:
                raise ValueError(f"record {record_id!r} has no gold tag")
            if not predicted:
                raise ValueError(f"record {record_id!r} has no prediction")

    def __len__(self) -> int:
        return len(self.items)


@dataclass(frozen=True)
class ClassStats:
    tag_id: str
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class EvalReport:
    hits_at_1: float
    macro_p: float
    macro_r: float
    macro_f1: float
    avg: float
    per_class: tuple[ClassStats, ...]
    n_records: int
    n_classes: int

    def to_dict(self) -> dict:
        """Every field by name, ``per_class`` as a list of dicts."""
        doc = asdict(self)
        doc["per_class"] = list(doc["per_class"])
        return doc

    def metric_cells(self) -> list[str]:
        """The five headline metrics, as the text tables print them."""
        return [f"{v:.4f}" for v in (self.hits_at_1, self.macro_p,
                                     self.macro_r, self.macro_f1, self.avg)]


METRIC_COLUMNS = ("Hits@1", "M-P", "M-R", "M-F1", "AVG")


def render_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Left-aligned columns two spaces apart, a dashed rule under the header."""
    widths = [max(len(h), *(len(row[i]) for row in rows))
              for i, h in enumerate(header)]

    def fmt(row):
        return "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
    lines = [fmt(header), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def hits_at_1(preds: PredictionSet) -> float:
    """Fraction of records whose prediction equals the gold tag."""
    correct = sum(1 for _, gold, predicted in preds.items if gold == predicted)
    return correct / len(preds.items)


def macro_metrics(preds: PredictionSet) -> tuple[float, float, float, tuple[ClassStats, ...]]:
    """Unweighted per-class precision/recall/F1 means over the gold universe."""
    gold_count = Counter(g for _, g, _ in preds.items)
    pred_count = Counter(p for _, _, p in preds.items)
    hit_count = Counter(g for _, g, p in preds.items if g == p)
    per_class: list[ClassStats] = []
    for cls in sorted(gold_count):
        tp = hit_count[cls]
        fp = pred_count[cls] - tp
        fn = gold_count[cls] - tp
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn > 0 else 0.0
        per_class.append(ClassStats(tag_id=cls, tp=tp, fp=fp, fn=fn,
                                    precision=precision, recall=recall, f1=f1))
    n = len(per_class)
    macro_p = sum(c.precision for c in per_class) / n
    macro_r = sum(c.recall for c in per_class) / n
    macro_f1 = sum(c.f1 for c in per_class) / n
    return macro_p, macro_r, macro_f1, tuple(per_class)


def evaluate_predictions(preds: PredictionSet) -> EvalReport:
    """Full report: Hits@1, macro metrics, and their plain mean."""
    h1 = hits_at_1(preds)
    macro_p, macro_r, macro_f1, per_class = macro_metrics(preds)
    return EvalReport(
        hits_at_1=h1,
        macro_p=macro_p,
        macro_r=macro_r,
        macro_f1=macro_f1,
        avg=(h1 + macro_p + macro_r + macro_f1) / 4,
        per_class=per_class,
        n_records=len(preds.items),
        n_classes=len(per_class),
    )


# --------------------------------------------------------------------------
# Parameter sweeps


class SweepAxis(Enum):
    ITERATIONS = "iterations"
    GROUP_SIZE = "group-size"
    ORDERING = "ordering"


@dataclass(frozen=True)
class SweepCell:
    value: object
    report: EvalReport | None
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.report is None

    @property
    def label(self) -> str:
        """The value as the CLI spells it: an enum by its ``value``."""
        return str(getattr(self.value, "value", self.value))


@dataclass(frozen=True)
class SweepTable:
    axis: SweepAxis
    cells: tuple[SweepCell, ...]

    def to_dict(self) -> dict:
        return {
            "axis": self.axis.value,
            "cells": [
                {
                    "value": cell.label,
                    "report": cell.report.to_dict() if cell.report else None,
                    "error": cell.error,
                }
                for cell in self.cells
            ],
        }

    def render_text(self) -> str:
        """Aligned table with one row per axis value."""
        rows = [[cell.label] + (cell.report.metric_cells() if cell.report
                                else ["failed", "-", "-", "-", "-"])
                for cell in self.cells]
        return render_table((self.axis.value, *METRIC_COLUMNS), rows)
