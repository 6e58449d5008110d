"""End-to-end record processing: generate, retrieve, re-rank, emit.

One record flows through three stages: obtain its generated tag document
(from the configured generator backend), retrieve the Top-k most similar
taxonomy documents, and run the tournament re-ranking to pick the final tag.
Records are independent, so a worker pool may process them concurrently;
every record re-ranks with a seed derived from (run seed, record_id), so
results do not depend on worker scheduling, and outputs are ordered by
record_id regardless of completion order.

Per-record failures never abort a run: records missing a stored generation
are counted as skips, other per-record errors are counted as failures, and
the run only fails on systemic problems (bad config, unusable index).
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

from .backends import GeneratorBackend, RankerBackend, generate
from .corpus import NumeralRecord, TaxonomyCorpus
from .errors import ConfigError, MissingGenerationError
from .evaluation import EvalReport, PredictionSet, SweepAxis, SweepTable, \
    evaluate_predictions, sweep
from .prompting import assemble_generation_input
from .rerank import Ordering, RerankConfig, derive_seed, rerank_record
from .retrieval import EmbedderBackend, IndexScan, VectorIndex, retrieve

__all__ = [
    "RunResult",
    "run_records",
    "apply_axis",
    "run_sweep",
    "jsonl_line",
]


def jsonl_line(obj: dict) -> str:
    """Canonical one-line JSON used for predictions and traces."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False) + "\n"


@dataclass
class RunResult:
    predictions: list[dict]
    traces: list[dict]
    skipped: list[dict]
    failed: list[dict]
    fallback_count: int

    @property
    def counts(self) -> dict:
        return {
            "predicted": len(self.predictions),
            "skipped": len(self.skipped),
            "failed": len(self.failed),
            "fallbacks": self.fallback_count,
        }

    def gold_in_top_k_rate(self) -> float | None:
        """Retrieval ceiling: how often the gold tag survived into Top-k."""
        scored = [p for p in self.predictions if p["gold_tag_id"] is not None]
        if not scored:
            return None
        return sum(1 for p in scored if p["gold_in_top_k"]) / len(scored)

    def prediction_set(self) -> PredictionSet:
        """Gold-bearing predictions as an evaluable set."""
        items = tuple(
            (p["record_id"], p["gold_tag_id"], p["predicted_tag_id"])
            for p in self.predictions
            if p["gold_tag_id"] is not None
        )
        return PredictionSet(items=items)


def _process_record(
    record: NumeralRecord,
    corpus_texts: dict[str, str],
    scan: IndexScan,
    generator: GeneratorBackend,
    embedder: EmbedderBackend,
    ranker: RankerBackend,
    config: RerankConfig,
    instruction: str,
) -> tuple[str, dict | None, dict | None, str | None]:
    """Returns (status, prediction, trace, reason)."""
    assembled = assemble_generation_input(instruction, record)
    try:
        gen_doc = generate(assembled, generator, record)
    except MissingGenerationError as exc:
        return "skipped", None, None, str(exc)
    candidates = retrieve(record, gen_doc, scan, embedder, config.top_k)
    record_cfg = replace(config, seed=derive_seed(config.seed, record.record_id))
    predicted, trace = rerank_record(
        gen_doc, candidates, corpus_texts, record_cfg, ranker,
        record_id=record.record_id, gold_tag_id=record.gold_tag_id,
    )
    candidate_ids = {c.tag_id for c in candidates}
    prediction = {
        "record_id": record.record_id,
        "predicted_tag_id": predicted,
        "gold_tag_id": record.gold_tag_id,
        "votes": dict(sorted(trace.tally.counts.items())),
        "gold_in_top_k": record.gold_tag_id in candidate_ids,
    }
    return "ok", prediction, trace.to_dict(), None


def run_records(
    records: Sequence[NumeralRecord],
    corpus: TaxonomyCorpus,
    index: VectorIndex,
    *,
    generator: GeneratorBackend,
    embedder: EmbedderBackend,
    ranker: RankerBackend,
    config: RerankConfig,
    instruction: str,
    concurrency: int = 1,
) -> RunResult:
    """Run the full pipeline over a dataset.

    The index is prepared for scanning once per call; the scan is dropped
    when the call returns (see :mod:`tagrec.retrieval`).
    """
    if config.top_k > len(index):
        raise ConfigError(
            f"top_k={config.top_k} exceeds the index size {len(index)}"
        )
    if tuple(index.tag_ids) != tuple(d.tag_id for d in corpus.docs):
        raise ConfigError("index tag_ids do not match the taxonomy")
    if concurrency < 1:
        raise ConfigError("concurrency must be >= 1")

    corpus_texts = corpus.texts()
    scan = IndexScan(index)

    def work(record: NumeralRecord):
        try:
            return record.record_id, _process_record(
                record, corpus_texts, scan, generator, embedder, ranker,
                config, instruction,
            )
        except Exception as exc:
            return record.record_id, ("failed", None, None, str(exc))

    if concurrency == 1:
        outcomes = [work(r) for r in records]
    else:
        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            outcomes = list(pool.map(work, records))

    predictions: list[dict] = []
    traces: list[dict] = []
    skipped: list[dict] = []
    failed: list[dict] = []
    fallback_count = 0
    for record_id, (status, prediction, trace, reason) in sorted(outcomes):
        if status == "ok":
            predictions.append(prediction)
            traces.append(trace)
            fallback_count += len(trace["fallback_events"])
        elif status == "skipped":
            skipped.append({"record_id": record_id, "reason": reason})
        else:
            failed.append({"record_id": record_id, "reason": reason})
    return RunResult(predictions=predictions, traces=traces, skipped=skipped,
                     failed=failed, fallback_count=fallback_count)


def apply_axis(config: RerankConfig, axis: SweepAxis, value) -> RerankConfig:
    """Override the single swept field on an otherwise fixed configuration."""
    if axis is SweepAxis.ITERATIONS:
        return replace(config, iterations=int(value))
    if axis is SweepAxis.GROUP_SIZE:
        return replace(config, group_size=int(value))
    if axis is SweepAxis.ORDERING:
        ordering = value if isinstance(value, Ordering) else Ordering(str(value))
        return replace(config, ordering=ordering)
    raise ConfigError(f"unknown sweep axis {axis!r}")


def run_sweep(
    records: Sequence[NumeralRecord],
    corpus: TaxonomyCorpus,
    index: VectorIndex,
    *,
    generator: GeneratorBackend,
    embedder: EmbedderBackend,
    ranker: RankerBackend,
    template: RerankConfig,
    instruction: str,
    axis: SweepAxis,
    values: Sequence[object],
    concurrency: int = 1,
) -> SweepTable:
    """One pipeline evaluation per axis value; failed cells do not abort."""

    def cell(value) -> EvalReport:
        config = apply_axis(template, axis, value)
        result = run_records(
            records, corpus, index, generator=generator, embedder=embedder,
            ranker=ranker, config=config, instruction=instruction,
            concurrency=concurrency,
        )
        return evaluate_predictions(result.prediction_set())

    return sweep(axis, values, cell)
