"""End-to-end record processing: generate, retrieve, re-rank, emit.

One record flows through three stages: obtain its generated tag document
(from the configured generator backend), retrieve the Top-k most similar
taxonomy documents, and run the tournament re-ranking to pick the final tag.
Records are independent, so a worker pool may process them concurrently;
every record re-ranks with a seed derived from (run seed, record_id), so
results do not depend on worker scheduling, and outputs are ordered by
record_id regardless of completion order.  By default a run works on
twice as many records at a time as the ranker lets calls be in flight
(``max_in_flight``, which remote rankers take from their rate limiter and
hold there): while one record generates, embeds its query or counts its
votes, another already waits at the ranker's limiter for the slot it
freed, so the calls in flight stay at the cap.  A ranker without a cap,
such as an in-process oracle, gets one record at a time.  A record's own
ranker calls are made one after another, on its own thread.

Each record is generated, retrieved and re-ranked on one thread, the
caller's or a record worker's, which takes records from a shared queue
until none is left or the run stops.  It stops at the first
:class:`ConfigError`, so an embedder of the wrong width is asked about once
per worker (up to twice the ranker's cap by default) before the run fails,
and when the caller leaves, as on ``KeyboardInterrupt``: each worker ends
the record it holds and is joined before the exception goes on.  Retrieval
scores only the query's nonzero dimensions (see :mod:`tagrec.retrieval`),
which for hash-bag queries costs about a tenth of a millisecond at 5,000
tags, so it needs no thread of its own.

Per-record failures never abort a run: records missing a stored generation
are counted as skips, other per-record errors are counted as failures, and
the run only fails on systemic problems, raised as :class:`ConfigError` (bad
config, unusable index, an embedder whose vectors do not fit the index).
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

from .backends import GeneratorBackend, RankerBackend, RateLimiter, generate
from .corpus import NumeralRecord, TaxonomyCorpus
from .errors import ConfigError, MissingGenerationError, integer
from .evaluation import PredictionSet, SweepAxis, SweepCell, SweepTable, \
    evaluate_predictions
from .prompting import assemble_generation_input
from .rerank import RerankConfig, derive_seed, rerank_record
from .retrieval import EmbedderBackend, VectorIndex, retrieve

__all__ = [
    "MAX_CONCURRENCY",
    "RunResult",
    "run_records",
    "apply_axis",
    "run_sweep",
    "jsonl_line",
]


# The largest record count a run takes: the default for a ranker at the
# largest cap a rate limiter allows.  Each record in flight has a thread.
MAX_CONCURRENCY = 2 * RateLimiter.MAX_IN_FLIGHT


def _check_concurrency(concurrency) -> None:
    """A ConfigError unless ``concurrency`` records may be in flight."""
    try:
        integer("concurrency", concurrency, 1, MAX_CONCURRENCY)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def jsonl_line(obj: dict) -> str:
    """Canonical one-line JSON used for predictions and traces."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False) + "\n"


@dataclass
class RunResult:
    predictions: list[dict]
    traces: list[dict]
    skipped: list[dict]
    failed: list[dict]

    @property
    def counts(self) -> dict:
        return {
            "predicted": len(self.predictions),
            "skipped": len(self.skipped),
            "failed": len(self.failed),
            "fallbacks": sum(len(t["fallback_events"]) for t in self.traces),
        }

    def gold_in_top_k_rate(self) -> float | None:
        """Retrieval ceiling: how often the gold tag survived into Top-k."""
        scored = [p for p in self.predictions if p["gold_tag_id"] is not None]
        if not scored:
            return None
        return sum(1 for p in scored if p["gold_in_top_k"]) / len(scored)

    def prediction_set(self) -> PredictionSet:
        """Gold-bearing predictions as an evaluable set (a ValueError if none)."""
        items = tuple(
            (p["record_id"], p["gold_tag_id"], p["predicted_tag_id"])
            for p in self.predictions
            if p["gold_tag_id"] is not None
        )
        return PredictionSet(items=items)


def _reranked(record: NumeralRecord, gen_doc: str, candidates: list,
              corpus_texts: dict[str, str], ranker: RankerBackend,
              config: RerankConfig) -> tuple[dict, dict]:
    """The prediction and trace of a record with its candidates."""
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
    return prediction, trace.to_dict()


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
    concurrency: int | None = None,
) -> RunResult:
    """Run the full pipeline over a dataset.

    ``concurrency`` is the number of records worked on at a time, from 1
    to :data:`MAX_CONCURRENCY`; ``None`` takes twice the ranker's
    ``max_in_flight``, or 1 for a ranker without one.  The ranker's own
    limiter holds its calls in flight at that cap, and each record's calls
    are made one after another.  The worker pool is made once per call
    and dropped before the call returns or raises.
    """
    if concurrency is None:
        cap = getattr(ranker, "max_in_flight", None)
        concurrency = min(2 * cap, MAX_CONCURRENCY) if cap else 1
    if config.top_k > len(index):
        raise ConfigError(
            f"top_k={config.top_k} exceeds the index size {len(index)}"
        )
    if tuple(index.tag_ids) != tuple(d.tag_id for d in corpus.docs):
        raise ConfigError("index tag_ids do not match the taxonomy")
    _check_concurrency(concurrency)

    corpus_texts = corpus.texts()
    lock = threading.Lock()
    queue = iter(records)
    stop = threading.Event()

    def take() -> NumeralRecord | None:
        with lock:
            return None if stop.is_set() else next(queue, None)

    def work() -> list:
        """Process records on this thread until none is left or the run
        stops; a ConfigError stops it."""
        done: list = []
        for record in iter(take, None):
            try:
                gen_doc = generate(assemble_generation_input(instruction, record),
                                   generator)
                candidates = retrieve(record, gen_doc, index, embedder,
                                      config.top_k)
                outcome = "ok", _reranked(record, gen_doc, candidates,
                                          corpus_texts, ranker, config)
            except MissingGenerationError as exc:
                outcome = "skipped", str(exc)
            except ConfigError:
                stop.set()
                raise
            except Exception as exc:
                outcome = "failed", str(exc)
            done.append((record.record_id, *outcome))
        return done

    workers = min(concurrency, len(records))
    if workers <= 1:
        outcomes = work()
    else:
        with ThreadPoolExecutor(workers, thread_name_prefix="tagrec-record") as pool:
            try:
                futures = [pool.submit(work) for _ in range(workers)]
                outcomes = [o for f in futures for o in f.result()]
            finally:  # however the caller leaves, no worker takes another
                stop.set()

    predictions: list[dict] = []
    traces: list[dict] = []
    skipped: list[dict] = []
    failed: list[dict] = []
    for record_id, status, value in sorted(outcomes):
        if status == "ok":
            prediction, trace = value
            predictions.append(prediction)
            traces.append(trace)
        else:
            (skipped if status == "skipped" else failed).append(
                {"record_id": record_id, "reason": value})
    return RunResult(predictions=predictions, traces=traces, skipped=skipped,
                     failed=failed)


def apply_axis(config: RerankConfig, axis: SweepAxis, value) -> RerankConfig:
    """Override the single swept field on an otherwise fixed configuration.

    A string ``value`` is parsed as the field's type, so ``"4"`` sweeps
    like ``4`` and ``"order-shuffled"`` like ``Ordering.ORDER_SHUFFLED``;
    any other value goes to :class:`RerankConfig` as it is, to be checked.
    """
    field = axis.value.replace("-", "_")
    if isinstance(value, str):
        value = type(getattr(config, field))(value)
    return replace(config, **{field: value})


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
    concurrency: int | None = None,
) -> SweepTable:
    """One pipeline evaluation per axis value.

    A failed cell is marked and the sweep goes on; a :class:`ConfigError` is
    systemic, as in :func:`run_records`, and aborts it.
    """
    if not values:
        raise ValueError("values must be non-empty")
    cells: list[SweepCell] = []
    for value in values:
        try:
            config = apply_axis(template, axis, value)
            result = run_records(
                records, corpus, index, generator=generator, embedder=embedder,
                ranker=ranker, config=config, instruction=instruction,
                concurrency=concurrency,
            )
            cells.append(SweepCell(value=value, report=evaluate_predictions(
                result.prediction_set())))
        except ConfigError:  # every cell would fail alike
            raise
        except Exception as exc:
            cells.append(SweepCell(value=value, report=None, error=str(exc)))
    return SweepTable(axis=axis, cells=tuple(cells))
