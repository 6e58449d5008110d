"""Command-line entry point.

Subcommands: ``embed-index``, ``run``, ``evaluate``, ``sweep``, ``simulate``,
and ``cache stats|clear``.  Every run is driven by a JSON configuration file
plus flag overrides (precedence: flags > file > defaults) and writes a
manifest with the config snapshot, seed, backend ids, and cache counters, so
a finished run can be replayed bit-identically against a warm cache.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import backends as be
from .corpus import _iter_jsonl, _require_str, load_dataset, load_taxonomy
from .errors import ConfigError, TagRecError
from .evaluation import METRIC_COLUMNS, PredictionSet, SweepAxis, \
    evaluate_predictions, render_table
from .pipeline import jsonl_line, run_records, run_sweep
from .prompting import default_instruction, default_rerank_template
from .rerank import Ordering, RerankConfig, VoteMode
from .retrieval import VectorIndex, build_index
from .sim import OracleKind, OracleRanker, OracleSpec, recovery_experiment, \
    retrieval_like_weights

__all__ = ["main"]


DEFAULTS = {
    "taxonomy": None,
    "dataset": None,
    "index": None,
    "cache_dir": None,
    "trace_out": None,
    "predictions_out": "predictions.jsonl",
    "generator": "file",
    "embedder": "hash",
    "ranker": None,
    "instruction": None,
    "instruction_path": None,
    "top_k": 10,
    "group_size": 5,
    "iterations": 8,
    "ordering": "order-preserving",
    "vote_mode": "per-group",
    "seed": 0,
    "concurrency": None,  # None: the ranker's max_in_flight, or 1
}


# --------------------------------------------------------------------------
# Settings assembly


def _load_config_file(path: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = set(doc) - set(DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return doc


def _merge_settings(args: argparse.Namespace) -> dict:
    settings = dict(DEFAULTS)
    if getattr(args, "config", None):
        settings.update(_load_config_file(args.config))
    # Each flag is named after the setting it overrides.
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    return settings


def _choice(enum, value, name: str):
    try:
        return enum(value)
    except ValueError:
        raise ConfigError(
            f"{name} must be one of {[e.value for e in enum]}, got {value!r}"
        ) from None


def _rerank_config(settings: dict) -> RerankConfig:
    ordering = _choice(Ordering, settings["ordering"], "ordering")
    vote_mode = _choice(VoteMode, settings["vote_mode"], "vote_mode")
    try:
        return RerankConfig(
            group_size=int(settings["group_size"]),
            iterations=int(settings["iterations"]),
            ordering=ordering,
            seed=int(settings["seed"]),
            top_k=int(settings["top_k"]),
            vote_mode=vote_mode,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _instruction_text(settings: dict) -> str:
    if settings.get("instruction"):
        return settings["instruction"]
    if settings.get("instruction_path"):
        path = _require_path(settings, "instruction_path")
        return path.read_text(encoding="utf-8").rstrip("\n")
    return default_instruction()


def _require_path(settings: dict, key: str) -> Path:
    value = settings.get(key)
    if not value:
        raise ConfigError(f"{key} is required (flag --{key.replace('_', '-')})")
    path = Path(value)
    if not path.exists():
        raise ConfigError(f"{key} path does not exist: {path}")
    return path


# --------------------------------------------------------------------------
# Backend construction


def _spec_dict(spec) -> dict:
    if isinstance(spec, dict):
        return dict(spec)
    if isinstance(spec, str):
        if ":" in spec:
            kind, _, arg = spec.partition(":")
            return {"kind": kind, "arg": arg}
        return {"kind": spec}
    raise ConfigError(f"backend spec must be a string or object, got {spec!r}")


def _backend(build, spec, *args):
    """``build(spec, *args)``, with a bad value in the spec as a ConfigError.

    Every command builds its backends here, so a malformed or out-of-range
    spec value exits 2 with a message instead of a traceback.
    """
    try:
        return build(spec, *args)
    except (ValueError, TypeError, AttributeError) as exc:
        raise ConfigError(f"backend spec {spec!r}: {exc}") from None


def _http_client_kwargs(doc: dict) -> dict:
    """Shared remote-backend tuning: timeout, retry budget, rate limits."""
    kwargs = {"timeout": float(doc.get("timeout", 60.0))}
    retry = doc.get("retry")
    if retry is not None:
        kwargs["retry"] = be.RetryPolicy(
            max_attempts=int(retry.get("max_attempts", 4)),
            base_delay=float(retry.get("base_delay", 0.5)),
            factor=float(retry.get("factor", 2.0)),
            max_delay=float(retry.get("max_delay", 8.0)),
        )
    rate_limit = doc.get("rate_limit")
    if rate_limit is not None:
        kwargs["limiter"] = be.RateLimiter(
            max_in_flight=int(rate_limit.get("max_in_flight", 4)),
            min_interval=float(rate_limit.get("min_interval", 0.0)),
        )
    return kwargs


def _http_chat(cls, doc: dict):
    """A chat-completions generator or ranker from its ``http`` spec."""
    if "model" not in doc or "base_url" not in doc:
        raise ConfigError(f"http {cls.role} needs 'model' and 'base_url'")
    return cls(doc["model"], doc["base_url"],
               temperature=float(doc.get("temperature", 0.0)),
               system=doc.get("system"), **_http_client_kwargs(doc))


def _build_embedder(spec):
    doc = _spec_dict(spec)
    kind = doc.get("kind", "hash")
    if kind == "hash":
        dim = int(doc.get("dim", doc.get("arg", 256)))
        return be.HashEmbedder(dim=dim)
    if kind == "http":
        if "model" not in doc or "base_url" not in doc:
            raise ConfigError("http embedder needs 'model' and 'base_url'")
        return be.HttpEmbedder(doc["model"], doc["base_url"],
                               **_http_client_kwargs(doc))
    raise ConfigError(f"unknown embedder kind {kind!r}")


def _build_generator(spec):
    doc = _spec_dict(spec)
    kind = doc.get("kind", "file")
    if kind == "file":
        return be.FileBackedGenerator()
    if kind == "http":
        return _http_chat(be.HttpChatGenerator, doc)
    raise ConfigError(f"unknown generator kind {kind!r}")


def _oracle_spec(spec, seed: int) -> OracleSpec:
    doc = _spec_dict(spec)
    kind, arg = doc.get("kind"), doc.get("arg")
    if kind == "noisy":
        if not arg:
            raise ConfigError("noisy ranker needs an error rate, e.g. noisy:0.1")
        return OracleSpec(OracleKind.NOISY, error_rate=float(arg), seed=seed)
    return OracleSpec(OracleKind(kind), seed=seed)


def _build_ranker(spec, seed: int):
    if spec is None:
        raise ConfigError("ranker is required (flag --ranker)")
    doc = _spec_dict(spec)
    kind = doc.get("kind")
    oracle_kinds = {k.value for k in OracleKind}
    if kind in oracle_kinds:
        return OracleRanker(_oracle_spec(doc, seed))
    if kind == "http":
        return _http_chat(be.HttpChatRanker, doc)
    raise ConfigError(
        f"unknown ranker kind {kind!r}; expected http or one of "
        f"{sorted(oracle_kinds)}"
    )


def _wrap_with_cache(settings: dict, generator, embedder, ranker):
    """Attach the response cache to every backend that builds cache keys."""
    if not settings.get("cache_dir"):
        return generator, embedder, ranker
    cache = be.ResponseCache(settings["cache_dir"])

    def wrap(backend, caching):
        return caching(backend, cache) if hasattr(backend, "request_of") else backend
    return (wrap(generator, be.CachingGenerator),
            wrap(embedder, be.CachingEmbedder), wrap(ranker, be.CachingRanker))


# --------------------------------------------------------------------------
# Index handling


def _load_or_build_index(settings: dict, corpus, embedder) -> VectorIndex:
    index_path = settings.get("index")
    if index_path and Path(index_path).exists():
        index = VectorIndex.load(index_path)
        if tuple(index.tag_ids) != tuple(d.tag_id for d in corpus.docs):
            raise ConfigError(
                f"index {index_path} does not match the taxonomy "
                "(rebuild with embed-index)"
            )
        return index
    index = build_index(corpus, embedder)
    if index_path:
        index.save(index_path)
        print(f"built and saved index: {index_path}", file=sys.stderr)
    return index


def _pipeline_inputs(settings: dict, seed: int):
    """Corpus, records, backends (cached if configured) and index of a run."""
    corpus = load_taxonomy(_require_path(settings, "taxonomy"))
    records = load_dataset(_require_path(settings, "dataset"), corpus)
    generator, embedder, ranker = _wrap_with_cache(
        settings, _backend(_build_generator, settings["generator"]),
        _backend(_build_embedder, settings["embedder"]),
        _backend(_build_ranker, settings["ranker"], seed))
    index = _load_or_build_index(settings, corpus, embedder)
    return corpus, records, generator, embedder, ranker, index


# --------------------------------------------------------------------------
# Subcommands


def cmd_embed_index(args: argparse.Namespace) -> int:
    settings = _merge_settings(args)
    taxonomy_path = _require_path(settings, "taxonomy")
    index_path = settings.get("index")
    if not index_path:
        raise ConfigError("index output path is required (flag --index)")
    if Path(index_path).exists() and not args.force:
        raise ConfigError(
            f"index file exists: {index_path} (pass --force to overwrite)"
        )
    corpus = load_taxonomy(taxonomy_path)
    embedder = _backend(_build_embedder, settings["embedder"])
    index = build_index(corpus, embedder)
    index.save(index_path)
    print(f"indexed {len(index)} tag documents (dim {index.dim}) -> {index_path}")
    return 0


def _manifest(settings: dict, instruction: str, backend_ids: dict,
              cache_counters: dict, counts: dict) -> dict:
    return {
        "settings": {k: v for k, v in sorted(settings.items())},
        "seed": settings["seed"],
        "instruction_sha256": hashlib.sha256(
            instruction.encode("utf-8")).hexdigest(),
        "rerank_template_sha256": hashlib.sha256(
            default_rerank_template().encode("utf-8")).hexdigest(),
        "backend_ids": backend_ids,
        "cache": cache_counters,
        "counts": counts,
    }


def _concurrency(settings: dict) -> int | None:
    value = settings["concurrency"]
    return None if value is None else int(value)


def cmd_run(args: argparse.Namespace) -> int:
    settings = _merge_settings(args)
    config = _rerank_config(settings)
    instruction = _instruction_text(settings)
    corpus, records, generator, embedder, ranker, index = _pipeline_inputs(
        settings, config.seed)

    result = run_records(
        records, corpus, index, generator=generator, embedder=embedder,
        ranker=ranker, config=config, instruction=instruction,
        concurrency=_concurrency(settings),
    )

    predictions_path = Path(settings["predictions_out"])
    with predictions_path.open("w", encoding="utf-8") as fh:
        for line in result.predictions:
            fh.write(jsonl_line(line))
    if settings.get("trace_out"):
        with Path(settings["trace_out"]).open("w", encoding="utf-8") as fh:
            for trace in result.traces:
                fh.write(jsonl_line(trace))

    backends = {"generator": generator, "embedder": embedder, "ranker": ranker}
    counters = {name: backend.counter.snapshot()
                for name, backend in backends.items() if hasattr(backend, "counter")}
    backend_ids = {name: backend.backend_id for name, backend in backends.items()}
    manifest = _manifest(settings, instruction, backend_ids, counters,
                         result.counts)
    manifest_path = predictions_path.with_name(predictions_path.name
                                               + ".manifest.json")
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True)
                             + "\n", encoding="utf-8")

    rate = result.gold_in_top_k_rate()
    summary = (
        f"records={len(records)} predicted={len(result.predictions)} "
        f"skipped={len(result.skipped)} failed={len(result.failed)} "
        f"fallbacks={result.fallback_count}"
    )
    if rate is not None:
        summary += f" gold_in_top_k={rate:.4f}"
    print(summary)
    print(f"predictions -> {predictions_path}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    predictions_path = Path(args.predictions)
    if not predictions_path.exists():
        raise ConfigError(f"predictions path does not exist: {predictions_path}")
    dataset_path = Path(args.dataset)
    if not dataset_path.exists():
        raise ConfigError(f"dataset path does not exist: {dataset_path}")
    lines = [(_require_str(doc, "record_id", predictions_path, lineno),
              _require_str(doc, "predicted_tag_id", predictions_path, lineno))
             for lineno, doc in _iter_jsonl(predictions_path)]
    if not lines:
        raise ConfigError(f"{predictions_path}: no prediction lines")
    records = {r.record_id: r for r in load_dataset(dataset_path)}

    items = []
    no_gold = 0
    for record_id, predicted in lines:
        record = records.get(record_id)
        if record is None:
            raise ConfigError(f"prediction for unknown record_id {record_id!r}")
        if record.gold_tag_id is None:
            no_gold += 1
            continue
        items.append((record_id, record.gold_tag_id, predicted))
    if not items:
        raise ConfigError("no gold-bearing records to evaluate")
    try:
        preds = PredictionSet(items=tuple(items))
    except ValueError as exc:
        raise ConfigError(f"{predictions_path}: {exc}") from None
    report = evaluate_predictions(preds)

    print(render_table(METRIC_COLUMNS, [report.metric_cells()]))
    print(f"n_records={report.n_records} n_classes={report.n_classes} "
          f"skipped_no_gold={no_gold}")
    if args.out:
        Path(args.out).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"report -> {args.out}")
    return 0


def _parse_axis_values(axis: SweepAxis, raw: str) -> list:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError("--values must list at least one value")
    if axis is SweepAxis.ORDERING:
        return parts
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ConfigError(f"--values for {axis.value} must be integers") from None


def cmd_sweep(args: argparse.Namespace) -> int:
    settings = _merge_settings(args)
    template = _rerank_config(settings)
    instruction = _instruction_text(settings)
    axis = _choice(SweepAxis, args.axis, "--axis")
    values = _parse_axis_values(axis, args.values)
    corpus, records, generator, embedder, ranker, index = _pipeline_inputs(
        settings, template.seed)

    table = run_sweep(
        records, corpus, index, generator=generator, embedder=embedder,
        ranker=ranker, template=template, instruction=instruction,
        axis=axis, values=values, concurrency=_concurrency(settings),
    )
    print(table.render_text())
    if args.out:
        Path(args.out).write_text(
            json.dumps(table.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"table -> {args.out}")
    return 0 if all(not c.failed for c in table.cells) else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    settings = _merge_settings(args)
    config = _rerank_config(settings)
    spec = _backend(_oracle_spec, args.oracle, config.seed)
    if args.trials < 1:
        raise ConfigError("--trials must be >= 1")
    weights = None
    if args.gold_rank_prior == "retrieval-like":
        weights = retrieval_like_weights(config.top_k)
    rate = recovery_experiment(args.trials, config, spec,
                               gold_rank_weights=weights)
    summary = {
        "oracle": spec.label,
        "trials": args.trials,
        "top_k": config.top_k,
        "group_size": config.group_size,
        "iterations": config.iterations,
        "ordering": config.ordering.value,
        "vote_mode": config.vote_mode.value,
        "seed": config.seed,
        "gold_rank_prior": args.gold_rank_prior,
        "recovery_rate": rate,
    }
    print(json.dumps(summary, sort_keys=True))
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True)
                                  + "\n", encoding="utf-8")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    settings = _merge_settings(args)
    cache_dir = settings.get("cache_dir")
    if not cache_dir:
        raise ConfigError("cache directory is required (flag --cache-dir)")
    cache = be.ResponseCache(cache_dir)
    if args.cache_command == "stats":
        print(json.dumps(cache.stats(), sort_keys=True))
    else:  # "clear": argparse admits no other subcommand
        removed = cache.clear()
        print(f"removed {removed} cache entries from {cache_dir}")
    return 0


# --------------------------------------------------------------------------
# Parser


def _add_common_flags(parser: argparse.ArgumentParser,
                      *, rerank: bool = True, paths: bool = True) -> None:
    parser.add_argument("--config", help="JSON config file")
    if paths:
        parser.add_argument("--taxonomy", help="taxonomy JSONL path")
        parser.add_argument("--dataset", help="dataset JSONL path")
        parser.add_argument("--index", help="vector index path")
        parser.add_argument("--cache-dir", dest="cache_dir",
                            help="response cache directory")
        parser.add_argument("--generator", help="generator backend spec")
        parser.add_argument("--embedder", help="embedder backend spec")
        parser.add_argument("--ranker", help="ranker backend spec")
        parser.add_argument("--instruction-path", dest="instruction_path",
                            help="generation instruction template file")
        parser.add_argument("--concurrency", type=int,
                            help="records worked on at a time (default: "
                                 "the ranker's rate_limit.max_in_flight, "
                                 "or 1 for an in-process ranker)")
    if rerank:
        parser.add_argument("--top-k", dest="top_k", type=int,
                            help="retrieval depth")
        parser.add_argument("--group-size", dest="group_size", type=int,
                            help="re-ranking group size")
        parser.add_argument("--iterations", type=int,
                            help="re-ranking rounds")
        parser.add_argument("--ordering",
                            choices=[o.value for o in Ordering],
                            help="intra-group presentation order")
        parser.add_argument("--vote-mode", dest="vote_mode",
                            choices=[v.value for v in VoteMode],
                            help="vote counting semantics")
        parser.add_argument("--seed", type=int, help="base random seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tagrec",
        description="Match financial numerals to XBRL taxonomy tags: "
                    "generate, retrieve, tournament re-rank.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed-index", help="embed the taxonomy and persist "
                                           "the vector index")
    _add_common_flags(p, rerank=False)
    p.add_argument("--force", action="store_true",
                   help="overwrite an existing index file")
    p.set_defaults(func=cmd_embed_index)

    p = sub.add_parser("run", help="run the full pipeline over a dataset")
    _add_common_flags(p)
    p.add_argument("--trace-out", dest="trace_out",
                   help="write per-record re-ranking traces (JSONL)")
    p.add_argument("--predictions-out", dest="predictions_out",
                   help="predictions output path (JSONL)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("evaluate", help="score a predictions file")
    p.add_argument("--predictions", required=True, help="predictions JSONL")
    p.add_argument("--dataset", required=True, help="dataset JSONL with gold")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="evaluate one parameter across values")
    _add_common_flags(p)
    p.add_argument("--axis", required=True,
                   choices=[a.value for a in SweepAxis])
    p.add_argument("--values", required=True,
                   help="comma-separated axis values")
    p.add_argument("--out", help="write the JSON table here")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="oracle-ranker recovery experiment")
    _add_common_flags(p, paths=False)
    p.add_argument("--oracle", required=True,
                   help="perfect | noisy:<rate> | lexical | position-biased "
                        "| identity-echo")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--gold-rank-prior", dest="gold_rank_prior",
                   choices=["uniform", "retrieval-like"], default="uniform",
                   help="how gold's retrieval rank is drawn per trial")
    p.add_argument("--out", help="write the JSON summary here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("cache", help="inspect or clear the response cache")
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    for name, help_text in (("stats", "entry count and total bytes"),
                            ("clear", "delete all cache entries")):
        cp = cache_sub.add_parser(name, help=help_text)
        cp.add_argument("--config", help="JSON config file")
        cp.add_argument("--cache-dir", dest="cache_dir",
                        help="response cache directory")
        cp.set_defaults(func=cmd_cache)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TagRecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
