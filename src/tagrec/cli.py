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
from enum import EnumMeta
from pathlib import Path

from . import backends as be
from .corpus import _iter_jsonl, _require_str, load_dataset, load_taxonomy
from .errors import ConfigError, TagRecError
from .evaluation import METRIC_COLUMNS, PredictionSet, SweepAxis, \
    evaluate_predictions, render_table
from .pipeline import apply_axis, jsonl_line, run_records, run_sweep
from .prompting import default_instruction, default_rerank_template
from .rerank import Ordering, RerankConfig, VoteMode
from .retrieval import VectorIndex, build_index
from .sim import OracleKind, OracleRanker, OracleSpec, recovery_experiment, \
    retrieval_like_weights

__all__ = ["main"]


BACKEND = "backend"  # a spec string such as hash:64, or a JSON object

# Every setting a --config file may hold, as (default, kind, flag help); each
# is also a flag of the same name on the subcommands that read it.  Kinds are
# int, str, an Enum class and BACKEND; only a setting whose default is None
# may be null.
SETTINGS = {
    "taxonomy": (None, str, "taxonomy JSONL path"),
    "dataset": (None, str, "dataset JSONL path"),
    "index": (None, str, "vector index path"),
    "cache_dir": (None, str, "response cache directory"),
    "generator": ("file", BACKEND, "generator backend spec"),
    "embedder": ("hash", BACKEND, "embedder backend spec"),
    "ranker": (None, BACKEND, "ranker backend spec"),
    "instruction_path": (None, str, "generation instruction template file"),
    "concurrency": (None, int, "records worked on at a time (default: the "
                    "ranker's rate_limit.max_in_flight, or 1 for an "
                    "in-process ranker)"),
    "top_k": (10, int, "retrieval depth"),
    "group_size": (5, int, "re-ranking group size"),
    "iterations": (8, int, "re-ranking rounds"),
    "ordering": ("order-preserving", Ordering, "intra-group presentation order"),
    "vote_mode": ("per-group", VoteMode, "vote counting semantics"),
    "seed": (0, int, "base random seed"),
    "trace_out": (None, str, "write per-record re-ranking traces (JSONL)"),
    "predictions_out": ("predictions.jsonl", str, "predictions output path (JSONL)"),
}

RERANK_SETTINGS = ("top_k", "group_size", "iterations", "ordering",
                   "vote_mode", "seed")
PIPELINE_SETTINGS = ("taxonomy", "dataset", "index", "cache_dir", "generator",
                     "embedder", "ranker", "instruction_path", "concurrency",
                     *RERANK_SETTINGS)


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
    unknown = set(doc) - set(SETTINGS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return doc


def _convert(key: str, value):
    """``value`` as setting ``key`` holds it, or a ConfigError naming it."""
    default, kind, _ = SETTINGS[key]
    if value is None and default is None:
        return None
    if isinstance(kind, EnumMeta):
        try:
            return kind(value)
        except (TypeError, ValueError):
            raise ConfigError(f"{key} must be one of "
                              f"{[e.value for e in kind]}, got {value!r}") from None
    if kind is int:
        try:
            return int(value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"{key} must be an integer, got {value!r}") from None
    if isinstance(value, str) or (kind is BACKEND and isinstance(value, dict)):
        return value
    expected = "a backend spec string or object" if kind is BACKEND else "a string"
    raise ConfigError(f"{key} must be {expected}, got {value!r}")


def _merge_settings(args: argparse.Namespace) -> dict:
    settings = {key: default for key, (default, _, _) in SETTINGS.items()}
    if getattr(args, "config", None):
        settings.update(_load_config_file(args.config))
    # Each flag is named after the setting it overrides.
    for key in SETTINGS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    return {key: _convert(key, value) for key, value in settings.items()}


def _rerank_config(settings: dict) -> RerankConfig:
    try:
        return RerankConfig(**{key: settings[key] for key in RERANK_SETTINGS})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _instruction_text(settings: dict) -> str:
    if settings["instruction_path"]:
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


def _write_json(path, doc) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


# --------------------------------------------------------------------------
# Backend construction


def _spec_dict(spec, arg_key: str = "arg") -> dict:
    """A spec object, or a ``kind[:arg]`` string with ``arg`` as ``arg_key``."""
    if isinstance(spec, dict):
        return dict(spec)
    if spec.startswith("{"):
        raise ConfigError(f"backend spec {spec!r}: a backend object goes in a "
                          "--config file, as a JSON object")
    kind, colon, arg = spec.partition(":")
    return {"kind": kind, arg_key: arg} if colon else {"kind": kind}


def _backend(build, spec, *args):
    """``build(spec, *args)``, with a bad value in the spec as a ConfigError.

    Every command builds its backends here, so a malformed or out-of-range
    spec value exits 2 with a message instead of a traceback.
    """
    try:
        return build(spec, *args)
    except (ValueError, TypeError, AttributeError) as exc:
        raise ConfigError(f"backend spec {spec!r}: {exc}") from None


def _options(doc, types: dict, what: str) -> dict:
    """The keys ``doc`` gives, each converted by ``types``; no other keys.

    A key left out stays out, so the backend's own default applies.
    """
    if not isinstance(doc, dict):
        raise TypeError(f"{what} must be an object, got {doc!r}")
    unknown = set(doc) - set(types)
    if unknown:
        raise ValueError(f"unknown {what} keys: {', '.join(sorted(unknown))}")
    return {key: types[key](value) for key, value in doc.items()}


def _as_given(value):
    return value


def _nested(cls, what: str, **types):
    """A converter of a nested spec object into ``cls``; null is the default."""
    return lambda doc: None if doc is None else cls(**_options(doc, types, what))


_HTTP_KEYS = {
    "model": _as_given, "base_url": _as_given, "timeout": float,
    "retry": _nested(be.RetryPolicy, "retry", max_attempts=int,
                     base_delay=float, factor=float, max_delay=float),
    "rate_limit": _nested(be.RateLimiter, "rate_limit", max_in_flight=int,
                          min_interval=float),
}
_HTTP_CHAT_KEYS = {**_HTTP_KEYS, "temperature": float, "system": _as_given}


def _http(cls, role: str, doc: dict, keys: dict):
    """An http backend built from the keys its spec gives."""
    kwargs = _options(doc, keys, f"http {role}")
    if "model" not in kwargs or "base_url" not in kwargs:
        raise ConfigError(f"http {role} needs 'model' and 'base_url'")
    if "rate_limit" in kwargs:
        kwargs["limiter"] = kwargs.pop("rate_limit")
    return cls(kwargs.pop("model"), kwargs.pop("base_url"), **kwargs)


def _build_embedder(spec):
    doc = _spec_dict(spec, "dim")
    kind = doc.pop("kind", "hash")
    if kind == "hash":
        return be.HashEmbedder(**_options(doc, {"dim": int}, "hash embedder"))
    if kind == "http":
        return _http(be.HttpEmbedder, "embedder", doc, _HTTP_KEYS)
    raise ConfigError(f"unknown embedder kind {kind!r}")


def _build_generator(spec):
    doc = _spec_dict(spec)
    kind = doc.pop("kind", "file")
    if kind == "file":
        return be.FileBackedGenerator(**_options(doc, {}, "file generator"))
    if kind == "http":
        return _http(be.HttpChatGenerator, "generator", doc, _HTTP_CHAT_KEYS)
    raise ConfigError(f"unknown generator kind {kind!r}")


def _oracle_spec(spec, seed: int) -> OracleSpec:
    doc = _spec_dict(spec, "error_rate")
    kind = OracleKind(doc.pop("kind", None))
    return OracleSpec(kind, seed=seed, **_options(
        doc, {"error_rate": float}, f"{kind.value} ranker"))


def _build_ranker(spec, seed: int):
    if spec is None:
        raise ConfigError("ranker is required (flag --ranker)")
    doc = _spec_dict(spec, "error_rate")
    oracle_kinds = {k.value for k in OracleKind}
    if doc.get("kind") in oracle_kinds:
        return OracleRanker(_oracle_spec(doc, seed))
    kind = doc.pop("kind", None)
    if kind == "http":
        return _http(be.HttpChatRanker, "ranker", doc, _HTTP_CHAT_KEYS)
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


def _pipeline_inputs(settings: dict):
    """Corpus, records, backends (cached if configured) and index of a run."""
    corpus = load_taxonomy(_require_path(settings, "taxonomy"))
    records = load_dataset(_require_path(settings, "dataset"), corpus)
    generator, embedder, ranker = _wrap_with_cache(
        settings, _backend(_build_generator, settings["generator"]),
        _backend(_build_embedder, settings["embedder"]),
        _backend(_build_ranker, settings["ranker"], settings["seed"]))
    index = _load_or_build_index(settings, corpus, embedder)
    return corpus, records, generator, embedder, ranker, index


# --------------------------------------------------------------------------
# Subcommands


def cmd_embed_index(args: argparse.Namespace) -> int:
    settings = _merge_settings(args)
    taxonomy_path = _require_path(settings, "taxonomy")
    index_path = settings["index"]
    if not index_path:
        raise ConfigError("index output path is required (flag --index)")
    if Path(index_path).exists() and not args.force:
        raise ConfigError(
            f"index file exists: {index_path} (pass --force to overwrite)"
        )
    corpus = load_taxonomy(taxonomy_path)
    _, embedder, _ = _wrap_with_cache(
        settings, None, _backend(_build_embedder, settings["embedder"]), None)
    index = build_index(corpus, embedder)
    index.save(index_path)
    print(f"indexed {len(index)} tag documents (dim {index.dim}) -> {index_path}")
    return 0


def _json_settings(settings: dict, keys=SETTINGS) -> dict:
    """The settings ``keys`` as JSON holds them: enums by value."""
    return {key: getattr(settings[key], "value", settings[key]) for key in keys}


def _manifest(settings: dict, instruction: str, backends: dict,
              counts: dict) -> dict:
    return {
        "settings": _json_settings(settings),
        "seed": settings["seed"],
        "instruction_sha256": hashlib.sha256(
            instruction.encode("utf-8")).hexdigest(),
        "rerank_template_sha256": hashlib.sha256(
            default_rerank_template().encode("utf-8")).hexdigest(),
        "backend_ids": {name: backend.backend_id
                        for name, backend in backends.items()},
        "cache": {name: backend.counter.snapshot()
                  for name, backend in backends.items()
                  if hasattr(backend, "counter")},
        "counts": counts,
    }


def cmd_run(args: argparse.Namespace) -> int:
    settings = _merge_settings(args)
    # The outputs are written after every record has run: a missing
    # directory is reported before that work, not after it.
    for key in ("predictions_out", "trace_out"):
        if settings[key] and not Path(settings[key]).parent.is_dir():
            raise ConfigError(f"{key} {settings[key]}: its directory "
                              "does not exist")
    config = _rerank_config(settings)
    instruction = _instruction_text(settings)
    corpus, records, generator, embedder, ranker, index = _pipeline_inputs(
        settings)

    result = run_records(
        records, corpus, index, generator=generator, embedder=embedder,
        ranker=ranker, config=config, instruction=instruction,
        concurrency=settings["concurrency"],
    )

    predictions_path = Path(settings["predictions_out"])
    with predictions_path.open("w", encoding="utf-8") as fh:
        for line in result.predictions:
            fh.write(jsonl_line(line))
    if settings["trace_out"]:
        with Path(settings["trace_out"]).open("w", encoding="utf-8") as fh:
            for trace in result.traces:
                fh.write(jsonl_line(trace))

    backends = {"generator": generator, "embedder": embedder, "ranker": ranker}
    _write_json(predictions_path.with_name(predictions_path.name
                                           + ".manifest.json"),
                _manifest(settings, instruction, backends, result.counts))

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
    predictions_path = _require_path(vars(args), "predictions")
    dataset_path = _require_path(vars(args), "dataset")
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
        _write_json(args.out, report.to_dict())
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
    axis = SweepAxis(args.axis)
    values = _parse_axis_values(axis, args.values)
    for value in values:  # checked as its flag would be, before any record runs
        try:
            apply_axis(template, axis, value)
        except ValueError as exc:
            raise ConfigError(f"--values {value}: {exc}") from None
    corpus, records, generator, embedder, ranker, index = _pipeline_inputs(
        settings)

    table = run_sweep(
        records, corpus, index, generator=generator, embedder=embedder,
        ranker=ranker, template=template, instruction=instruction,
        axis=axis, values=values, concurrency=settings["concurrency"],
    )
    print(table.render_text())
    if args.out:
        _write_json(args.out, table.to_dict())
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
        **_json_settings(settings, RERANK_SETTINGS),
        "gold_rank_prior": args.gold_rank_prior,
        "recovery_rate": rate,
    }
    print(json.dumps(summary, sort_keys=True))
    if args.out:
        _write_json(args.out, summary)
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    settings = _merge_settings(args)
    cache_dir = settings["cache_dir"]
    if not cache_dir:
        raise ConfigError("cache directory is required (flag --cache-dir)")
    if not Path(cache_dir).is_dir():  # a ResponseCache would make it
        raise ConfigError(f"cache directory does not exist: {cache_dir}")
    cache = be.ResponseCache(cache_dir)
    if args.cache_command == "stats":
        print(json.dumps(cache.stats(), sort_keys=True))
    else:  # "clear": argparse admits no other subcommand
        removed = cache.clear()
        print(f"removed {removed} cache entries from {cache_dir}")
    return 0


# --------------------------------------------------------------------------
# Parser


def _add_settings(parser: argparse.ArgumentParser, keys) -> None:
    """``--config``, and one flag for each setting in ``keys``, named after it."""
    parser.add_argument("--config", help="JSON config file")
    for key in keys:
        _, kind, help_text = SETTINGS[key]
        if isinstance(kind, EnumMeta):
            help_text += f" ({' | '.join(e.value for e in kind)})"
        parser.add_argument("--" + key.replace("_", "-"), dest=key,
                            help=help_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tagrec",
        description="Match financial numerals to XBRL taxonomy tags: "
                    "generate, retrieve, tournament re-rank.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed-index", help="embed the taxonomy and persist "
                                           "the vector index")
    _add_settings(p, ("taxonomy", "index", "cache_dir", "embedder"))
    p.add_argument("--force", action="store_true",
                   help="overwrite an existing index file")
    p.set_defaults(func=cmd_embed_index)

    p = sub.add_parser("run", help="run the full pipeline over a dataset")
    _add_settings(p, (*PIPELINE_SETTINGS, "trace_out", "predictions_out"))
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("evaluate", help="score a predictions file")
    p.add_argument("--predictions", required=True, help="predictions JSONL")
    p.add_argument("--dataset", required=True, help="dataset JSONL with gold")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="evaluate one parameter across values")
    _add_settings(p, PIPELINE_SETTINGS)
    p.add_argument("--axis", required=True,
                   choices=[a.value for a in SweepAxis])
    p.add_argument("--values", required=True,
                   help="comma-separated axis values")
    p.add_argument("--out", help="write the JSON table here")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="oracle-ranker recovery experiment")
    _add_settings(p, RERANK_SETTINGS)
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
        _add_settings(cp, ("cache_dir",))
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
