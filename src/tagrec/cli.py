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
import os
import sys
from enum import EnumMeta
from pathlib import Path

from . import backends as be
from .corpus import _iter_jsonl, _require_str, load_dataset, load_taxonomy
from .errors import ConfigError, TagRecError, integer, number
from .evaluation import METRIC_COLUMNS, PredictionSet, SweepAxis, \
    evaluate_predictions, render_table
from .pipeline import MAX_CONCURRENCY, _check_concurrency, apply_axis, \
    jsonl_line, run_records, run_sweep
from .prompting import default_instruction, default_rerank_template
from .rerank import Ordering, RerankConfig, VoteMode
from .retrieval import VectorIndex, build_index, embedder_id_of
from .sim import OracleKind, OracleRanker, OracleSpec, recovery_experiment, \
    retrieval_like_weights

__all__ = ["main"]


BACKEND = "backend"  # a spec string such as hash:64, or a JSON object

# Every setting a --config file may hold, as (default, kind, flag help); each
# is also a flag of the same name on the subcommands that read it.  Kinds are
# int, str (every str setting is a path), an Enum class and BACKEND; only a
# setting whose default is None may be null.
SETTINGS = {
    "taxonomy": (None, str, "taxonomy JSONL path"),
    "dataset": (None, str, "dataset JSONL path"),
    "index": (None, str, "vector index path"),
    "cache_dir": (None, str, "response cache directory"),
    "generator": ("file", BACKEND, "generator backend spec"),
    "embedder": ("hash", BACKEND, "embedder backend spec"),
    "ranker": (None, BACKEND, "ranker backend spec"),
    "instruction_path": (None, str, "generation instruction template file"),
    "concurrency": (None, int, "records worked on at a time, from 1 to "
                    f"{MAX_CONCURRENCY} (default: twice the ranker's "
                    "rate_limit.max_in_flight, or 1 for an in-process "
                    "ranker; the ranker's limiter holds its calls at that "
                    "cap, and a record's calls are made one after another)"),
    # The re-rank settings default to RerankConfig's own defaults.
    "top_k": (RerankConfig.top_k, int, "retrieval depth"),
    "group_size": (RerankConfig.group_size, int, "re-ranking group size"),
    "iterations": (RerankConfig.iterations, int, "re-ranking rounds"),
    "ordering": (RerankConfig.ordering, Ordering, "intra-group presentation order"),
    "vote_mode": (RerankConfig.vote_mode, VoteMode, "vote counting semantics"),
    "seed": (RerankConfig.seed, int, "base random seed"),
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


def _read_text(path, what: str) -> str:
    """The UTF-8 text of file ``path``, or a ConfigError naming ``what``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"{what} {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"{what} {path} is not UTF-8 text") from None


def _load_config_file(path: str) -> dict:
    _check_path("config", path)
    try:
        doc = json.loads(_read_text(path, "config file"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = set(doc) - set(SETTINGS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return doc


def _check_path(key: str, path) -> None:
    """A ConfigError unless ``path`` encodes to file system bytes with no
    NUL among them."""
    try:
        if b"\0" not in os.fsencode(path):
            return
    except UnicodeEncodeError:
        pass
    raise ConfigError(f"{key} must be a path with no NUL character or "
                      f"lone surrogate, got {path!r}")


def _from_text(parse, check):
    """A converter of a setting's value: a string (a flag, or the arg of a
    ``kind:arg`` spec) is parsed by ``parse``, and any other value checked by
    ``check``, which refuses a bool where ``int`` or ``float`` would take it."""
    def convert(key: str, value):
        if isinstance(value, str):
            try:
                return parse(value)
            except ValueError:
                pass
        return check(key, value)
    return convert


_integer = _from_text(int, integer)
_number = _from_text(float, number)


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
            value = _integer(key, value)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if key == "concurrency":  # checked before any work, not at the run
            _check_concurrency(value)
        return value
    if kind is str and isinstance(value, str):
        _check_path(key, value)
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
        return _read_text(_require_path(settings, "instruction_path"),
                          "instruction_path").rstrip("\n")
    return default_instruction()


def _require_path(settings: dict, key: str) -> Path:
    value = settings.get(key)
    if not value:
        raise ConfigError(f"{key} is required (flag --{key.replace('_', '-')})")
    path = Path(value)
    if not path.exists():
        raise ConfigError(f"{key} path does not exist: {path}")
    if not path.is_file():
        raise ConfigError(f"{key} path is not a file: {path}")
    return path


def _reads(args: argparse.Namespace, settings: dict, *keys) -> dict:
    """The files a command reads, by setting: its ``--config`` and ``keys``."""
    return {"config": args.config, **{key: settings[key] for key in keys}}


def _check_outputs(reads: dict, **writes) -> None:
    """A ConfigError naming the first of ``reads`` and ``writes`` that is no
    path, or of ``writes`` that cannot be written.

    Outputs are written after the work, so each is checked before it: its
    directory must exist, it must not be a directory itself, and it must
    not be the file of another output or of one of ``reads``.  A prebuilt
    index file passes these checks, so a run's ``index`` is checked
    whenever it is given.
    """
    for key, path in (*reads.items(), *writes.items()):
        if path:
            _check_path(key, path)
    owners = {Path(path).resolve(): key for key, path in reads.items() if path}
    for key, path in writes.items():
        if not path:
            continue
        if Path(path).is_dir():
            raise ConfigError(f"{key} {path} is a directory")
        if not Path(path).parent.is_dir():
            raise ConfigError(f"{key} {path}: its directory does not exist")
        owner = owners.setdefault(Path(path).resolve(), key)
        if owner != key:
            raise ConfigError(f"{key} {path} is the same file as {owner}")


def _write_json(path, doc) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


# --------------------------------------------------------------------------
# Backend construction


def _options(doc, types: dict, what: str) -> dict:
    """The keys ``doc`` gives, each converted by ``types[key](key, value)``;
    no other keys.

    A key left out stays out, so the backend's own default applies.  An
    integer key converts as every integer setting does (:func:`_integer`),
    and a number key by :func:`_number`.
    """
    if not isinstance(doc, dict):
        raise TypeError(f"{what} must be an object, got {doc!r}")
    unknown = set(doc) - set(types)
    if unknown:
        raise ValueError(f"unknown {what} keys: {', '.join(sorted(unknown))}")
    return {key: types[key](key, value) for key, value in doc.items()}


def _as_given(key: str, value):
    return value


def _nested(cls, **types):
    """A converter of a nested spec object into ``cls``; null is the default."""
    return lambda key, doc: None if doc is None else cls(**_options(doc, types, key))


_HTTP_KEYS = {
    "model": _as_given, "base_url": _as_given, "timeout": _number,
    "retry": _nested(be.RetryPolicy, max_attempts=_integer, base_delay=_number,
                     factor=_number, max_delay=_number),
    "rate_limit": _nested(be.RateLimiter, max_in_flight=_integer,
                          min_interval=_number),
}
_HTTP_CHAT_KEYS = {**_HTTP_KEYS, "temperature": _number, "system": _as_given}


def _http(cls, types: dict):
    """An http kind: ``cls`` of the keys ``types`` converts, two required."""
    def build(doc, seed, what):
        kwargs = _options(doc, types, what)
        if "model" not in kwargs or "base_url" not in kwargs:
            raise ConfigError(f"{what} needs 'model' and 'base_url'")
        kwargs["limiter"] = kwargs.pop("rate_limit", None)
        return cls(kwargs.pop("model"), kwargs.pop("base_url"), **kwargs)
    return build


def _oracle(kind: OracleKind, backend=lambda spec: spec):
    """An oracle kind seeded from the run: its spec, or ``backend`` of it."""
    return lambda doc, seed, what: backend(OracleSpec(
        kind, seed=seed, **_options(doc, {"error_rate": _number}, what)))


# Per role: the kind of a spec object that names none, the key that the arg
# of a ``kind:arg`` string fills, the caching class of a backend that builds
# cache keys, and each kind's build(its keys, seed, "<kind> <role>").
ROLES = {
    "generator": ("file", "arg", be.CachingGenerator, {
        "file": lambda doc, seed, what: be.FileBackedGenerator(
            **_options(doc, {}, what)),
        "http": _http(be.HttpChatGenerator, _HTTP_CHAT_KEYS)}),
    "embedder": ("hash", "dim", be.CachingEmbedder, {
        "hash": lambda doc, seed, what: be.HashEmbedder(
            **_options(doc, {"dim": _integer}, what)),
        "http": _http(be.HttpEmbedder, _HTTP_KEYS)}),
    "ranker": (None, "error_rate", be.CachingRanker, {
        "http": _http(be.HttpChatRanker, _HTTP_CHAT_KEYS),
        **{k.value: _oracle(k, OracleRanker) for k in OracleKind}}),
    "oracle": (None, "error_rate", None,
               {k.value: _oracle(k) for k in OracleKind}),
}


def _build(role: str, spec, seed: int = 0):
    """``role``'s backend of ``spec``: a JSON object or a ``kind[:arg]`` string.

    Every command builds its backends here, so a malformed or out-of-range
    spec value exits 2 with a message instead of a traceback.
    """
    if spec is None:
        raise ConfigError(f"{role} is required (flag --{role})")
    default, arg_key, _, kinds = ROLES[role]
    try:
        if isinstance(spec, dict):
            doc = dict(spec)
        elif spec.startswith("{"):
            raise ConfigError(f"backend spec {spec!r}: a backend object goes "
                              "in a --config file, as a JSON object")
        else:
            kind, colon, arg = spec.partition(":")
            doc = {"kind": kind, arg_key: arg} if colon else {"kind": kind}
        kind = doc.pop("kind", default)
        if kind not in kinds:
            raise ConfigError(f"unknown {role} kind {kind!r}; expected one "
                              f"of {sorted(kinds)}")
        return kinds[kind](doc, seed, f"{kind} {role}")
    except (ValueError, TypeError, AttributeError) as exc:
        raise ConfigError(f"backend spec {spec!r}: {exc}") from None


def _backends(settings: dict, *roles) -> list:
    """Each role's backend of its setting, cached by :func:`_cached`."""
    return _cached(settings, roles, [_build(role, settings[role],
                                            settings["seed"]) for role in roles])


def _cached(settings: dict, roles, built: list) -> list:
    """``built``, the backends of ``roles``; with a ``cache_dir``, each one
    that builds cache keys in its role's caching class.  The cache is made
    here, after every backend is built, so a bad spec leaves no cache
    directory."""
    try:
        cache = settings["cache_dir"] and be.ResponseCache(settings["cache_dir"])
    except OSError as exc:  # a file in its place, or no permission
        raise ConfigError(f"cache_dir {settings['cache_dir']}: "
                          f"{exc.strerror}") from None
    return [ROLES[role][2](backend, cache)
            if cache and hasattr(backend, "request_of") else backend
            for role, backend in zip(roles, built)]


# --------------------------------------------------------------------------
# Index handling


def _prebuilt_index(settings: dict, corpus, embedder) -> VectorIndex | None:
    """The ``index`` file if it exists; a file that another embedder or
    taxonomy built is a ConfigError."""
    index_path = settings.get("index")
    if not (index_path and Path(index_path).exists()):
        return None
    try:
        index = VectorIndex.load(index_path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"index {index_path} cannot be loaded: "
                          f"{exc}") from None
    if index.embedder_id != embedder_id_of(embedder):
        raise ConfigError(
            f"index {index_path} was built by embedder "
            f"{index.embedder_id!r}, not {embedder_id_of(embedder)!r} "
            "(rebuild with embed-index)")
    if index.corpus_sha256 != corpus.sha256:
        raise ConfigError(
            f"index {index_path} does not match the taxonomy "
            "(rebuild with embed-index)"
        )
    return index


def _pipeline_inputs(settings: dict, top_k: int, *, need_gold: bool = False):
    """Corpus, records, backends (cached if configured) and index of a run;
    ``top_k`` and a prebuilt index are checked before the cache is made."""
    corpus = load_taxonomy(_require_path(settings, "taxonomy"))
    records = load_dataset(_require_path(settings, "dataset"), corpus)
    if need_gold and all(record.gold_tag_id is None for record in records):
        raise ConfigError("no gold-bearing records to evaluate")
    if top_k > len(corpus):
        raise ConfigError(f"top_k={top_k} exceeds the index size {len(corpus)}")
    roles = ("generator", "embedder", "ranker")
    built = [_build(role, settings[role], settings["seed"]) for role in roles]
    index = _prebuilt_index(settings, corpus, built[1])
    generator, embedder, ranker = _cached(settings, roles, built)
    if index is None:
        index = build_index(corpus, embedder)
        if settings["index"]:
            index.save(settings["index"])
            print(f"built and saved index: {settings['index']}", file=sys.stderr)
    return corpus, records, generator, embedder, ranker, index


# --------------------------------------------------------------------------
# Subcommands


def cmd_embed_index(args: argparse.Namespace) -> int:
    settings = _merge_settings(args)
    taxonomy_path = _require_path(settings, "taxonomy")
    index_path = settings["index"]
    if not index_path:
        raise ConfigError("index output path is required (flag --index)")
    _check_outputs(_reads(args, settings, "taxonomy"), index=index_path)
    if Path(index_path).exists() and not args.force:
        raise ConfigError(
            f"index file exists: {index_path} (pass --force to overwrite)"
        )
    corpus = load_taxonomy(taxonomy_path)
    [embedder] = _backends(settings, "embedder")
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
    predictions_path = Path(settings["predictions_out"])
    manifest_path = Path(f"{predictions_path}.manifest.json")
    _check_outputs(
        _reads(args, settings, "taxonomy", "dataset", "instruction_path"),
        predictions_out=predictions_path, manifest=manifest_path,
        trace_out=settings["trace_out"], index=settings["index"])
    config = _rerank_config(settings)
    instruction = _instruction_text(settings)
    corpus, records, generator, embedder, ranker, index = _pipeline_inputs(
        settings, config.top_k)

    result = run_records(
        records, corpus, index, generator=generator, embedder=embedder,
        ranker=ranker, config=config, instruction=instruction,
        concurrency=settings["concurrency"],
    )

    with predictions_path.open("w", encoding="utf-8") as fh:
        for line in result.predictions:
            fh.write(jsonl_line(line))
    if settings["trace_out"]:
        with Path(settings["trace_out"]).open("w", encoding="utf-8") as fh:
            for trace in result.traces:
                fh.write(jsonl_line(trace))

    backends = {"generator": generator, "embedder": embedder, "ranker": ranker}
    _write_json(manifest_path,
                _manifest(settings, instruction, backends, result.counts))

    rate = result.gold_in_top_k_rate()
    summary = " ".join(f"{key}={value}" for key, value in
                       {"records": len(records), **result.counts}.items())
    if rate is not None:
        summary += f" gold_in_top_k={rate:.4f}"
    print(summary)
    print(f"predictions -> {predictions_path}")
    for status, rows in (("skipped", result.skipped), ("failed", result.failed)):
        for row in rows:
            print(f"{status} {row['record_id']}: {row['reason']}", file=sys.stderr)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    _check_outputs({"predictions": args.predictions, "dataset": args.dataset},
                   out=args.out)
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


def cmd_sweep(args: argparse.Namespace) -> int:
    settings = _merge_settings(args)
    _check_outputs(
        _reads(args, settings, "taxonomy", "dataset", "instruction_path"),
        out=args.out, index=settings["index"])
    template = _rerank_config(settings)
    instruction = _instruction_text(settings)
    axis = SweepAxis(args.axis)
    values = [value.strip() for value in args.values.split(",")]
    for value in values:  # checked as its flag would be, before any record runs
        try:
            apply_axis(template, axis, value)
        except ValueError as exc:
            raise ConfigError(f"--values {value}: {exc}") from None
    corpus, records, generator, embedder, ranker, index = _pipeline_inputs(
        settings, template.top_k, need_gold=True)

    table = run_sweep(
        records, corpus, index, generator=generator, embedder=embedder,
        ranker=ranker, template=template, instruction=instruction,
        axis=axis, values=values, concurrency=settings["concurrency"],
    )
    print(table.render_text())
    failed = [cell for cell in table.cells if cell.failed]
    for cell in failed:
        print(f"{axis.value}={cell.value}: {cell.error}", file=sys.stderr)
    if args.out:
        _write_json(args.out, table.to_dict())
        print(f"table -> {args.out}")
    return 1 if failed else 0


def cmd_simulate(args: argparse.Namespace) -> int:
    settings = _merge_settings(args)
    _check_outputs(_reads(args, settings), out=args.out)
    config = _rerank_config(settings)
    spec = _build("oracle", args.oracle, config.seed)
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
    except KeyboardInterrupt:  # every thread of the run is joined by now
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
