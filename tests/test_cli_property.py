"""Every input to the CLI ends in exit 0, 1 or 2, and an exit 2 says why
(``error: ...``) and leaves no output file or cache directory behind.

One derandomized hypothesis property drives :func:`tagrec.cli.main`
in-process over every subcommand.  Settings come in ``--config`` documents
whose values are drawn from a pool of wrong-typed and out-of-range values:
NaN, ±Infinity, ``2**70``, -1, 0, ``""``, ``true``, 8.9, text holding a NUL
or a lone surrogate, lists and nested objects, among working values.  The
backends are the file generator, the hash embedder, the oracle rankers, and
http backends aimed at a closed local port with one attempt each, so no
network is needed.

Some values are never drawn where they would start unbounded work; each is
named where its pool is built.  Such a value is checked only where nothing
is started: by the CLI's converters and backend builders here, and by the
constructors in ``tests/test_settings.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import socket
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tagrec.backends import HashEmbedder
from tagrec.cli import SETTINGS, _build, _convert, main
from tagrec.errors import ConfigError
from tagrec.corpus import load_taxonomy
from tagrec.retrieval import build_index

from conftest import TEN_TAGS, make_records, write_dataset, write_taxonomy

BIG = 2**70
POOL = [math.nan, math.inf, -math.inf, BIG, -1, 0, "", True, 8.9, "a\0b",
        "\udc80", [], [1], {}, {"kind": "hash"}, None]


def pool_without(*values):
    """The pool, less ``values`` (compared with their type, so 1 keeps True)."""
    return [v for v in POOL
            if not any(type(v) is type(x) and v == x for x in values)]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Read-only input files, and a local port that nothing listens on."""
    base = tmp_path_factory.mktemp("inputs")
    files = {
        "taxonomy": write_taxonomy(base / "taxonomy.jsonl"),
        "dataset": write_dataset(base / "dataset.jsonl", make_records(3)),
        "instruction": base / "instruction.txt",
        "index": base / "hash16.idx",
        "cache": base / "cache",
    }
    files["instruction"].write_text("Tag the numeral.\n", encoding="utf-8")
    build_index(load_taxonomy(files["taxonomy"]), HashEmbedder(16)) \
        .save(files["index"])
    files["cache"].mkdir()
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return base, files, f"http://127.0.0.1:{port}/v1"


def _snapshot(root: Path) -> dict[str, bytes | None]:
    return {p.relative_to(root).as_posix(): None if p.is_dir() else p.read_bytes()
            for p in root.rglob("*")}


def inputs_of(base: Path) -> dict[str, bytes | None]:
    """The input files; a run may write entries to the input cache."""
    return {k: v for k, v in _snapshot(base).items() if not k.startswith("cache")}


# ---------------------------------------------------------------------------
# Values


def http_spec(url):
    """An http backend object.  ``retry.max_attempts`` is 1 or refused, and
    ``rate_limit.min_interval`` 0 or refused: a valid larger value retries
    or waits (at 2**70 without end) on every call to the closed port."""
    retry = st.fixed_dictionaries(
        {"max_attempts": st.sampled_from([1, *pool_without(BIG)])},
        optional={k: st.sampled_from(POOL + [0.001])
                  for k in ("base_delay", "factor", "max_delay")})
    rate_limit = st.fixed_dictionaries({}, optional={
        "max_in_flight": st.sampled_from(POOL + [1, 64]),
        "min_interval": st.sampled_from(pool_without(BIG, 8.9))})
    return st.fixed_dictionaries(
        {"kind": st.just("http"), "model": st.sampled_from(["m", *POOL]),
         "base_url": st.one_of(st.just(url), st.sampled_from(POOL)),
         "retry": retry},
        optional={"rate_limit": st.one_of(rate_limit, st.sampled_from(POOL)),
                  "timeout": st.sampled_from(POOL + [5]),
                  "temperature": st.sampled_from(POOL + [0.5]),
                  "system": st.sampled_from(POOL + ["Be brief."])})


def backend_values(role, url):
    """Working spec strings, then other strings, objects and pool values
    for ``role``.  A hash ``dim`` is never 2**70: the embedder sizes its
    arrays by it."""
    working, others = {
        "generator": (["file"], ["file:x", "http", "bogus"]),
        "embedder": (["hash:16", "hash:8"],
                     ["hash", "hash:0", "hash:-1", "hash:x", "hash:8.9",
                      "http", "bogus", "{\"kind\": \"hash\"}"]),
        "ranker": (["perfect", "noisy:0.3", "lexical", "position-biased",
                    "identity-echo"],
                   ["noisy:nan", "noisy:2", "noisy", "perfect:1", "bogus"]),
    }[role]
    objects = {
        "generator": st.fixed_dictionaries({}, optional={
            "kind": st.sampled_from(["file", *POOL]),
            "extra": st.sampled_from(POOL)}),
        "embedder": st.fixed_dictionaries({}, optional={
            "kind": st.sampled_from(["hash", *POOL]),
            "dim": st.sampled_from([16, *pool_without(BIG)])}),
        "ranker": st.fixed_dictionaries({"kind": st.sampled_from(
            ["noisy", "lexical", *POOL])}, optional={
            "error_rate": st.sampled_from([0.3, 1, *POOL])}),
    }[role]
    return st.one_of(st.sampled_from(working), http_spec(url),
                     st.sampled_from(others + POOL), objects)


def setting_values(files, url, command):
    """Per setting, working values or others.  ``iterations`` is never
    2**70, since a record's rounds are all planned up front, and neither is
    simulate's ``top_k``, which sizes its synthetic candidates."""
    def either(working, others=POOL):
        return st.one_of(st.sampled_from(working), st.sampled_from(others))

    def path(*working, inputs=(files["taxonomy"], files["dataset"])):
        return either(list(working), [
            "sub/out.jsonl", ".", "missing.jsonl", *map(str, inputs), *POOL])
    bounded = pool_without(BIG) + [64, "4"]
    return {
        "taxonomy": path(str(files["taxonomy"])),
        "dataset": path(str(files["dataset"])),
        # embed-index --force replaces any file it does not read.
        "index": path("tags.idx", inputs=(files["taxonomy"],))
        if command == "embed-index" else path("tags.idx", str(files["index"])),
        "cache_dir": path("cache", str(files["cache"])),
        "instruction_path": path(str(files["instruction"])),
        "trace_out": path("traces.jsonl"),
        "predictions_out": path("predictions.jsonl", "p.jsonl"),
        "generator": backend_values("generator", url),
        "embedder": backend_values("embedder", url),
        "ranker": backend_values("ranker", url),
        "concurrency": either([1, 2, 128], POOL + [129, "4"]),
        "top_k": either([3, 10], bounded if command == "simulate"
                        else POOL + [64, "4"]),
        "group_size": either([1, 2, 3, 5], POOL + [64, "4"]),
        "iterations": either([1, 2, 3], bounded),
        "seed": either([0, 7, BIG], POOL + ["4"]),
        "ordering": either(["order-preserving", "order-shuffled"]),
        "vote_mode": either(["per-group", "per-round"]),
    }


@st.composite
def commands(draw, inputs):
    """argv for one subcommand, and the ``--config`` document it reads."""
    base, files, url = inputs
    command = draw(st.sampled_from(["embed-index", "run", "evaluate", "sweep",
                                    "simulate", "cache stats", "cache clear"]))
    values = setting_values(files, url, command)
    keys = {
        "embed-index": ["taxonomy", "index", "cache_dir", "embedder"],
        "run": list(values),
        "sweep": [k for k in values
                  if k not in ("trace_out", "predictions_out")],
        "simulate": ["top_k", "group_size", "iterations", "ordering",
                     "vote_mode", "seed"],
        "cache stats": ["cache_dir"],
        "cache clear": ["cache_dir"],
        "evaluate": [],
    }[command]
    # The inputs a command needs are given, and at most three settings are
    # drawn, so that many runs get past the first check.
    defaults = {"taxonomy": str(files["taxonomy"]),
                "dataset": str(files["dataset"]), "ranker": "lexical",
                "embedder": "hash:16", "cache_dir": "cache",
                "index": "tags.idx"}
    doc = {k: v for k, v in defaults.items() if k in keys}
    for key in draw(st.lists(st.sampled_from(keys), max_size=3, unique=True)
                    if keys else st.just([])):
        doc[key] = draw(values[key])
    argv = command.split()
    if command == "embed-index" and draw(st.booleans()):
        argv.append("--force")
    if command == "sweep":
        axis = draw(st.sampled_from(["iterations", "group-size", "ordering"]))
        # No 2**70 on the iterations axis, as for the setting.
        sweep_values = ["1,2", "3", "0", "-1", "8.9", "", "x,1",
                        "order-shuffled", "order-preserving,per-round"]
        if axis != "iterations":
            sweep_values.append(str(BIG))
        argv += ["--axis", axis, "--values",
                 draw(st.sampled_from(sweep_values))]
    if command == "simulate":
        # No --trials of 2**70: the trials run one after another.
        argv += ["--oracle", draw(st.sampled_from(
                     ["perfect", "noisy:0.3", "lexical", "noisy:inf",
                      "bogus", "identity-echo:1", ""])),
                 "--trials", draw(st.sampled_from(["1", "3", "0", "-1",
                                                   "8.9", "x"])),
                 "--gold-rank-prior", draw(st.sampled_from(
                     ["uniform", "retrieval-like"]))]
    if command == "evaluate":
        ids = st.sampled_from(["r000", "r001", "r002"])
        tags = st.sampled_from([tag for tag, _ in TEN_TAGS[:3]] + ["Unknown"])
        good = st.fixed_dictionaries({"record_id": ids,
                                      "predicted_tag_id": tags})
        lines = draw(st.one_of(
            st.lists(good, min_size=1, max_size=3,
                     unique_by=lambda line: line["record_id"]),
            st.lists(st.one_of(good, st.fixed_dictionaries({}, optional={
                "record_id": st.sampled_from(["r999", *POOL]),
                "predicted_tag_id": st.sampled_from(POOL)}),
                st.sampled_from(POOL)), max_size=4)))
        argv += ["--predictions", draw(st.one_of(
                     st.just("predictions.jsonl"),
                     st.sampled_from(["missing.jsonl", "", "."]))),
                 "--dataset", draw(st.one_of(
                     st.just(str(files["dataset"])),
                     st.sampled_from([str(files["taxonomy"]),
                                      "missing.jsonl", "a\0b"])))]
        if draw(st.booleans()):
            argv += ["--out", draw(st.sampled_from(
                ["report.json", "sub/report.json", ".", "predictions.jsonl",
                 str(files["dataset"]), "a\0b"]))]
        return argv, doc, lines
    return argv + ["--config", "config.json"], doc, None


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large,
                                 HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_input_exits_0_1_or_2_and_an_error_makes_nothing(inputs, data):
    base, files, _ = inputs
    argv, doc, lines = data.draw(commands(inputs))
    before_inputs = inputs_of(base)
    workdir = Path(tempfile.mkdtemp(dir=base.parent))
    (workdir / "config.json").write_text(json.dumps(doc), encoding="utf-8")
    if lines is not None:
        (workdir / "predictions.jsonl").write_text(
            "".join(json.dumps(line) + "\n" for line in lines),
            encoding="utf-8")
    before = _snapshot(workdir)
    threads = threading.active_count()
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors, as --trials x
                code = exc.code
                assert code == 2 and err.getvalue().startswith("usage: tagrec")
    finally:
        os.chdir(cwd)
    said = (argv, doc, err.getvalue())
    assert code in (0, 1, 2), said
    if code == 2:
        assert err.getvalue().startswith(("error: ", "usage: ")), said
        made = set(_snapshot(workdir)) - set(before)
        if err.getvalue().startswith("error: embedding failed"):
            # The build's first request failed: the cache it was to fill
            # may be there, empty.
            made -= {"cache"}
        assert not made, said
    assert inputs_of(base) == before_inputs, (argv, doc)
    assert threading.active_count() == threads


# Each backend object's keys that take a number or an integer, as
# (role, spec, key), with ``group.key`` for a key of a nested object.
HTTP = {"kind": "http", "model": "m", "base_url": "http://x.test/v1"}
SPEC_KEYS = [
    ("embedder", {"kind": "hash"}, "dim"),
    ("ranker", {"kind": "noisy", "error_rate": 0.5}, "error_rate"),
    ("embedder", HTTP, "timeout"),
    ("generator", HTTP, "temperature"),
    *[("ranker", {**HTTP, "retry": {}}, f"retry.{key}")
      for key in ("max_attempts", "base_delay", "factor", "max_delay")],
    *[("ranker", {**HTTP, "rate_limit": {}}, f"rate_limit.{key}")
      for key in ("max_in_flight", "min_interval")],
]


def test_every_pool_value_converts_or_is_a_config_error():
    """2**70 among them, where no run may take it: each setting and each
    backend key takes a value or refuses it, and nothing is started."""
    threads = threading.active_count()
    for key in SETTINGS:
        for value in POOL:
            try:
                _convert(key, value)
            except ConfigError:
                pass
    for role, spec, key in SPEC_KEYS:
        for value in POOL:
            doc = json.loads(json.dumps(spec))
            group, _, name = key.rpartition(".")
            (doc[group] if group else doc)[name] = value
            try:
                _build(role, doc)
            except ConfigError:
                pass
    assert threading.active_count() == threads
