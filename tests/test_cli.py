from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import struct
import threading
import time

import numpy as np
import pytest

from tagrec.backends import FileBackedGenerator, HashEmbedder
from tagrec.cli import _backends, _build, _convert, build_parser, main
from tagrec.corpus import load_dataset, load_taxonomy
from tagrec.errors import BackendError, ConfigError
from tagrec.evaluation import SweepAxis
from tagrec.pipeline import run_sweep
from tagrec.prompting import default_instruction
from tagrec.rerank import Ordering, RerankConfig
from tagrec.retrieval import VectorIndex, build_index
from tagrec.sim import OracleKind, OracleRanker, OracleSpec

from conftest import TEN_TAGS, FakeEmbeddingReply, FakeEmbeddingService, \
    make_records, v1_bytes, write_dataset, write_taxonomy

HTTP_EMBEDDER = {"kind": "http", "model": "e",
                 "base_url": "http://embedder.invalid/v1"}
HTTP_RANKER = {"kind": "http", "model": "m",
               "base_url": "http://ranker.invalid/v1"}


@pytest.fixture(autouse=True)
def no_network(monkeypatch):
    """A request fails the test unless the test fakes the session itself."""
    class RefusingSession:
        def mount(self, prefix, adapter):
            pass

        def post(self, url, **kwargs):
            raise AssertionError(f"unexpected request to {url}")

    monkeypatch.setattr("requests.Session", RefusingSession)


@pytest.fixture
def workspace(tmp_path):
    taxonomy = write_taxonomy(tmp_path / "taxonomy.jsonl")
    dataset = write_dataset(tmp_path / "dataset.jsonl", make_records(5))
    return tmp_path, taxonomy, dataset


@pytest.fixture
def embedding_session(monkeypatch):
    """Stands in for requests.Session: every text embeds to 32 dimensions."""
    class FakeSession:
        calls = 0

        def mount(self, prefix, adapter):
            pass

        def post(self, url, json=None, headers=None, timeout=None):
            FakeSession.calls += 1
            return Reply(len(json["input"]))

    class Reply:
        status_code = 200

        def __init__(self, n):
            self.n = n

        def json(self):
            return {"data": [{"embedding": [0.5] * 32}] * self.n}

    monkeypatch.setattr("requests.Session", FakeSession)
    return FakeSession


@pytest.fixture
def no_backend_calls(monkeypatch):
    """Every embedding and oracle ranker call made, each failing the run."""
    calls = []

    def record(self, arg):
        calls.append(arg)
        raise AssertionError("unexpected backend call")
    for cls, method in ((HashEmbedder, "embed_batch"),
                        (HashEmbedder, "embed_batches"),
                        (OracleRanker, "rank_listwise")):
        monkeypatch.setattr(cls, method, record)
    return calls


def run_cli(*argv):
    return main([str(a) for a in argv])


def _flags(*command) -> set[str]:
    """The settings (dests) of a subcommand's flags, ``--help`` aside."""
    parser = build_parser()
    for name in command:
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[name]
    return {a.dest for a in parser._actions if a.dest != "help"}


RERANK_FLAGS = {"top_k", "group_size", "iterations", "ordering", "vote_mode",
                "seed"}
PIPELINE_FLAGS = {"config", "taxonomy", "dataset", "index", "cache_dir",
                  "generator", "embedder", "ranker", "instruction_path",
                  "concurrency"} | RERANK_FLAGS


@pytest.mark.parametrize("command, flags", [
    (("embed-index",), {"config", "taxonomy", "index", "cache_dir",
                        "embedder", "force"}),
    (("run",), PIPELINE_FLAGS | {"trace_out", "predictions_out"}),
    (("evaluate",), {"predictions", "dataset", "out"}),
    (("sweep",), PIPELINE_FLAGS | {"axis", "values", "out"}),
    (("simulate",), {"config", "oracle", "trials", "gold_rank_prior", "out"}
     | RERANK_FLAGS),
    (("cache", "stats"), {"config", "cache_dir"}),
    (("cache", "clear"), {"config", "cache_dir"}),
])
def test_each_subcommand_takes_the_flags_of_the_settings_it_reads(command,
                                                                  flags):
    assert _flags(*command) == flags


class TestEmbedIndex:
    def test_builds_and_reports(self, workspace, capsys):
        tmp, taxonomy, _ = workspace
        index_path = tmp / "tags.idx"
        code = run_cli("embed-index", "--taxonomy", taxonomy,
                       "--index", index_path, "--embedder", "hash:64")
        assert code == 0
        out = capsys.readouterr().out
        assert "10" in out and "64" in out
        index = VectorIndex.load(index_path)
        assert len(index) == 10 and index.dim == 64

    def test_refuses_overwrite_without_force(self, workspace, capsys):
        tmp, taxonomy, _ = workspace
        index_path = tmp / "tags.idx"
        assert run_cli("embed-index", "--taxonomy", taxonomy,
                       "--index", index_path) == 0
        assert run_cli("embed-index", "--taxonomy", taxonomy,
                       "--index", index_path) == 2
        assert "--force" in capsys.readouterr().err
        assert run_cli("embed-index", "--taxonomy", taxonomy,
                       "--index", index_path, "--force") == 0

    def test_missing_taxonomy_fails_validation(self, tmp_path, capsys):
        code = run_cli("embed-index", "--taxonomy", tmp_path / "nope.jsonl",
                       "--index", tmp_path / "x.idx")
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_cache_dir_serves_a_rebuild(self, workspace, embedding_session):
        tmp, taxonomy, _ = workspace
        config = tmp / "embed.json"
        config.write_text(json.dumps({"embedder": HTTP_EMBEDDER}),
                          encoding="utf-8")
        argv = ("embed-index", "--config", config, "--taxonomy", taxonomy,
                "--index", tmp / "tags.idx", "--cache-dir", tmp / "cache",
                "--force")
        assert run_cli(*argv) == 0
        assert embedding_session.calls == 1
        first = (tmp / "tags.idx").read_bytes()
        assert run_cli(*argv) == 0
        assert embedding_session.calls == 1
        assert (tmp / "tags.idx").read_bytes() == first

    def test_a_non_finite_embedding_exits_2_and_caches_nothing(
            self, workspace, capsys, monkeypatch):
        tmp, taxonomy, _ = workspace
        service = FakeEmbeddingService(script={TEN_TAGS[0][1]: ["nan"]})
        monkeypatch.setattr("requests.Session", lambda: service)
        config = tmp / "embed.json"
        config.write_text(json.dumps({"embedder": HTTP_EMBEDDER}),
                          encoding="utf-8")
        assert run_cli("embed-index", "--config", config, "--taxonomy",
                       taxonomy, "--index", tmp / "tags.idx", "--cache-dir",
                       tmp / "cache") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: embedding failed") and "non-finite" in err
        assert list((tmp / "cache").rglob("*.json")) == []
        assert not (tmp / "tags.idx").exists()

    def test_a_zero_embedding_exits_2_and_writes_no_index(
            self, workspace, capsys, monkeypatch):
        tmp, taxonomy, _ = workspace
        service = FakeEmbeddingService(script={TEN_TAGS[0][1]: ["zero"]})
        monkeypatch.setattr("requests.Session", lambda: service)
        config = tmp / "embed.json"
        config.write_text(json.dumps({"embedder": HTTP_EMBEDDER}),
                          encoding="utf-8")
        assert run_cli("embed-index", "--config", config, "--taxonomy",
                       taxonomy, "--index", tmp / "tags.idx") == 2
        assert capsys.readouterr().err == (
            "error: embedding failed: index entry 'Revenues' has a zero vector\n")
        assert not (tmp / "tags.idx").exists()

    def test_a_non_finite_cached_embedding_exits_2(self, workspace, capsys,
                                                   embedding_session):
        """A cache entry is checked as a fresh reply is: older caches may
        hold NaN, which the reply check once let through."""
        from tagrec.backends import HttpEmbedder, ResponseCache
        tmp, taxonomy, _ = workspace
        texts = [text for _, text in TEN_TAGS]
        key = HttpEmbedder("e", HTTP_EMBEDDER["base_url"]) \
            .request_of(texts).cache_key()
        vectors = [[0.5] * 32 for _ in texts]
        vectors[3][7] = float("nan")
        ResponseCache(tmp / "cache").put(key, json.dumps(vectors),
                                         "http-embedder:e")
        config = tmp / "embed.json"
        config.write_text(json.dumps({"embedder": HTTP_EMBEDDER}),
                          encoding="utf-8")
        assert run_cli("embed-index", "--config", config, "--taxonomy",
                       taxonomy, "--index", tmp / "tags.idx", "--cache-dir",
                       tmp / "cache") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: embedding failed for batch starting "
                              "at tag 'Revenues'")
        assert f"cache entry {key} holds a non-finite value" in err
        assert embedding_session.calls == 0
        assert not (tmp / "tags.idx").exists()


class TestRun:
    def test_end_to_end_fixture_all_gold(self, workspace, capsys):
        tmp, taxonomy, dataset = workspace
        predictions = tmp / "preds.jsonl"
        traces = tmp / "traces.jsonl"
        code = run_cli(
            "run", "--taxonomy", taxonomy, "--dataset", dataset,
            "--ranker", "perfect", "--embedder", "hash:64",
            "--predictions-out", predictions, "--trace-out", traces,
            "--seed", 3,
        )
        assert code == 0
        lines = [json.loads(l) for l in
                 predictions.read_text(encoding="utf-8").splitlines()]
        assert len(lines) == 5
        assert all(l["predicted_tag_id"] == l["gold_tag_id"] for l in lines)
        assert all(l["gold_in_top_k"] for l in lines)
        trace_lines = [json.loads(l) for l in
                       traces.read_text(encoding="utf-8").splitlines()]
        assert len(trace_lines) == 5
        assert trace_lines[0]["total_rounds"] == 8
        manifest = json.loads(
            (tmp / "preds.jsonl.manifest.json").read_text(encoding="utf-8"))
        assert manifest["backend_ids"]["ranker"] == "oracle:perfect"
        assert manifest["seed"] == 3
        out = capsys.readouterr().out
        assert "predicted=5" in out

    def test_missing_gen_doc_skip_counted(self, tmp_path, capsys):
        taxonomy = write_taxonomy(tmp_path / "tax.jsonl")
        records = make_records(3)
        records[0] = records[0].__class__(
            record_id=records[0].record_id,
            report_text=records[0].report_text,
            numeral=records[0].numeral,
            question=records[0].question,
            gold_tag_id=records[0].gold_tag_id,
            gen_tag_doc=None,
        )
        dataset = write_dataset(tmp_path / "data.jsonl", records)
        predictions = tmp_path / "preds.jsonl"
        code = run_cli("run", "--taxonomy", taxonomy, "--dataset", dataset,
                       "--ranker", "perfect", "--predictions-out", predictions)
        assert code == 0
        assert "skipped=1" in capsys.readouterr().out
        assert len(predictions.read_text(encoding="utf-8").splitlines()) == 2

    def test_each_skipped_or_failed_record_is_named_with_its_reason(
            self, tmp_path, capsys, monkeypatch):
        taxonomy = write_taxonomy(tmp_path / "tax.jsonl")
        records = make_records(4)
        records[1] = dataclasses.replace(records[1], gen_tag_doc=None)
        dataset = write_dataset(tmp_path / "data.jsonl", records)
        rank = OracleRanker.rank_listwise

        def refusing_r002(self, request):
            if request.record_id == "r002":
                raise BackendError("ranker: down")
            return rank(self, request)
        monkeypatch.setattr(OracleRanker, "rank_listwise", refusing_r002)
        assert run_cli("run", "--taxonomy", taxonomy, "--dataset", dataset,
                       "--ranker", "perfect",
                       "--predictions-out", tmp_path / "p.jsonl") == 0
        captured = capsys.readouterr()
        assert "predicted=2 skipped=1 failed=1" in captured.out
        assert captured.err.splitlines() == [
            "skipped r001: record 'r001' has no stored gen_tag_doc",
            "failed r002: ranker: down",
        ]

    def test_a_damaged_cache_entry_fails_its_record_naming_the_file(
            self, workspace, capsys):
        tmp, taxonomy, dataset = workspace
        argv = ["run", "--taxonomy", taxonomy, "--dataset", dataset,
                "--ranker", "lexical", "--cache-dir", tmp / "cache",
                "--predictions-out", tmp / "p.jsonl"]
        assert run_cli(*argv) == 0
        assert capsys.readouterr().err == ""
        entry = sorted((tmp / "cache").glob("*/*/*.json"))[0]
        entry.write_text("{not json", encoding="utf-8")
        assert run_cli(*argv) == 0
        captured = capsys.readouterr()
        assert "failed=1" in captured.out
        [line] = captured.err.splitlines()
        assert re.fullmatch(
            rf"failed r00\d: cache entry {re.escape(str(entry))} is damaged "
            r"\(JSONDecodeError: .*\); `tagrec cache clear` removes it", line)

    def test_warm_cache_rerun_is_byte_identical(self, workspace):
        tmp, taxonomy, dataset = workspace
        cache_dir = tmp / "cache"

        def one_run(out_name):
            predictions = tmp / out_name
            assert run_cli(
                "run", "--taxonomy", taxonomy, "--dataset", dataset,
                "--ranker", "noisy:0.4", "--embedder", "hash:64",
                "--cache-dir", cache_dir, "--seed", 5,
                "--predictions-out", predictions,
                "--trace-out", tmp / (out_name + ".traces"),
            ) == 0
            return predictions

        first = one_run("a.jsonl")
        second = one_run("b.jsonl")
        assert first.read_bytes() == second.read_bytes()
        assert (tmp / "a.jsonl.traces").read_bytes() == \
            (tmp / "b.jsonl.traces").read_bytes()
        manifest = json.loads((tmp / "b.jsonl.manifest.json").read_text(
            encoding="utf-8"))
        ranker_stats = manifest["cache"]["ranker"]
        assert ranker_stats["hits"] == ranker_stats["requests"] > 0

    def test_missing_dataset_is_systemic(self, workspace, capsys):
        tmp, taxonomy, _ = workspace
        code = run_cli("run", "--taxonomy", taxonomy,
                       "--dataset", tmp / "nope.jsonl", "--ranker", "perfect")
        assert code == 2

    def test_ranker_required(self, workspace, capsys):
        tmp, taxonomy, dataset = workspace
        code = run_cli("run", "--taxonomy", taxonomy, "--dataset", dataset,
                       "--predictions-out", tmp / "p.jsonl")
        assert code == 2
        assert "ranker" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, workspace, capsys):
        tmp, taxonomy, dataset = workspace
        config = tmp / "run.json"
        config.write_text(json.dumps({
            "taxonomy": str(taxonomy),
            "dataset": str(dataset),
            "ranker": "perfect",
            "embedder": "hash:32",
            "iterations": 2,
            "predictions_out": str(tmp / "from_config.jsonl"),
        }), encoding="utf-8")
        code = run_cli("run", "--config", config, "--iterations", 4)
        assert code == 0
        traces_free_preds = tmp / "from_config.jsonl"
        manifest = json.loads(
            (tmp / "from_config.jsonl.manifest.json").read_text(encoding="utf-8"))
        assert manifest["settings"]["iterations"] == 4  # flag wins
        assert traces_free_preds.exists()

    def test_missing_instruction_file_exits_2(self, workspace, capsys):
        tmp, taxonomy, dataset = workspace
        assert run_cli("run", "--taxonomy", taxonomy, "--dataset", dataset,
                       "--ranker", "perfect",
                       "--instruction-path", tmp / "nope.txt") == 2
        assert "instruction_path path does not exist" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, workspace, capsys):
        tmp, taxonomy, dataset = workspace
        config = tmp / "bad.json"
        config.write_text(json.dumps({"taxnomy": str(taxonomy)}),
                          encoding="utf-8")
        assert run_cli("run", "--config", config) == 2
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("iterations", None, "iterations must be an integer, got None"),
        ("top_k", [3], "top_k must be an integer, got [3]"),
        ("concurrency", "x", "concurrency must be an integer, got 'x'"),
        # a bool or a float is no integer: plain int() cut each of these
        ("iterations", 8.9, "iterations must be an integer, got 8.9"),
        ("seed", -0.5, "seed must be an integer, got -0.5"),
        ("top_k", True, "top_k must be an integer, got True"),
        ("concurrency", 1e300, "concurrency must be an integer, got 1e+300"),
        ("ordering", "sideways", "ordering must be one of "
                                 "['order-preserving', 'order-shuffled']"),
        ("predictions_out", None, "predictions_out must be a string"),
        ("ranker", 3, "ranker must be a backend spec string or object"),
        *((key, path, f"{key} must be a path with no NUL character or lone "
                      f"surrogate, got {path!r}")
          for key in ("trace_out", "cache_dir", "index")
          for path in ("out\0put", "out\ud800put")),
    ])
    def test_config_value_of_a_wrong_type_exits_2(self, workspace, capsys,
                                                  key, value, message):
        tmp, taxonomy, dataset = workspace
        config = tmp / "run.json"
        config.write_text(json.dumps({
            "taxonomy": str(taxonomy), "dataset": str(dataset),
            "ranker": "perfect", "predictions_out": str(tmp / "p.jsonl"),
            key: value,
        }), encoding="utf-8")
        assert run_cli("run", "--config", config) == 2
        assert message in capsys.readouterr().err
        assert not (tmp / "p.jsonl").exists()

    def test_flag_value_of_a_wrong_type_exits_2(self, workspace, capsys):
        tmp, taxonomy, dataset = workspace
        assert run_cli("run", "--taxonomy", taxonomy, "--dataset", dataset,
                       "--ranker", "perfect", "--top-k", "ten") == 2
        assert "top_k must be an integer, got 'ten'" in capsys.readouterr().err

    @pytest.mark.parametrize("concurrency", ["0", "129"])
    def test_a_concurrency_out_of_range_exits_2_before_any_work(
            self, workspace, capsys, concurrency):
        tmp, taxonomy, dataset = workspace
        assert run_cli("run", "--taxonomy", taxonomy, "--dataset", dataset,
                       "--ranker", "perfect", "--index", tmp / "x.idx",
                       "--concurrency", concurrency) == 2
        assert (f"error: concurrency must be from 1 to 128, got {concurrency}"
                in capsys.readouterr().err)
        assert not (tmp / "x.idx").exists()

    @pytest.mark.parametrize("value", [10**6, "1000000", 10**300])
    def test_a_huge_concurrency_is_rejected_by_the_converter(self, value):
        with pytest.raises(ConfigError, match="^concurrency must be from 1 "
                                              "to 128, got 1000"):
            _convert("concurrency", value)

    @pytest.mark.parametrize("key, value, expected", [
        ("concurrency", "128", 128), ("top_k", 7, 7), ("seed", "-3", -3)])
    def test_integers_and_their_decimal_strings_convert(self, key, value,
                                                        expected):
        assert _convert(key, value) == expected

    def test_null_where_the_default_is_null(self, workspace):
        tmp, taxonomy, dataset = workspace
        config = tmp / "run.json"
        config.write_text(json.dumps({
            "taxonomy": str(taxonomy), "dataset": str(dataset),
            "ranker": "perfect", "predictions_out": str(tmp / "p.jsonl"),
            "index": None, "cache_dir": None, "concurrency": None,
            "trace_out": None, "instruction_path": None,
        }), encoding="utf-8")
        assert run_cli("run", "--config", config) == 0
        manifest = json.loads((tmp / "p.jsonl.manifest.json").read_text(
            encoding="utf-8"))
        assert manifest["settings"]["concurrency"] is None

    @pytest.mark.parametrize("flag, spec", [
        ("--ranker", HTTP_RANKER),
        ("--embedder", HTTP_EMBEDDER),
        ("--generator", HTTP_RANKER),
    ])
    def test_backend_object_as_a_flag_exits_2(self, workspace, capsys, flag,
                                             spec):
        tmp, taxonomy, dataset = workspace
        assert run_cli("run", "--taxonomy", taxonomy, "--dataset", dataset,
                       "--ranker", "perfect", flag, json.dumps(spec),
                       "--predictions-out", tmp / "p.jsonl") == 2
        err = capsys.readouterr().err
        assert "goes in a --config file" in err
        assert not (tmp / "p.jsonl").exists()

    @pytest.mark.parametrize("command, flag", [
        ("run", "--predictions-out"), ("run", "--trace-out"),
        ("run", "--index"), ("sweep", "--index"), ("sweep", "--out"),
        ("embed-index", "--index"), ("evaluate", "--out"),
        ("simulate", "--out"),
    ])
    @pytest.mark.parametrize("bad, message", [
        ("nodir/out.jsonl", ": its directory does not exist"),
        ("adir", " is a directory"),
    ], ids=["missing-directory", "a-directory"])
    def test_output_in_a_missing_directory_exits_2_before_the_run(
            self, workspace, capsys, no_backend_calls, command, flag, bad,
            message):
        """Also an output path that is a directory: either way nothing ran."""
        tmp, taxonomy, dataset = workspace
        (tmp / "adir").mkdir()
        predictions = tmp / "preds.jsonl"
        predictions.write_text(json.dumps({"record_id": "r000",
                                           "predicted_tag_id": "Revenues"}),
                               encoding="utf-8")
        inputs = ["--taxonomy", taxonomy, "--dataset", dataset,
                  "--ranker", "perfect", "--index", tmp / "tags.idx"]
        argv = {
            "run": ["run", *inputs, "--predictions-out", tmp / "p.jsonl",
                    "--trace-out", tmp / "t.jsonl"],
            "sweep": ["sweep", *inputs, "--axis", "iterations",
                      "--values", "1", "--out", tmp / "s.json"],
            "embed-index": ["embed-index", "--taxonomy", taxonomy],
            "evaluate": ["evaluate", "--predictions", predictions,
                         "--dataset", dataset],
            "simulate": ["simulate", "--oracle", "perfect", "--trials", 5],
        }[command]
        assert run_cli(*argv, flag, tmp / bad) == 2
        captured = capsys.readouterr()
        assert f"error: {flag[2:].replace('-', '_')} {tmp / bad}{message}" \
            in captured.err
        assert captured.out == ""
        assert no_backend_calls == []
        # Nothing ran: no index was built or saved, and no output written.
        assert sorted(p.name for p in tmp.iterdir()) == [
            "adir", "dataset.jsonl", "preds.jsonl", "taxonomy.jsonl"]
        assert list((tmp / "adir").iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (["run", "--predictions-out", "out.jsonl", "--trace-out",
          "./out.jsonl"], "trace_out ./out.jsonl is the same file as "
                          "predictions_out"),
        (["run", "--predictions-out", "p.jsonl", "--trace-out",
          "p.jsonl.manifest.json"],
         "trace_out p.jsonl.manifest.json is the same file as manifest"),
        (["run", "--predictions-out", "link.jsonl"],
         "predictions_out link.jsonl is the same file as dataset"),
        (["run", "--predictions-out", "p.jsonl", "--index", "taxonomy.jsonl"],
         "index taxonomy.jsonl is the same file as taxonomy"),
        (["run", "--predictions-out", "p.jsonl", "--trace-out", "run.json"],
         "trace_out run.json is the same file as config"),
        (["sweep", "--axis", "iterations", "--values", "1", "--out",
          "tags.idx", "--index", "tags.idx"],
         "index tags.idx is the same file as out"),
        (["embed-index", "--index", "taxonomy.jsonl", "--force"],
         "index taxonomy.jsonl is the same file as taxonomy"),
        (["evaluate", "--predictions", "taxonomy.jsonl", "--dataset",
          "dataset.jsonl", "--out", "taxonomy.jsonl"],
         "out taxonomy.jsonl is the same file as predictions"),
        (["simulate", "--oracle", "perfect", "--trials", "5", "--out",
          "run.json"], "out run.json is the same file as config"),
    ], ids=["two-outputs", "the-manifest", "a-symlinked-input",
            "index-and-input", "the-config", "sweep", "embed-index",
            "evaluate", "simulate"])
    def test_outputs_that_name_one_file_exit_2_before_the_run(
            self, workspace, capsys, monkeypatch, no_backend_calls, argv,
            message):
        tmp, taxonomy, dataset = workspace
        monkeypatch.chdir(tmp)
        (tmp / "link.jsonl").symlink_to(dataset)
        (tmp / "run.json").write_text(json.dumps({"seed": 1}), encoding="utf-8")
        inputs = ["--config", "run.json", "--taxonomy", "taxonomy.jsonl",
                  "--dataset", "dataset.jsonl", "--ranker", "perfect"]
        inputs = {"run": inputs, "sweep": inputs, "embed-index": inputs[:4],
                  "simulate": inputs[:2], "evaluate": []}[argv[0]]
        before = {p.name: p.read_bytes() for p in tmp.iterdir()}
        assert run_cli(*argv, *inputs) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert no_backend_calls == []
        assert {p.name: p.read_bytes() for p in tmp.iterdir()} == before

    @pytest.mark.parametrize("command, flag, content", [
        ("run", "--taxonomy", None),
        ("embed-index", "--taxonomy", None),
        ("run", "--dataset", None),
        ("run", "--config", None),
        ("run", "--instruction-path", None),
        ("evaluate", "--predictions", None),
        ("run", "--taxonomy", b'{"tag_id": "Revenues", "text": "\xff"}\n'),
        ("embed-index", "--taxonomy", b"\xfe\xff\n"),
        ("run", "--dataset", b'{"record_id": "\xe9"}\n'),
        ("evaluate", "--predictions", b"\xff\n"),
        ("run", "--config", b'{"seed": "\xff"}'),
        ("run", "--instruction-path", b"Tag \xff"),
        ("run", "--index", b"\x08\x00\x00"),  # truncated header
        ("run", "--index", b"\x08\x00\x00\x00\xff\xff\xff\x7f"),  # count
        ("sweep", "--index", b"\x01\x00\x00\x00\x01\x00\x00\x00"
                             b"\x01\x00\x00\x00\xff\x00\x00\x80\x3f"),
    ], ids=lambda value: value.strip("-") if isinstance(value, str) else
        "directory" if value is None else "bytes")
    def test_an_unreadable_input_exits_2_naming_it(
            self, workspace, capsys, no_backend_calls, command, flag,
            content):
        """A directory, bytes that are not UTF-8, or a broken index file."""
        tmp, taxonomy, dataset = workspace
        bad = tmp / "bad"
        if content is None:
            bad.mkdir()
        else:
            bad.write_bytes(content)
        predictions = tmp / "preds.jsonl"
        predictions.write_text(json.dumps({"record_id": "r000",
                                           "predicted_tag_id": "Revenues"}),
                               encoding="utf-8")
        inputs = ["--taxonomy", taxonomy, "--dataset", dataset,
                  "--ranker", "perfect"]
        argv = {
            "run": ["run", *inputs, "--predictions-out", tmp / "p.jsonl"],
            "sweep": ["sweep", *inputs, "--axis", "iterations",
                      "--values", "1"],
            "embed-index": ["embed-index", "--index", tmp / "tags.idx"],
            "evaluate": ["evaluate", "--predictions", predictions,
                         "--dataset", dataset],
        }[command]
        assert run_cli(*argv, flag, bad) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and str(bad) in captured.err
        assert captured.out == ""
        assert no_backend_calls == []
        assert not (tmp / "p.jsonl").exists()
        assert not (tmp / "tags.idx").exists()

    def test_prebuilt_index_is_used(self, workspace, capsys):
        tmp, taxonomy, dataset = workspace
        index_path = tmp / "tags.idx"
        assert run_cli("embed-index", "--taxonomy", taxonomy,
                       "--index", index_path, "--embedder", "hash:64") == 0
        code = run_cli("run", "--taxonomy", taxonomy, "--dataset", dataset,
                       "--index", index_path, "--embedder", "hash:64",
                       "--ranker", "perfect",
                       "--predictions-out", tmp / "p.jsonl")
        assert code == 0

    def test_prebuilt_index_of_another_taxonomy_is_rejected(self, workspace,
                                                            capsys):
        tmp, taxonomy, dataset = workspace
        index_path = tmp / "tags.idx"
        other = write_taxonomy(tmp / "other.jsonl", TEN_TAGS[::-1])
        assert run_cli("embed-index", "--taxonomy", other,
                       "--index", index_path) == 0
        code = run_cli("run", "--taxonomy", taxonomy, "--dataset", dataset,
                       "--index", index_path, "--ranker", "perfect",
                       "--predictions-out", tmp / "p.jsonl")
        assert code == 2
        err = capsys.readouterr().err
        assert f"index {index_path} does not match the taxonomy" in err
        assert not (tmp / "p.jsonl").exists()

    def test_prebuilt_index_of_another_dimension_is_rejected(self, workspace,
                                                             capsys):
        tmp, taxonomy, dataset = workspace
        index_path = tmp / "tags.idx"
        assert run_cli("embed-index", "--taxonomy", taxonomy,
                       "--index", index_path, "--embedder", "hash:64") == 0
        code = run_cli("run", "--taxonomy", taxonomy, "--dataset", dataset,
                       "--index", index_path, "--embedder", "hash:256",
                       "--ranker", "perfect",
                       "--predictions-out", tmp / "p.jsonl")
        assert code == 2
        err = capsys.readouterr().err
        assert "64" in err and "256" in err
        assert not (tmp / "p.jsonl").exists()
        code = run_cli("sweep", "--taxonomy", taxonomy, "--dataset", dataset,
                       "--index", index_path, "--embedder", "hash:256",
                       "--ranker", "perfect", "--axis", "iterations",
                       "--values", "1,2")
        assert code == 2
        err = capsys.readouterr().err
        assert "64" in err and "256" in err

    def test_http_embedder_of_another_width_than_the_index_exits_2(
            self, workspace, capsys, embedding_session):
        """The model behind the embedder that built the index now answers in
        another width: found from the first query vector, with no extra
        request."""
        tmp, taxonomy, dataset = workspace
        index_path = tmp / "tags.idx"
        index = build_index(load_taxonomy(taxonomy), HashEmbedder(dim=64))
        dataclasses.replace(index, embedder_id="http-embedder:e").save(index_path)
        config = tmp / "run.json"
        config.write_text(json.dumps({
            "taxonomy": str(taxonomy), "dataset": str(dataset),
            "index": str(index_path), "ranker": "perfect",
            "embedder": HTTP_EMBEDDER, "predictions_out": str(tmp / "p.jsonl"),
        }), encoding="utf-8")
        assert run_cli("run", "--config", config) == 2
        err = capsys.readouterr().err
        assert "32-dimensional" in err and "64-dimensional" in err
        assert embedding_session.calls == 1
        assert not (tmp / "p.jsonl").exists()

    @staticmethod
    def _on_index(workspace, command, *flags):
        """``command`` over the workspace with its ``tags.idx``."""
        tmp, taxonomy, dataset = workspace
        outputs = {"run": ["--predictions-out", tmp / "p.jsonl"],
                   "sweep": ["--axis", "iterations", "--values", "1,2",
                             "--out", tmp / "p.jsonl"]}[command]
        return run_cli(command, "--taxonomy", taxonomy, "--dataset", dataset,
                       "--index", tmp / "tags.idx", "--ranker", "perfect",
                       *flags, *outputs)

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_an_index_of_edited_texts_exits_2(self, workspace, capsys,
                                              command):
        """Every tag keeps its id and gets a new text."""
        tmp, taxonomy, dataset = workspace
        assert run_cli("embed-index", "--taxonomy", taxonomy, "--index",
                       tmp / "tags.idx", "--embedder", "hash:64") == 0
        write_taxonomy(taxonomy, [(tag_id, f"{text}, as restated")
                                  for tag_id, text in TEN_TAGS])
        assert self._on_index(workspace, command, "--embedder", "hash:64") == 2
        assert capsys.readouterr().err.endswith(
            "does not match the taxonomy (rebuild with embed-index)\n")
        assert not (tmp / "p.jsonl").exists()

    def test_an_index_of_another_embedder_of_the_same_width_exits_2(
            self, workspace, capsys, embedding_session):
        """Found from the index file, before any request."""
        tmp, taxonomy, dataset = workspace
        assert run_cli("embed-index", "--taxonomy", taxonomy, "--index",
                       tmp / "tags.idx", "--embedder", "hash:32") == 0
        config = tmp / "embedder.json"
        config.write_text(json.dumps({"embedder": HTTP_EMBEDDER}),
                          encoding="utf-8")
        assert self._on_index(workspace, "run", "--config", config) == 2
        assert capsys.readouterr().err.endswith(
            "was built by embedder 'hash-embedder:dim=32', not "
            "'http-embedder:e' (rebuild with embed-index)\n")
        assert embedding_session.calls == 0
        assert not (tmp / "p.jsonl").exists()

    def test_a_version_1_index_exits_2(self, workspace, capsys):
        """The per-entry layout: dim and count, then each id and vector."""
        tmp, taxonomy, dataset = workspace
        index = build_index(load_taxonomy(taxonomy), HashEmbedder(dim=64))
        (tmp / "tags.idx").write_bytes(v1_bytes(index))
        assert self._on_index(workspace, "run", "--embedder", "hash:64") == 2
        assert capsys.readouterr().err.endswith("rebuild with embed-index\n")
        assert not (tmp / "p.jsonl").exists()

    def test_a_version_2_index_exits_2(self, workspace, capsys):
        """The header of the row-by-row layout that version 3 replaced."""
        tmp, taxonomy, dataset = workspace
        assert run_cli("embed-index", "--taxonomy", taxonomy, "--index",
                       tmp / "tags.idx", "--embedder", "hash:64") == 0
        data = (tmp / "tags.idx").read_bytes()
        (tmp / "tags.idx").write_bytes(data[:4] + struct.pack("<I", 2) + data[8:])
        assert self._on_index(workspace, "run", "--embedder", "hash:64") == 2
        assert capsys.readouterr().err.endswith(
            "not a version-3 index file; rebuild with embed-index\n")
        assert not (tmp / "p.jsonl").exists()

    def test_an_index_file_with_a_zero_row_exits_2(self, workspace, capsys):
        tmp, taxonomy, dataset = workspace
        assert run_cli("embed-index", "--taxonomy", taxonomy, "--index",
                       tmp / "tags.idx", "--embedder", "hash:64") == 0
        data = bytearray((tmp / "tags.idx").read_bytes())
        columns = np.frombuffer(data, "<f4", offset=len(data) - 4 * 64 * 10)
        columns.reshape(64, 10)[:, 3] = 0.0  # NetIncomeLoss's row
        (tmp / "tags.idx").write_bytes(data)
        assert self._on_index(workspace, "run", "--embedder", "hash:64") == 2
        assert capsys.readouterr().err.endswith(
            "index entry 'NetIncomeLoss' has a zero vector\n")
        assert not (tmp / "p.jsonl").exists()

    def test_http_ranker_keeps_to_its_rate_limit(self, workspace,
                                                 monkeypatch):
        """Records overlap, but never more than max_in_flight calls do."""
        class FakeSession:
            lock = threading.Lock()
            active = peak = calls = 0

            def mount(self, prefix, adapter):
                pass

            def post(self, url, json=None, headers=None, timeout=None):
                cls = FakeSession
                with cls.lock:
                    cls.calls += 1
                    cls.active += 1
                    cls.peak = max(cls.peak, cls.active)
                time.sleep(0.005)
                with cls.lock:
                    cls.active -= 1
                return Reply()

        class Reply:
            status_code = 200

            def json(self):
                content = "[2] > [1] > [3] > [4] > [5]"
                return {"choices": [{"message": {"content": content}}]}

        monkeypatch.setattr("requests.Session", FakeSession)
        tmp, taxonomy, dataset = workspace
        config = tmp / "run.json"
        config.write_text(json.dumps({
            "taxonomy": str(taxonomy), "dataset": str(dataset),
            "embedder": "hash:64",
            "ranker": {"kind": "http", "model": "m",
                       "base_url": "http://ranker.invalid/v1",
                       "rate_limit": {"max_in_flight": 2}},
            "predictions_out": str(tmp / "p.jsonl"),
        }), encoding="utf-8")
        assert run_cli("run", "--config", config) == 0
        assert FakeSession.calls == 5 * 8 * 2
        assert FakeSession.peak == 2
        preds = [json.loads(x) for x in
                 (tmp / "p.jsonl").read_text(encoding="utf-8").splitlines()]
        assert len(preds) == 5

    def test_manifests_of_a_cached_http_run_and_an_uncached_oracle_run(
            self, workspace, monkeypatch):
        """Which backend each role runs, cached or not, as the manifest says."""
        embeddings = FakeEmbeddingService(delays=(0.0,))

        class FakeSession:
            def mount(self, prefix, adapter):
                pass

            def post(self, url, json=None, headers=None, timeout=None):
                if url.endswith("/embeddings"):
                    return embeddings.post(url, json=json)
                content = "[2] > [1] > [3] > [4] > [5]"
                return FakeEmbeddingReply(
                    200, {"choices": [{"message": {"content": content}}]})

        monkeypatch.setattr("requests.Session", FakeSession)
        tmp, taxonomy, dataset = workspace
        config = tmp / "run.json"
        config.write_text(json.dumps({
            "embedder": HTTP_EMBEDDER,
            "ranker": {**HTTP_RANKER, "rate_limit": {"max_in_flight": 2}},
        }), encoding="utf-8")
        assert run_cli("run", "--config", config, "--taxonomy", taxonomy,
                       "--dataset", dataset, "--cache-dir", tmp / "cache",
                       "--predictions-out", tmp / "http.jsonl") == 0
        assert run_cli("run", "--taxonomy", taxonomy, "--dataset", dataset,
                       "--ranker", "noisy:0.25", "--embedder", "hash:64",
                       "--predictions-out", tmp / "oracle.jsonl") == 0

        def manifest(name):
            text = (tmp / f"{name}.jsonl.manifest.json").read_text(
                encoding="utf-8")
            return json.loads(text.replace(str(tmp), "<tmp>"))

        def settings(**changed):
            return {"cache_dir": None, "concurrency": None, "generator": "file",
                    "group_size": 5, "index": None, "instruction_path": None,
                    "iterations": 8, "ordering": "order-preserving",
                    "seed": 0, "taxonomy": "<tmp>/taxonomy.jsonl",
                    "dataset": "<tmp>/dataset.jsonl", "top_k": 10,
                    "trace_out": None, "vote_mode": "per-group", **changed}

        counts = {"failed": 0, "fallbacks": 0, "predicted": 5, "skipped": 0}
        shas = {"instruction_sha256": "a5fb452ee01b14c8223830fd429bb7c5"
                                      "47af15202fb435eae58210fe2e5333ca",
                "rerank_template_sha256": "91e35dafaadfaf00373d2640cc3f2ec8"
                                          "89f5dbb7d4933cf640e0b7b9a87ad57f"}
        assert manifest("http") == {
            "settings": settings(
                cache_dir="<tmp>/cache", embedder=HTTP_EMBEDDER,
                ranker={**HTTP_RANKER, "rate_limit": {"max_in_flight": 2}},
                predictions_out="<tmp>/http.jsonl"),
            "seed": 0, **shas,
            "backend_ids": {"generator": "file-generator",
                            "embedder": "cached(http-embedder:e)",
                            "ranker": "cached(http-ranker:m)"},
            "cache": {"embedder": {"requests": 6, "hits": 0, "misses": 6},
                      "ranker": {"requests": 80, "hits": 0, "misses": 80}},
            "counts": counts,
        }
        assert manifest("oracle") == {
            "settings": settings(embedder="hash:64", ranker="noisy:0.25",
                                 predictions_out="<tmp>/oracle.jsonl"),
            "seed": 0, **shas,
            "backend_ids": {"generator": "file-generator",
                            "embedder": "hash-embedder:dim=64",
                            "ranker": "oracle:noisy:0.25"},
            "cache": {},
            "counts": counts,
        }

    def test_rate_limit_of_zero_is_a_config_error(self, workspace, capsys):
        tmp, taxonomy, dataset = workspace
        config = tmp / "run.json"
        config.write_text(json.dumps({
            "taxonomy": str(taxonomy), "dataset": str(dataset),
            "ranker": {"kind": "http", "model": "m",
                       "base_url": "http://ranker.invalid/v1",
                       "rate_limit": {"max_in_flight": 0}},
        }), encoding="utf-8")
        assert run_cli("run", "--config", config) == 2
        assert "max_in_flight" in capsys.readouterr().err


class TestMalformedBackendSpecs:
    """A bad value in a backend spec exits 2 with a message, not a traceback."""

    def _run(self, workspace, **specs):
        tmp, taxonomy, dataset = workspace
        config = tmp / "run.json"
        config.write_text(json.dumps({
            "taxonomy": str(taxonomy), "dataset": str(dataset),
            "ranker": "perfect", "predictions_out": str(tmp / "p.jsonl"),
            **specs,
        }), encoding="utf-8")
        return run_cli("run", "--config", config)

    @pytest.mark.parametrize("role, spec", [
        ("embedder", "hash:abc"),
        ("embedder", "hash:0"),
        ("ranker", "noisy:abc"),
        ("ranker", "noisy:2"),
        ("ranker", {**HTTP_RANKER, "timeout": "abc"}),
        ("ranker", {**HTTP_RANKER, "retry": 3}),
        ("ranker", {**HTTP_RANKER, "temprature": 0.5}),
        ("ranker", {**HTTP_RANKER, "retry": {"max_attempt": 2}}),
        ("ranker", {**HTTP_RANKER, "rate_limit": {"max_inflight": 2}}),
        ("ranker", {"kind": "perfect", "error_rate": 0.1}),
        ("embedder", {"kind": "hash", "dims": 64}),
        ("embedder", {**HTTP_EMBEDDER, "temperature": 0.0}),
        ("generator", {"kind": "file", "path": "x"}),
        ("embedder", {"kind": "hash", "dim": 64.0}),
        ("ranker", {**HTTP_RANKER, "rate_limit": {"max_in_flight": 4.7}}),
        ("ranker", {**HTTP_RANKER, "retry": {"max_attempts": True}}),
        ("ranker", {"kind": "noisy", "error_rate": True}),
        ("ranker", {**HTTP_RANKER, "temperature": True}),
    ])
    def test_bad_spec_value_exits_2(self, workspace, capsys, role, spec):
        assert self._run(workspace, **{role: spec}) == 2
        assert capsys.readouterr().err.startswith("error: backend spec")
        assert not (workspace[0] / "p.jsonl").exists()

    @pytest.mark.parametrize("setting, message", [
        ({"retry": {"max_attempts": 0}}, "max_attempts"),
        ({"retry": {"max_attempts": 3, "base_delay": 0,
                    "factor": math.inf}}, "finite"),
        ({"retry": {"base_delay": math.inf, "max_delay": math.inf}}, "finite"),
        ({"timeout": 0}, "timeout"),
        ({"timeout": "nan"}, "timeout"),
        ({"timeout": math.inf}, "timeout"),
        ({"temperature": math.nan}, "temperature"),
        ({"temperature": -math.inf}, "temperature"),
        ({"rate_limit": {"min_interval": math.inf}}, "min_interval"),
        ({"rate_limit": {"min_interval": math.nan}}, "min_interval"),
        ({"rate_limit": {"min_interval": -1}}, "min_interval"),
        ({"timeout": 1e300}, "timeout"),
        ({"retry": {"max_delay": 2**70}}, "max_delay"),
        ({"rate_limit": {"min_interval": 1e300}}, "min_interval"),
    ])
    def test_a_client_setting_that_fails_every_call_exits_2(
            self, workspace, capsys, setting, message):
        """Without the check the run exits 0 with every record failed."""
        assert self._run(workspace, ranker={**HTTP_RANKER, **setting}) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (workspace[0] / "p.jsonl").exists()

    def test_every_command_builds_backends_the_same_way(self, workspace,
                                                        capsys):
        tmp, taxonomy, dataset = workspace
        assert run_cli("embed-index", "--taxonomy", taxonomy,
                       "--index", tmp / "x.idx", "--embedder", "hash:0") == 2
        assert run_cli("sweep", "--taxonomy", taxonomy, "--dataset", dataset,
                       "--ranker", "noisy:2", "--axis", "iterations",
                       "--values", "1") == 2
        assert run_cli("simulate", "--oracle", "noisy:abc", "--trials", 5) == 2
        err = capsys.readouterr().err
        assert err.count("error: backend spec") == 3
        assert not (tmp / "x.idx").exists()


class TestEvaluate:
    def _write_predictions(self, path, triples):
        with path.open("w", encoding="utf-8") as fh:
            for record_id, predicted in triples:
                fh.write(json.dumps({"record_id": record_id,
                                     "predicted_tag_id": predicted}) + "\n")

    def test_two_of_three(self, tmp_path, capsys):
        records = make_records(3)
        dataset = write_dataset(tmp_path / "data.jsonl", records)
        preds = tmp_path / "preds.jsonl"
        self._write_predictions(preds, [
            (records[0].record_id, records[0].gold_tag_id),
            (records[1].record_id, records[1].gold_tag_id),
            (records[2].record_id, records[0].gold_tag_id),
        ])
        out_path = tmp_path / "report.json"
        code = run_cli("evaluate", "--predictions", preds,
                       "--dataset", dataset, "--out", out_path)
        assert code == 0
        report = json.loads(out_path.read_text(encoding="utf-8"))
        assert report["hits_at_1"] == pytest.approx(2 / 3, abs=1e-9)
        out = capsys.readouterr().out
        assert "Hits@1" in out and "0.6667" in out

    def test_macro_fixture_through_cli(self, tmp_path):
        records = make_records(3)
        # golds A A B; predictions A A A
        records[1] = records[1].__class__(
            record_id=records[1].record_id,
            report_text=records[1].report_text,
            numeral=records[1].numeral,
            question=records[1].question,
            gold_tag_id=records[0].gold_tag_id,
            gen_tag_doc=records[1].gen_tag_doc,
        )
        dataset = write_dataset(tmp_path / "data.jsonl", records)
        preds = tmp_path / "preds.jsonl"
        self._write_predictions(preds, [
            (r.record_id, records[0].gold_tag_id) for r in records
        ])
        out_path = tmp_path / "report.json"
        assert run_cli("evaluate", "--predictions", preds,
                       "--dataset", dataset, "--out", out_path) == 0
        report = json.loads(out_path.read_text(encoding="utf-8"))
        assert report["macro_f1"] == 0.4

    def test_empty_predictions_file(self, tmp_path, capsys):
        dataset = write_dataset(tmp_path / "data.jsonl", make_records(2))
        preds = tmp_path / "preds.jsonl"
        preds.write_text("", encoding="utf-8")
        assert run_cli("evaluate", "--predictions", preds,
                       "--dataset", dataset) == 2
        assert "no prediction lines" in capsys.readouterr().err

    def test_unmatched_record_id(self, tmp_path, capsys):
        dataset = write_dataset(tmp_path / "data.jsonl", make_records(2))
        preds = tmp_path / "preds.jsonl"
        self._write_predictions(preds, [("ghost", "Revenues")])
        assert run_cli("evaluate", "--predictions", preds,
                       "--dataset", dataset) == 2
        assert "unknown record_id" in capsys.readouterr().err

    @pytest.mark.parametrize("line,where", [
        ("42", ":2:"),
        ('["record_id", "predicted_tag_id"]', ":2:"),
        ('{"record_id": "r001", "predicted_tag_id": null}', ":2:"),
        ('{"record_id": "r001", "predicted_tag_id": ""}', ": record"),
        ('{"record_id": "r000", "predicted_tag_id": "Revenues"}', ": duplicate"),
    ])
    def test_bad_prediction_line_is_a_config_error(self, tmp_path, capsys,
                                                   line, where):
        dataset = write_dataset(tmp_path / "data.jsonl", make_records(2))
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"record_id": "r000",
                                     "predicted_tag_id": "Revenues"})
                         + "\n" + line + "\n", encoding="utf-8")
        assert run_cli("evaluate", "--predictions", preds,
                       "--dataset", dataset) == 2
        assert f"error: {preds}{where}" in capsys.readouterr().err


class TestSweep:
    def test_iterations_thirteen_rows(self, workspace, capsys):
        tmp, taxonomy, dataset = workspace
        out_path = tmp / "sweep.json"
        code = run_cli(
            "sweep", "--taxonomy", taxonomy, "--dataset", dataset,
            "--ranker", "perfect", "--embedder", "hash:32",
            "--axis", "iterations", "--values", ",".join(map(str, range(1, 14))),
            "--out", out_path,
        )
        assert code == 0
        table = json.loads(out_path.read_text(encoding="utf-8"))
        assert len(table["cells"]) == 13
        text = capsys.readouterr().out
        assert text.count("\n") >= 14  # header + rule + 13 rows

    def test_ordering_two_rows(self, workspace, capsys):
        tmp, taxonomy, dataset = workspace
        code = run_cli(
            "sweep", "--taxonomy", taxonomy, "--dataset", dataset,
            "--ranker", "position-biased", "--embedder", "hash:32",
            "--axis", "ordering",
            "--values", "order-preserving,order-shuffled",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "order-preserving" in out and "order-shuffled" in out

    @pytest.mark.parametrize("axis, values, message", [
        ("group-size", "0,5", "--values 0: group_size must be >= 1"),
        ("group-size", "11,5", "--values 11: group_size must not exceed top_k"),
        ("iterations", "0,2", "--values 0: iterations must be >= 1"),
        ("ordering", "order-preserving,bogus", "--values bogus: "),
        ("iterations", "1,x", "--values x: invalid literal for int()"),
        ("iterations", "1,,2", "--values : invalid literal for int()"),
    ])
    def test_a_bad_value_exits_2_before_any_record_runs(
            self, workspace, capsys, monkeypatch, axis, values, message):
        tmp, taxonomy, dataset = workspace
        calls = []
        monkeypatch.setattr(OracleRanker, "rank_listwise",
                            lambda self, request: calls.append(request))
        out_path = tmp / "sweep.json"
        code = run_cli(
            "sweep", "--taxonomy", taxonomy, "--dataset", dataset,
            "--ranker", "perfect", "--embedder", "hash:32",
            "--axis", axis, "--values", values, "--out", out_path,
        )
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert calls == []
        assert not out_path.exists()

    @pytest.mark.parametrize("axis, flag_values, values", [
        (SweepAxis.ITERATIONS, "1, 2", [1, 2]),
        (SweepAxis.ORDERING, "order-preserving,order-shuffled",
         [Ordering.ORDER_PRESERVING, Ordering.ORDER_SHUFFLED]),
    ])
    def test_the_table_of_the_flag_values_is_the_library_sweep(
            self, workspace, capsys, axis, flag_values, values):
        """Labelled alike, enum values included."""
        tmp, taxonomy, dataset = workspace
        assert run_cli(
            "sweep", "--taxonomy", taxonomy, "--dataset", dataset,
            "--ranker", "lexical", "--embedder", "hash:32", "--seed", 4,
            "--axis", axis.value, "--values", flag_values, "--out",
            tmp / "sweep.json") == 0
        corpus = load_taxonomy(taxonomy)
        embedder = HashEmbedder(dim=32)
        table = run_sweep(
            load_dataset(dataset, corpus), corpus, build_index(corpus, embedder),
            generator=FileBackedGenerator(), embedder=embedder,
            ranker=OracleRanker(OracleSpec(OracleKind.LEXICAL, seed=4)),
            template=RerankConfig(seed=4), instruction=default_instruction(),
            axis=axis, values=values)
        assert json.loads((tmp / "sweep.json").read_text(
            encoding="utf-8")) == table.to_dict()
        assert capsys.readouterr().out.startswith(table.render_text() + "\n")

    def test_a_dataset_without_gold_exits_2_before_any_record_runs(
            self, tmp_path, capsys, monkeypatch):
        taxonomy = write_taxonomy(tmp_path / "taxonomy.jsonl")
        dataset = write_dataset(tmp_path / "dataset.jsonl", [
            dataclasses.replace(r, gold_tag_id=None) for r in make_records(3)])
        calls = []
        monkeypatch.setattr(OracleRanker, "rank_listwise",
                            lambda self, request: calls.append(request))
        monkeypatch.setattr(HashEmbedder, "embed_batches",
                            lambda self, batches: calls.append(batches))
        out_path = tmp_path / "sweep.json"
        code = run_cli(
            "sweep", "--taxonomy", taxonomy, "--dataset", dataset,
            "--ranker", "perfect", "--embedder", "hash:32",
            "--axis", "iterations", "--values", "1,2", "--out", out_path,
        )
        assert code == 2
        assert "error: no gold-bearing records to evaluate" in \
            capsys.readouterr().err
        assert calls == []  # not even the index was built
        assert not out_path.exists()

    def test_a_failed_cell_names_its_reason_under_the_table(
            self, workspace, capsys, monkeypatch):
        tmp, taxonomy, dataset = workspace
        rank = OracleRanker.rank_listwise

        def refusing_wide_groups(self, request):
            if len(request.items) > 2:
                raise BackendError("ranker: groups of at most 2")
            return rank(self, request)
        monkeypatch.setattr(OracleRanker, "rank_listwise", refusing_wide_groups)
        code = run_cli(
            "sweep", "--taxonomy", taxonomy, "--dataset", dataset,
            "--ranker", "perfect", "--embedder", "hash:32",
            "--axis", "group-size", "--values", "2,5",
        )
        assert code == 1
        captured = capsys.readouterr()
        assert [line.split()[:2] for line in captured.out.splitlines()[2:]] \
            == [["2", "1.0000"], ["5", "failed"]]
        assert captured.err == "group-size=5: prediction set is empty\n"


class TestSimulate:
    def test_perfect_summary(self, tmp_path, capsys):
        out_path = tmp_path / "sim.json"
        code = run_cli("simulate", "--oracle", "perfect", "--trials", 200,
                       "--seed", 1, "--out", out_path)
        assert code == 0
        summary = json.loads(out_path.read_text(encoding="utf-8"))
        assert summary["recovery_rate"] >= 0.95
        assert summary["oracle"] == "perfect"
        assert json.loads(capsys.readouterr().out)["trials"] == 200

    def test_noisy_oracle_spec(self, capsys):
        code = run_cli("simulate", "--oracle", "noisy:0.2", "--trials", 50)
        assert code == 0
        assert json.loads(capsys.readouterr().out)["oracle"] == "noisy:0.2"

    @pytest.mark.parametrize("oracle", ["psychic", "http"])
    def test_bad_oracle(self, capsys, oracle):
        assert run_cli("simulate", "--oracle", oracle, "--trials", 5) == 2
        assert f"error: unknown oracle kind '{oracle}'" in capsys.readouterr().err


class TestBackendSpecs:
    def test_http_ranker_spec_with_retry_and_rate_limit(self):
        from tagrec import backends as be
        ranker = _build("ranker", {
            "kind": "http", "model": "m", "base_url": "http://api.test/v1",
            "temperature": 0.5,
            "retry": {"max_attempts": 2, "base_delay": 0.1},
            "rate_limit": {"max_in_flight": 1, "min_interval": 0.0},
        }, seed=0)
        assert ranker.backend_id == "http-ranker:m"
        assert ranker.temperature == 0.5
        assert ranker.retry == be.RetryPolicy(max_attempts=2, base_delay=0.1)

    @pytest.mark.parametrize("role, obj, string, options", [
        ("embedder", {"kind": "hash", "dim": 64}, "hash:64", lambda e: e.dim),
        ("ranker", {"kind": "noisy", "error_rate": 0.25}, "noisy:0.25",
         lambda ranker: ranker.spec),
        ("oracle", {"kind": "noisy", "error_rate": 0.25}, "noisy:0.25",
         lambda spec: spec),
    ], ids=["hash", "noisy-ranker", "noisy-oracle"])
    def test_object_and_string_specs_build_alike(self, role, obj, string,
                                                 options):
        built, from_string = (_build(role, spec, seed=9)
                              for spec in (obj, string))
        assert type(built) is type(from_string)
        assert options(built) == options(from_string)
        assert getattr(built, "backend_id", None) == \
            getattr(from_string, "backend_id", None)

    @pytest.mark.parametrize("role, spec", [
        ("generator", "telepathy"),
        ("embedder", "wavelet"),
        ("ranker", "psychic"),
        ("oracle", "http"),
    ])
    def test_unknown_kinds_rejected(self, role, spec):
        from tagrec.errors import ConfigError
        with pytest.raises(ConfigError, match=f"unknown {role} kind '{spec}'"):
            _build(role, spec, seed=0)

    @pytest.mark.parametrize("role, spec", [("ranker", HTTP_RANKER),
                                            ("embedder", HTTP_EMBEDDER)])
    def test_a_rate_limit_above_its_bound_is_rejected_by_the_converter(
            self, role, spec):
        """Before the client's connection pool is sized from it."""
        from tagrec.errors import ConfigError
        with pytest.raises(ConfigError, match="^backend spec .*max_in_flight "
                                              "must be from 1 to 64, got 65$"):
            _build(role, {**spec, "rate_limit": {"max_in_flight": 65}})

    @pytest.mark.parametrize("spec, message", [
        ({**HTTP_RANKER, "rate_limit": {"max_in_flight": 4.7}},
         "max_in_flight must be an integer, got 4.7"),
        ({**HTTP_RANKER, "retry": {"max_attempts": 2.0}},
         "max_attempts must be an integer, got 2.0"),
    ])
    def test_integer_keys_of_a_spec_take_no_bool_or_float(self, spec,
                                                          message):
        with pytest.raises(ConfigError, match=f"^backend spec .*: {message}$"):
            _build("ranker", spec)

    @pytest.mark.parametrize("role, spec, message", [
        ("ranker", {"kind": "noisy", "error_rate": True},
         "error_rate must be a number, got True"),
        ("oracle", {"kind": "noisy", "error_rate": False},
         "error_rate must be a number, got False"),
        ("ranker", {**HTTP_RANKER, "temperature": True},
         "temperature must be a number, got True"),
        ("ranker", {**HTTP_RANKER, "timeout": True},
         "timeout must be a number, got True"),
        ("embedder", {**HTTP_EMBEDDER, "timeout": [30]},
         r"timeout must be a number, got \[30\]"),
        ("ranker", {**HTTP_RANKER, "retry": {"base_delay": True}},
         "base_delay must be a number, got True"),
        ("ranker", {**HTTP_RANKER, "retry": {"max_delay": None}},
         "max_delay must be a number, got None"),
        ("ranker", {**HTTP_RANKER, "rate_limit": {"min_interval": True}},
         "min_interval must be a number, got True"),
        ("ranker", {**HTTP_RANKER, "timeout": "soon"},
         "timeout must be a number, got 'soon'"),
        ("ranker", {**HTTP_RANKER, "timeout": 10**400},
         "timeout must be a number, got 1000"),
    ])
    def test_number_keys_of_a_spec_take_no_bool_or_non_number(
            self, role, spec, message):
        with pytest.raises(ConfigError, match=f"^backend spec .*: {message}"):
            _build(role, spec)

    @pytest.mark.parametrize("spec, rate", [
        ("noisy:0.3", 0.3), ({"kind": "noisy", "error_rate": "0.3"}, 0.3),
        ({"kind": "noisy", "error_rate": 1}, 1.0),
        ({"kind": "noisy", "error_rate": 0.25}, 0.25)])
    def test_number_keys_take_numbers_and_decimal_strings(self, spec, rate):
        built = _build("ranker", spec).spec.error_rate
        assert built == rate and type(built) is float

    def test_cache_wraps_every_backend_that_builds_keys(self, tmp_path):
        from tagrec import backends as be
        settings = {"generator": "file", "embedder": HTTP_EMBEDDER,
                    "ranker": "perfect", "seed": 0, "cache_dir": None}
        roles = ("generator", "embedder", "ranker")
        assert [type(b) for b in _backends(settings, *roles)] == [
            be.FileBackedGenerator, be.HttpEmbedder, OracleRanker]
        settings["cache_dir"] = str(tmp_path / "cache")
        assert [type(b) for b in _backends(settings, *roles)] == [
            be.FileBackedGenerator, be.CachingEmbedder, be.CachingRanker]
        [embedder] = _backends({**settings, "embedder": "hash:8"}, "embedder")
        assert type(embedder) is be.HashEmbedder

    def test_oracle_ranker_seeded_from_run_seed(self):
        ranker = _build("ranker", "noisy:0.25", seed=9)
        assert ranker.spec.error_rate == 0.25
        assert ranker.spec.seed == 9


class TestCache:
    @pytest.mark.parametrize("command", ["stats", "clear"])
    def test_missing_cache_dir_exits_2_and_makes_nothing(self, tmp_path,
                                                          capsys, command):
        missing = tmp_path / "nocache"
        assert run_cli("cache", command, "--cache-dir", missing) == 2
        captured = capsys.readouterr()
        assert f"cache directory does not exist: {missing}" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, specs", [
        ("run", {"embedder": HTTP_EMBEDDER, "ranker": "noisy:2"}),
        ("run", {"ranker": HTTP_RANKER, "generator": "file:x"}),
        ("sweep", {"embedder": HTTP_EMBEDDER, "ranker": "psychic"}),
        ("embed-index", {"embedder": "hash:0"}),
    ])
    def test_a_bad_spec_leaves_no_cache_directory(self, workspace, capsys,
                                                  command, specs):
        tmp, taxonomy, dataset = workspace
        config = tmp / "run.json"
        config.write_text(json.dumps(specs), encoding="utf-8")
        argv = {"run": ["--dataset", dataset],
                "sweep": ["--dataset", dataset, "--axis", "iterations",
                          "--values", "1"],
                "embed-index": ["--index", tmp / "x.idx"]}[command]
        assert run_cli(command, "--config", config, "--taxonomy", taxonomy,
                       "--cache-dir", tmp / "cache", *argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp / "cache").exists()

    @pytest.mark.parametrize("command", ["run", "embed-index"])
    def test_a_cache_dir_that_is_a_file_exits_2(self, workspace, capsys,
                                                no_backend_calls, command):
        tmp, taxonomy, dataset = workspace
        (tmp / "cache").write_text("", encoding="utf-8")
        argv = {"run": ["--dataset", dataset, "--ranker", "perfect",
                        "--predictions-out", tmp / "p.jsonl"],
                "embed-index": ["--index", tmp / "x.idx"]}[command]
        assert run_cli(command, "--taxonomy", taxonomy, "--cache-dir",
                       tmp / "cache", *argv) == 2
        assert f"error: cache_dir {tmp / 'cache'}: " in capsys.readouterr().err
        assert no_backend_calls == []

    def test_stats_and_clear(self, workspace, capsys):
        tmp, taxonomy, dataset = workspace
        cache_dir = tmp / "cache"
        assert run_cli("run", "--taxonomy", taxonomy, "--dataset", dataset,
                       "--ranker", "perfect", "--cache-dir", cache_dir,
                       "--predictions-out", tmp / "p.jsonl") == 0
        capsys.readouterr()
        assert run_cli("cache", "stats", "--cache-dir", cache_dir) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] > 0
        assert run_cli("cache", "clear", "--cache-dir", cache_dir) == 0
        capsys.readouterr()
        assert run_cli("cache", "stats", "--cache-dir", cache_dir) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0
