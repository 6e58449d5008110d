from __future__ import annotations

import argparse
import json
import threading
import time

import pytest

from tagrec.cli import build_parser, main
from tagrec.retrieval import VectorIndex
from tagrec.sim import OracleRanker

from conftest import TEN_TAGS, make_records, write_dataset, write_taxonomy

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

        def post(self, url, json=None, headers=None, timeout=None,
                 stream=False):
            FakeSession.calls += 1
            return Reply(len(json["input"]))

    class Reply:
        status_code = 200
        content = b"the body, as a streamed reply reads it"

        def __init__(self, n):
            self.n = n

        def json(self):
            return {"data": [{"embedding": [0.5] * 32}] * self.n}

    monkeypatch.setattr("requests.Session", FakeSession)
    return FakeSession


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
        config.write_text(json.dumps({"embedder": HTTP_EMBEDDER}))
        argv = ("embed-index", "--config", config, "--taxonomy", taxonomy,
                "--index", tmp / "tags.idx", "--cache-dir", tmp / "cache",
                "--force")
        assert run_cli(*argv) == 0
        assert embedding_session.calls == 1
        first = (tmp / "tags.idx").read_bytes()
        assert run_cli(*argv) == 0
        assert embedding_session.calls == 1
        assert (tmp / "tags.idx").read_bytes() == first


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
        lines = [json.loads(l) for l in predictions.read_text().splitlines()]
        assert len(lines) == 5
        assert all(l["predicted_tag_id"] == l["gold_tag_id"] for l in lines)
        assert all(l["gold_in_top_k"] for l in lines)
        trace_lines = [json.loads(l) for l in traces.read_text().splitlines()]
        assert len(trace_lines) == 5
        assert trace_lines[0]["total_rounds"] == 8
        manifest = json.loads(
            (tmp / "preds.jsonl.manifest.json").read_text())
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
        assert len(predictions.read_text().splitlines()) == 2

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
        manifest = json.loads((tmp / "b.jsonl.manifest.json").read_text())
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
        }))
        code = run_cli("run", "--config", config, "--iterations", 4)
        assert code == 0
        traces_free_preds = tmp / "from_config.jsonl"
        manifest = json.loads(
            (tmp / "from_config.jsonl.manifest.json").read_text())
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
        config.write_text(json.dumps({"taxnomy": str(taxonomy)}))
        assert run_cli("run", "--config", config) == 2
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("iterations", None, "iterations must be an integer, got None"),
        ("top_k", [3], "top_k must be an integer, got [3]"),
        ("concurrency", "x", "concurrency must be an integer, got 'x'"),
        ("ordering", "sideways", "ordering must be one of "
                                 "['order-preserving', 'order-shuffled']"),
        ("predictions_out", None, "predictions_out must be a string"),
        ("ranker", 3, "ranker must be a backend spec string or object"),
    ])
    def test_config_value_of_a_wrong_type_exits_2(self, workspace, capsys,
                                                  key, value, message):
        tmp, taxonomy, dataset = workspace
        config = tmp / "run.json"
        config.write_text(json.dumps({
            "taxonomy": str(taxonomy), "dataset": str(dataset),
            "ranker": "perfect", "predictions_out": str(tmp / "p.jsonl"),
            key: value,
        }))
        assert run_cli("run", "--config", config) == 2
        assert message in capsys.readouterr().err
        assert not (tmp / "p.jsonl").exists()

    def test_flag_value_of_a_wrong_type_exits_2(self, workspace, capsys):
        tmp, taxonomy, dataset = workspace
        assert run_cli("run", "--taxonomy", taxonomy, "--dataset", dataset,
                       "--ranker", "perfect", "--top-k", "ten") == 2
        assert "top_k must be an integer, got 'ten'" in capsys.readouterr().err

    def test_null_where_the_default_is_null(self, workspace):
        tmp, taxonomy, dataset = workspace
        config = tmp / "run.json"
        config.write_text(json.dumps({
            "taxonomy": str(taxonomy), "dataset": str(dataset),
            "ranker": "perfect", "predictions_out": str(tmp / "p.jsonl"),
            "index": None, "cache_dir": None, "concurrency": None,
            "trace_out": None, "instruction_path": None,
        }))
        assert run_cli("run", "--config", config) == 0
        manifest = json.loads((tmp / "p.jsonl.manifest.json").read_text())
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

    @pytest.mark.parametrize("key", ["predictions_out", "trace_out"])
    def test_output_in_a_missing_directory_exits_2_before_the_run(
            self, workspace, capsys, key):
        tmp, taxonomy, dataset = workspace
        outputs = {"predictions_out": tmp / "p.jsonl",
                   "trace_out": tmp / "t.jsonl", key: tmp / "nodir" / "out.jsonl"}
        flags = [a for k, v in outputs.items()
                 for a in ("--" + k.replace("_", "-"), v)]
        assert run_cli("run", "--taxonomy", taxonomy, "--dataset", dataset,
                       "--ranker", "perfect", "--index", tmp / "tags.idx",
                       *flags) == 2
        captured = capsys.readouterr()
        assert str(tmp / "nodir" / "out.jsonl") in captured.err
        assert "does not exist" in captured.err
        assert captured.out == ""
        # Nothing ran: the index was neither built nor saved.
        assert not (tmp / "tags.idx").exists()
        assert not (tmp / "nodir").exists()

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
        """Found from the first query vector, with no extra request."""
        tmp, taxonomy, dataset = workspace
        index_path = tmp / "tags.idx"
        assert run_cli("embed-index", "--taxonomy", taxonomy,
                       "--index", index_path, "--embedder", "hash:64") == 0
        config = tmp / "run.json"
        config.write_text(json.dumps({
            "taxonomy": str(taxonomy), "dataset": str(dataset),
            "index": str(index_path), "ranker": "perfect",
            "embedder": HTTP_EMBEDDER, "predictions_out": str(tmp / "p.jsonl"),
        }))
        assert run_cli("run", "--config", config) == 2
        err = capsys.readouterr().err
        assert "32-dimensional" in err and "64-dimensional" in err
        assert embedding_session.calls == 1
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
        }))
        assert run_cli("run", "--config", config) == 0
        assert FakeSession.calls == 5 * 8 * 2
        assert FakeSession.peak == 2
        preds = [json.loads(x) for x in (tmp / "p.jsonl").read_text().splitlines()]
        assert len(preds) == 5

    def test_rate_limit_of_zero_is_a_config_error(self, workspace, capsys):
        tmp, taxonomy, dataset = workspace
        config = tmp / "run.json"
        config.write_text(json.dumps({
            "taxonomy": str(taxonomy), "dataset": str(dataset),
            "ranker": {"kind": "http", "model": "m",
                       "base_url": "http://ranker.invalid/v1",
                       "rate_limit": {"max_in_flight": 0}},
        }))
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
        }))
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
    ])
    def test_bad_spec_value_exits_2(self, workspace, capsys, role, spec):
        assert self._run(workspace, **{role: spec}) == 2
        assert capsys.readouterr().err.startswith("error: backend spec")
        assert not (workspace[0] / "p.jsonl").exists()

    @pytest.mark.parametrize("setting, message", [
        ({"retry": {"max_attempts": 0}}, "max_attempts"),
        ({"timeout": 0}, "timeout"),
        ({"timeout": "nan"}, "timeout"),
    ])
    def test_zero_retries_or_timeout_exit_2(self, workspace, capsys, setting,
                                            message):
        """Without the check the run exits 0 with every record failed."""
        assert self._run(workspace, ranker={**HTTP_RANKER, **setting}) == 2
        assert message in capsys.readouterr().err
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
        with path.open("w") as fh:
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
        report = json.loads(out_path.read_text())
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
        report = json.loads(out_path.read_text())
        assert report["macro_f1"] == 0.4

    def test_empty_predictions_file(self, tmp_path, capsys):
        dataset = write_dataset(tmp_path / "data.jsonl", make_records(2))
        preds = tmp_path / "preds.jsonl"
        preds.write_text("")
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
                         + "\n" + line + "\n")
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
        table = json.loads(out_path.read_text())
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


class TestSimulate:
    def test_perfect_summary(self, tmp_path, capsys):
        out_path = tmp_path / "sim.json"
        code = run_cli("simulate", "--oracle", "perfect", "--trials", 200,
                       "--seed", 1, "--out", out_path)
        assert code == 0
        summary = json.loads(out_path.read_text())
        assert summary["recovery_rate"] >= 0.95
        assert summary["oracle"] == "perfect"
        assert json.loads(capsys.readouterr().out)["trials"] == 200

    def test_noisy_oracle_spec(self, capsys):
        code = run_cli("simulate", "--oracle", "noisy:0.2", "--trials", 50)
        assert code == 0
        assert json.loads(capsys.readouterr().out)["oracle"] == "noisy:0.2"

    def test_bad_oracle(self, capsys):
        assert run_cli("simulate", "--oracle", "psychic", "--trials", 5) == 2


class TestBackendSpecs:
    def test_http_ranker_spec_with_retry_and_rate_limit(self):
        from tagrec import backends as be
        from tagrec.cli import _build_ranker
        ranker = _build_ranker({
            "kind": "http", "model": "m", "base_url": "http://api.test/v1",
            "temperature": 0.5,
            "retry": {"max_attempts": 2, "base_delay": 0.1},
            "rate_limit": {"max_in_flight": 1, "min_interval": 0.0},
        }, seed=0)
        assert ranker.backend_id == "http-ranker:m"
        assert ranker.temperature == 0.5
        assert ranker._client.retry == be.RetryPolicy(max_attempts=2,
                                                      base_delay=0.1)

    def test_object_and_string_specs_build_alike(self):
        from tagrec.cli import _build_embedder, _build_ranker
        assert _build_embedder({"kind": "hash", "dim": 64}).backend_id == \
            _build_embedder("hash:64").backend_id
        assert _build_ranker({"kind": "noisy", "error_rate": 0.25}, seed=9) \
            .spec == _build_ranker("noisy:0.25", seed=9).spec

    def test_unknown_kinds_rejected(self):
        from tagrec.cli import _build_embedder, _build_generator, _build_ranker
        from tagrec.errors import ConfigError
        with pytest.raises(ConfigError):
            _build_embedder("wavelet")
        with pytest.raises(ConfigError):
            _build_generator("telepathy")
        with pytest.raises(ConfigError):
            _build_ranker("psychic", seed=0)

    def test_cache_wraps_every_backend_that_builds_keys(self, tmp_path):
        from tagrec import backends as be
        from tagrec.cli import _build_ranker, _wrap_with_cache
        generator, embedder = be.FileBackedGenerator(), be.HashEmbedder(8)
        http_embedder = be.HttpEmbedder("e", "http://api.test/v1")
        ranker = _build_ranker("perfect", seed=0)
        assert _wrap_with_cache({}, generator, http_embedder, ranker) == (
            generator, http_embedder, ranker)
        settings = {"cache_dir": str(tmp_path / "cache")}
        wrapped = _wrap_with_cache(settings, generator, http_embedder, ranker)
        assert [type(b) for b in wrapped] == [
            be.FileBackedGenerator, be.CachingEmbedder, be.CachingRanker]
        assert _wrap_with_cache(settings, generator, embedder, ranker)[1] \
            is embedder

    def test_oracle_ranker_seeded_from_run_seed(self):
        from tagrec.cli import _build_ranker
        ranker = _build_ranker("noisy:0.25", seed=9)
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
