"""The benchmark's own tests: each workload at a tiny size, and planted faults.

Run with ``python3 -m pytest benchmarks/tests -q`` from the repository root.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks
import run as bench
import stub
import workloads
from spans import Span, record_seconds, self_seconds
from tagrec.corpus import TagDocument
from tagrec.prompting import build_rerank_prompt

BENCH = Path(__file__).resolve().parents[1]
TINY = {
    "offline": replace(workloads.WORKLOADS["offline"], n_tags=80, n_records=8),
    "remote": replace(workloads.WORKLOADS["remote"], n_tags=40, n_records=4),
    "sweep": replace(workloads.WORKLOADS["sweep"], n_tags=60, n_records=6),
}


def _execute(name, tmp_path, traced):
    return workloads.execute(TINY[name], seed=3, seconds=0.01, traced=traced,
                             work_dir=tmp_path / "work")


@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_and_passes_its_checks(name, traced, tmp_path):
    run = _execute(name, tmp_path, traced)
    assert run.error is None
    assert all(p.failed == 0 for p in run.passes)
    figures = run.per_layer() if traced else run.end_to_end()
    expected = bench.metric_units("per_layer" if traced else "end_to_end")
    assert set(figures) == set(expected)
    assert all(math.isfinite(v) for v in figures.values())
    if not traced:
        assert all(v > 0 for v in figures.values())
        calls = 16.0 if name != "sweep" else (1 + 2 + 4 + 8) * 2 / 4
        assert figures["ranker_calls_per_record"] == calls
    else:
        assert [p.traced for p in run.passes] == list(workloads.TRACE_ORDER)
        assert figures["retrieval.queries_per_record"] == TINY[name].cells
        assert 0 < figures["rerank.distinct_prompt_ratio"] <= 1
        assert figures["pipeline.record_p95_ms"] == 0.0  # too few samples for a tail
        if name == "remote":
            assert figures["backends.remote_service_ms"] >= workloads.STUB_LATENCY_MS
            assert figures["backends.remote_requests_per_record"] > 1


@pytest.fixture(scope="module")
def offline_outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("offline")
    run = _execute("offline", tmp, traced=False)
    assert run.error is None
    preds = [json.loads(x) for x in run.predictions_path.read_text().splitlines()]
    traces = [json.loads(x) for x in run.traces_path.read_text().splitlines()]
    return run, preds, traces


def _check_one(run, pred, trace):
    record = next(r for r in run.inputs.records if r["record_id"] == trace["record_id"])
    texts = {t.tag_id: t.text for t in run.inputs.tags}
    cfg = run.config
    return checks.check_trace(trace, pred, record["gen_tag_doc"], record["gold_tag_id"],
                              texts, cfg.top_k, cfg.group_size, cfg.iterations)


def _other(trace, tag_id):
    return next(c["tag_id"] for c in trace["candidates"] if c["tag_id"] != tag_id)


def test_trace_check_accepts_the_real_output(offline_outputs):
    run, preds, traces = offline_outputs
    assert sum(_check_one(run, p, t) for p, t in zip(preds, traces)) == 16 * len(preds)


def test_trace_check_catches_a_swapped_prediction(offline_outputs):
    run, preds, traces = offline_outputs
    pred = copy.deepcopy(preds[0])
    pred["predicted_tag_id"] = _other(traces[0], pred["predicted_tag_id"])
    with pytest.raises(checks.CheckError, match="prediction"):
        _check_one(run, pred, traces[0])


def test_trace_check_catches_a_vote_too_many(offline_outputs):
    run, preds, traces = offline_outputs
    trace, pred = copy.deepcopy(traces[0]), copy.deepcopy(preds[0])
    trace["votes"][trace["predicted_tag_id"]] += 1
    pred["votes"] = trace["votes"]
    with pytest.raises(checks.CheckError, match="votes"):
        _check_one(run, pred, trace)


def test_trace_check_catches_a_wrong_winner(offline_outputs):
    run, preds, traces = offline_outputs
    trace = copy.deepcopy(traces[0])
    first = trace["iterations"][0]
    first["winners"][0] = next(x for x in first["presented"][0] if x != first["winners"][0])
    with pytest.raises(checks.CheckError, match="winner"):
        _check_one(run, preds[0], trace)


def test_trace_check_catches_a_wrong_reply(offline_outputs):
    run, preds, traces = offline_outputs
    trace = copy.deepcopy(traces[0])
    trace["iterations"][2]["replies"][1] = "[5] > [4] > [3] > [2] > [1]"
    with pytest.raises(checks.CheckError, match="reply"):
        _check_one(run, preds[0], trace)


def test_trace_check_catches_a_broken_partition(offline_outputs):
    run, preds, traces = offline_outputs
    trace = copy.deepcopy(traces[0])
    groups = trace["iterations"][1]["partition"]
    groups[1][0] = groups[0][0]
    with pytest.raises(checks.CheckError, match="partition"):
        _check_one(run, preds[0], trace)


def _check_top_k(run, cands):
    corpus = checks.hash_bag_matrix([t.text for t in run.inputs.tags], checks.EMBED_DIM)
    query = checks.hash_bag_matrix([run.inputs.records[0]["gen_tag_doc"]],
                                   checks.EMBED_DIM)[0]
    position_of = {t.tag_id: i for i, t in enumerate(run.inputs.tags)}
    checks.check_top_k("r", cands, corpus @ query, position_of, 10,
                       lambda: run._full_ranking(query))
    return corpus @ query, position_of


def test_top_k_check_catches_swapped_candidates(offline_outputs):
    run, _, traces = offline_outputs
    cands = copy.deepcopy(traces[0]["candidates"])
    _check_top_k(run, cands)
    cands[0]["tag_id"], cands[9]["tag_id"] = cands[9]["tag_id"], cands[0]["tag_id"]
    with pytest.raises(checks.CheckError, match="brute force"):
        _check_top_k(run, cands)


def test_top_k_check_catches_a_missing_candidate(offline_outputs):
    run, _, traces = offline_outputs
    cands = copy.deepcopy(traces[0]["candidates"])
    scores, position_of = _check_top_k(run, cands)
    cands[-1]["tag_id"] = min(position_of, key=lambda t: scores[position_of[t]])
    with pytest.raises(checks.CheckError):
        _check_top_k(run, cands)


# Five tags; t0, t2 and t3 tie exactly, t0 first in corpus order.
TIED_SCORES = np.array([0.5, 0.9, 0.5, 0.5, 0.1])
TIED_POSITIONS = {f"t{i}": i for i in range(5)}


def _tied_check(listed, ranking=()):
    cands = [{"tag_id": t, "score": s, "retrieval_rank": r}
             for r, (t, s) in enumerate(listed, 1)]
    checks.check_top_k("r", cands, TIED_SCORES, TIED_POSITIONS, len(listed),
                       lambda: ranking)


def test_top_k_check_accepts_ties_in_corpus_order():
    _tied_check([("t1", 0.9), ("t0", 0.5), ("t2", 0.5)])
    # t0 scored a few ulps low by the program may fall behind its tie partners.
    low = math.nextafter(0.5, 0.0)
    _tied_check([("t1", 0.9), ("t2", 0.5)],
                [("t1", 0.9), ("t2", 0.5), ("t3", 0.5), ("t0", low), ("t4", 0.1)])


def test_top_k_check_catches_swapped_tied_candidates():
    with pytest.raises(checks.CheckError, match="corpus order"):
        _tied_check([("t1", 0.9), ("t2", 0.5), ("t0", 0.5)])


def test_top_k_check_catches_a_passed_over_tie():
    right = [("t1", 0.9), ("t0", 0.5), ("t2", 0.5), ("t3", 0.5), ("t4", 0.1)]
    with pytest.raises(checks.CheckError, match="head"):
        _tied_check([("t1", 0.9), ("t2", 0.5)], right)
    wrong = [("t1", 0.9), ("t2", 0.5), ("t0", 0.5), ("t3", 0.5), ("t4", 0.1)]
    with pytest.raises(checks.CheckError, match="corpus order"):
        _tied_check([("t1", 0.9), ("t2", 0.5)], wrong)


def test_metric_check_catches_a_wrong_report(offline_outputs):
    _, preds, _ = offline_outputs
    expected = checks.one_pass_metrics((p["gold_tag_id"], p["predicted_tag_id"])
                                       for p in preds)
    report = dict(expected, macro_f1=expected["macro_f1"] + 1e-9)
    checks.check_report("ok", expected, expected)
    with pytest.raises(checks.CheckError, match="macro_f1"):
        checks.check_report("planted", report, expected)


def test_one_pass_metrics_by_hand():
    got = checks.one_pass_metrics([("a", "a"), ("a", "b"), ("b", "b"), ("c", "a")])
    # a: tp1 fp1 fn1; b: tp1 fp1 fn0; c: tp0 fp0 fn1
    assert got["hits_at_1"] == 0.5
    assert got["macro_p"] == pytest.approx((0.5 + 0.5 + 0.0) / 3)
    assert got["macro_r"] == pytest.approx((0.5 + 1.0 + 0.0) / 3)
    assert got["macro_f1"] == pytest.approx((0.5 + 2 / 3 + 0.0) / 3)


def test_run_check_catches_a_planted_prediction_file(tmp_path):
    run = _execute("offline", tmp_path, traced=False)
    assert run.error is None
    lines = run.predictions_path.read_text().splitlines()
    first = json.loads(lines[0])
    trace = json.loads(run.traces_path.read_text().splitlines()[0])
    first["predicted_tag_id"] = _other(trace, first["predicted_tag_id"])
    lines[0] = json.dumps(first)
    run.predictions_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckError):
        run.check()


def test_sweep_check_catches_a_wrong_cell(tmp_path):
    run = _execute("sweep", tmp_path, traced=False)
    assert run.error is None
    cell = run.passes[-1].table.cells[1]
    report = cell.report
    object.__setattr__(report, "hits_at_1", report.hits_at_1 + 1.0 / report.n_records)
    with pytest.raises(checks.CheckError, match="iterations=2"):
        run.check()


def test_prefix_prediction_uses_only_the_first_rounds():
    cands = [{"tag_id": t, "retrieval_rank": r} for r, t in enumerate("abc", 1)]
    trace = {"candidates": cands,
             "iterations": [{"winners": ["b"]}, {"winners": ["c"]}, {"winners": ["c"]}]}
    assert checks.prefix_prediction(trace, 1) == "b"
    assert checks.prefix_prediction(trace, 2) == "b"  # tie: better retrieval rank
    assert checks.prefix_prediction(trace, 3) == "c"


def test_stub_answers_the_lexical_ranking_of_a_real_prompt():
    group = [TagDocument("t1", "alpha beta"), TagDocument("t2", "beta gamma delta"),
             TagDocument("t3", "gamma delta")]
    prompt = build_rerank_prompt("gamma delta beta", group)
    assert stub.answer_prompt(prompt) == "[2] > [3] > [1]"
    with pytest.raises(ValueError):
        stub.answer_prompt("no passages here")


def test_hash_bag_vector_matches_the_program_embedder():
    from tagrec.backends import HashEmbedder
    text = "Revenue from Contracts with customers revenue"
    assert HashEmbedder(64).embed_batch([text])[0].tolist() == \
        checks.hash_bag_vector(text, 64)


def test_self_time_subtracts_covered_children():
    parent = Span(1, None, "p", 0.0, 10.0, "r", 1)
    kids = [Span(2, 1, "a", 1.0, 3.0, "r", 1), Span(3, 1, "b", 2.0, 4.0, "r", 1),
            Span(4, 1, "c", 9.0, 12.0, "r", 1)]
    assert self_seconds(parent, kids) == pytest.approx(10.0 - 3.0 - 1.0)


def test_record_seconds_spans_generate_to_rerank():
    spans = [Span(1, None, "pipeline.generate", 0.0, 1.0, "r1", 7),
             Span(2, None, "retrieval.retrieve", 1.0, 2.0, "r1", 7),
             Span(3, None, "rerank.rerank_record", 2.0, 5.0, "r1", 7),
             Span(4, None, "pipeline.generate", 5.0, 6.0, "r2", 7),
             Span(5, None, "rerank.rerank_record", 6.0, 6.5, "r2", 7)]
    assert record_seconds(spans) == [5.0, 1.5]


def test_same_seed_same_inputs():
    import synth
    a, b = synth.make_inputs(4, 50, 5), synth.make_inputs(4, 50, 5)
    assert a == b
    assert synth.make_inputs(5, 50, 5) != a


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload",
                           "offline", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
