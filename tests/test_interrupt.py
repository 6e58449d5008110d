"""A run that is interrupted, or whose worker meets a ConfigError, stops
taking records: each record worker ends the record it holds and takes no
other, and every record thread is joined before the exception reaches the
caller.  ``tagrec run`` reports an interrupt as ``error: interrupted``,
exits 130 and writes no output.

The interrupts are real SIGINTs sent to this process's main thread, as
Ctrl-C sends one.  ``_thread.interrupt_main`` would only schedule the
handler: a caller blocked joining its record threads would see it after
they had drained the dataset, however the run stops.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from tagrec.backends import FileBackedGenerator, HashEmbedder, RateLimiter
from tagrec.errors import ConfigError
from tagrec.pipeline import run_records
from tagrec.prompting import default_instruction
from tagrec.rerank import RerankConfig
from tagrec.retrieval import build_index
from tagrec.sim import OracleKind, OracleRanker, OracleSpec

from conftest import make_corpus, make_records, write_dataset, write_taxonomy

ROOT = Path(__file__).resolve().parents[1]
CONFIG = RerankConfig(top_k=10, group_size=5, iterations=4)


def many_records(n: int = 40):
    first = make_records(1)[0]
    return [replace(first, record_id=f"r{i:03d}") for i in range(n)]


class MeteredRanker:
    """The lexical oracle behind a real rate limiter, 2 ms a call.  After
    ``interrupt_after`` calls it sends one SIGINT to the main thread."""

    backend_id = "metered-lexical"

    def __init__(self, max_in_flight: int, interrupt_after: int | None = None):
        self.max_in_flight = max_in_flight
        self.limiter = RateLimiter(max_in_flight)
        self.oracle = OracleRanker(OracleSpec(OracleKind.LEXICAL))
        self.interrupt_after = interrupt_after
        self.lock = threading.Lock()
        self.calls = 0

    def rank_listwise(self, request):
        with self.limiter:
            with self.lock:
                self.calls += 1
                if self.calls == self.interrupt_after:
                    signal.pthread_kill(threading.main_thread().ident,
                                        signal.SIGINT)
            time.sleep(0.002)
            return self.oracle.rank_listwise(request)


def run(ranker, embedder=None, records=None):
    corpus = make_corpus()
    return run_records(
        records or many_records(), corpus, build_index(corpus, HashEmbedder(64)),
        generator=FileBackedGenerator(), embedder=embedder or HashEmbedder(64),
        ranker=ranker, config=CONFIG, instruction=default_instruction())


def joined_record_threads() -> list[str]:
    """The record threads still alive, each joined before this returns, so
    a failing test leaves none running into the next."""
    alive = [t for t in threading.enumerate()
             if t.name.startswith("tagrec-record")]
    for thread in alive:
        thread.join(timeout=60)
    return [t.name for t in alive]


@pytest.mark.parametrize("cap", [2, 4], ids=["4-workers", "8-workers"])
def test_an_interrupt_stops_every_worker_after_its_record(cap):
    probe = MeteredRanker(cap)
    run(probe, records=many_records(1))
    per_record = probe.calls
    workers = 2 * cap
    ranker = MeteredRanker(cap, interrupt_after=3 * cap)
    with pytest.raises(KeyboardInterrupt):
        run(ranker)
    left_running = joined_record_threads()
    assert ranker.calls - ranker.interrupt_after <= workers * per_record
    assert left_running == []


class WrongWidthOnce:
    """The 64-dimensional hash embedder, except that query number ``bad``
    gets a 32-dimensional vector, which the index cannot score."""

    backend_id = "hash-embedder:dim=64"

    def __init__(self, bad: int):
        self.wide, self.narrow = HashEmbedder(64), HashEmbedder(32)
        self.bad = bad
        self.lock = threading.Lock()
        self.calls = 0

    def embed_batch(self, texts):
        with self.lock:
            self.calls += 1
            narrow = self.calls == self.bad
        return (self.narrow if narrow else self.wide).embed_batch(texts)


def test_a_config_error_in_one_worker_stops_the_others_within_a_record():
    embedder = WrongWidthOnce(bad=5)
    workers = 4
    with pytest.raises(ConfigError, match="32-dimensional"):
        run(MeteredRanker(workers // 2), embedder=embedder)
    assert joined_record_threads() == []
    # Each other worker ends the record it holds; one may have taken a
    # record while the failing worker was raising, before the stop.
    assert embedder.calls <= embedder.bad + 2 * (workers - 1)


class SlowChat(BaseHTTPRequestHandler):
    """A chat-completions endpoint that answers after 20 ms."""

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        with self.server.lock:
            self.server.requests += 1
        time.sleep(0.02)
        body = json.dumps({"choices": [{"message": {
            "role": "assistant", "content": "[1] > [2]"}}]}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_an_interrupted_tagrec_run_exits_130_and_writes_nothing(tmp_path):
    server = ThreadingHTTPServer(("127.0.0.1", 0), SlowChat)
    server.lock, server.requests = threading.Lock(), 0
    serving = threading.Thread(target=server.serve_forever)
    serving.start()
    try:
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"ranker": {
            "kind": "http", "model": "m",
            "base_url": f"http://127.0.0.1:{server.server_port}/v1",
            "retry": {"max_attempts": 1}}}), encoding="utf-8")
        predictions = tmp_path / "p.jsonl"
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
               "NO_PROXY": "127.0.0.1", "PYTHONWARNDEFAULTENCODING": "1",
               "PYTHONWARNINGS": "error::EncodingWarning"}
        env.pop("TAGREC_RANKER_BASE_URL", None)
        with subprocess.Popen(
                [sys.executable, "-m", "tagrec.cli", "run", "--config", config,
                 "--taxonomy", write_taxonomy(tmp_path / "t.jsonl"),
                 "--dataset", write_dataset(tmp_path / "d.jsonl",
                                            many_records()),
                 "--predictions-out", predictions,
                 "--trace-out", tmp_path / "traces.jsonl"],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                encoding="utf-8") as proc:
            try:
                deadline = time.monotonic() + 60
                while server.requests < 8 and proc.poll() is None \
                        and time.monotonic() < deadline:
                    time.sleep(0.01)
                proc.send_signal(signal.SIGINT)
                _, err = proc.communicate(timeout=60)
            except BaseException:
                proc.kill()
                raise
    finally:
        server.shutdown()
        server.server_close()
        serving.join()
    assert (proc.returncode, err) == (130, "error: interrupted\n")
    assert not predictions.exists()
    assert not (tmp_path / "traces.jsonl").exists()
    assert not Path(f"{predictions}.manifest.json").exists()
