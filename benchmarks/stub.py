"""Local stand-in for a chat-completions and embeddings service.

Run as ``python3 stub.py --latency-ms 20``.  It binds a free port on
127.0.0.1, prints ``PORT <n>`` on its first line of output, and serves until
it is terminated:

* ``POST .../chat/completions`` ranks the numbered passages of a listwise
  re-ranking prompt by the tokens they share with the generated tag
  document (ties by position) and answers ``[a] > [b] > ...``.
* ``POST .../embeddings`` answers sha256 hash-bag vectors.
* ``GET /stats`` answers the request count, error count and service time per
  path.  It is not counted itself.

Each request is answered after a sleep of the injected latency, on its own
thread, so concurrent clients really overlap their waits.  Each reply, head
and body, goes out in one send: a head and body sent apart stall every call
for about 40 ms on the client's delayed ACK.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import EMBED_DIM, hash_bag_vector, lexical_order, ranking_reply  # noqa: E402

_PROMPT_RE = re.compile(r"Generated tag document:\n(.*?)\n\nCandidates:\n(.*?)\n\n",
                        re.DOTALL)
_PASSAGE_RE = re.compile(r"^\[(\d+)\] (.*)$")


def answer_prompt(prompt: str) -> str:
    """The lexical ranking of the passages of one re-ranking prompt."""
    match = _PROMPT_RE.search(prompt)
    if match is None:
        raise ValueError("prompt has no generated document and candidates")
    gen_doc, block = match.groups()
    texts = []
    for line in block.split("\n"):
        passage = _PASSAGE_RE.match(line)
        if passage is None or int(passage.group(1)) != len(texts) + 1:
            raise ValueError(f"unexpected passage line {line!r:.80}")
        texts.append(passage.group(2))
    return ranking_reply(lexical_order(gen_doc, texts))


class Stats:
    def __init__(self):
        self._lock = threading.Lock()
        self._paths: dict[str, dict] = {}

    def record(self, path: str, seconds: float, ok: bool) -> None:
        with self._lock:
            entry = self._paths.setdefault(path, {"requests": 0, "errors": 0,
                                                  "service_s": 0.0})
            entry["requests"] += 1
            entry["errors"] += 0 if ok else 1
            entry["service_s"] += seconds

    def snapshot(self) -> dict:
        with self._lock:
            return {path: dict(entry) for path, entry in self._paths.items()}


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    latency_s = 0.0
    stats = Stats()

    def _send(self, status: int, doc: dict) -> None:
        body = json.dumps(doc).encode("utf-8")
        head = (f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode("ascii")
        self.wfile.write(head + body)

    def do_GET(self) -> None:
        if self.path == "/stats":
            self._send(200, self.stats.snapshot())
        else:
            self._send(404, {"error": "not found"})

    def do_POST(self) -> None:
        started = time.perf_counter()
        path = self.path.rsplit("/", 2)[-2:]
        kind = "/".join(path) if path == ["chat", "completions"] else path[-1]
        try:
            request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            if kind == "chat/completions":
                content = answer_prompt(request["messages"][-1]["content"])
                doc = {"choices": [{"message": {"role": "assistant",
                                                "content": content}}]}
            elif kind == "embeddings":
                doc = {"data": [{"embedding": hash_bag_vector(text, EMBED_DIM)}
                                for text in request["input"]]}
            else:
                raise ValueError(f"unknown path {self.path}")
            status = 200
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            status, doc = 400, {"error": str(exc)}
        time.sleep(self.latency_s)
        self.stats.record(kind, time.perf_counter() - started, status == 200)
        self._send(status, doc)

    def log_message(self, format, *args) -> None:  # noqa: A002
        pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--latency-ms", type=float, required=True)
    args = parser.parse_args(argv)
    Handler.latency_s = args.latency_ms / 1000.0
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
