from __future__ import annotations

import json
import struct
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import requests

from tagrec.backends import HashEmbedder
from tagrec.corpus import NumeralRecord, TagDocument, TaxonomyCorpus

# Ten distinct tag documents with mostly disjoint token sets, so the hash
# embedder separates them cleanly in fixtures.
TEN_TAGS = [
    ("Revenues", "Amount of revenue recognized from goods sold and services "
                 "rendered in the ordinary course of business"),
    ("CostOfRevenue", "Aggregate cost of goods produced and sold and services "
                      "rendered during the reporting period"),
    ("OperatingExpenses", "Generally recurring costs associated with normal "
                          "operations except for the portion of these expenses "
                          "related to cost of sales"),
    ("NetIncomeLoss", "The portion of profit or loss for the period net of "
                      "income taxes attributable to the parent"),
    ("CashAndCashEquivalents", "Amount of currency on hand as well as demand "
                               "deposits with banks or financial institutions"),
    ("AccountsReceivableNet", "Amount due from customers or clients for goods "
                              "or services that have been delivered or sold"),
    ("InventoryNet", "Amount after valuation and reserves of inventory "
                     "expected to be sold within one year"),
    ("LongTermDebt", "Sum of the carrying values of all long term debt "
                     "instruments maturing beyond one year"),
    ("InterestExpense", "Amount of the cost of borrowed funds accounted for "
                        "as interest expense for debt"),
    ("IncomeTaxExpenseBenefit", "Amount of current income tax expense and "
                                "deferred income tax expense pertaining to "
                                "continuing operations"),
]


def make_corpus(tags=TEN_TAGS) -> TaxonomyCorpus:
    return TaxonomyCorpus(docs=tuple(TagDocument(tag_id=t, text=x)
                                     for t, x in tags))


def write_taxonomy(path: Path, tags=TEN_TAGS) -> Path:
    with path.open("w", encoding="utf-8") as fh:
        for tag_id, text in tags:
            fh.write(json.dumps({"tag_id": tag_id, "text": text}) + "\n")
    return path


def make_records(n: int = 5, with_gen_doc: bool = True) -> list[NumeralRecord]:
    """Records whose gen_tag_doc equals their gold tag's document text."""
    tags = TEN_TAGS[:n]
    records = []
    for i, (tag_id, text) in enumerate(tags):
        numeral = f"{(i + 1) * 7},500"
        records.append(NumeralRecord(
            record_id=f"r{i:03d}",
            report_text=f"The company reported {numeral} for the year.",
            numeral=numeral,
            question=f"What does the numeral {numeral} represent?",
            gold_tag_id=tag_id,
            gen_tag_doc=text if with_gen_doc else None,
        ))
    return records


def write_dataset(path: Path, records) -> Path:
    with path.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps({
                "record_id": rec.record_id,
                "report_text": rec.report_text,
                "numeral": rec.numeral,
                "question": rec.question,
                "gold_tag_id": rec.gold_tag_id,
                "gen_tag_doc": rec.gen_tag_doc,
            }) + "\n")
    return path



def v1_bytes(index) -> bytes:
    """``index`` in the version-1 file layout: dim and count, then per entry
    the id's byte length, the id and the vector."""
    return struct.pack("<II", index.dim, len(index)) + b"".join(
        struct.pack("<I", len(raw)) + raw + vector.astype("<f4").tobytes()
        for raw, vector in zip((t.encode("utf-8") for t in index.tag_ids),
                               index.vectors))

@pytest.fixture
def ten_tag_corpus() -> TaxonomyCorpus:
    return make_corpus()


# --------------------------------------------------------------------------
# A fake embeddings endpoint whose replies complete out of order


class FakeEmbeddingService:
    """Stands in for ``requests.Session`` in front of an embeddings endpoint.

    Each text embeds to its 8-dimensional hash-bag vector, so a batch's
    vectors do not depend on the order requests are served in.  Request
    number ``i`` waits ``delays[i % len(delays)]`` seconds for its status,
    so replies complete out of order.  A request is in flight until
    ``post`` has read its body, as requests does before it returns;
    ``peak`` is the most in flight at once.  ``script`` maps
    a batch's first text to what its first attempts get instead of a good
    reply: an HTTP status (with ``Retry-After: 1``), ``"read-error"``, a
    transport error while the body is read, ``"wide"``, vectors of twice
    the width, ``"nan"``, a NaN in the first vector, or ``"zero"``, a first
    vector of zeros.

    With ``gate=(cap, batches)`` each request is held, for at most
    ``GATE_TIMEOUT`` seconds, until ``min(cap, batches not yet answered)``
    requests are in flight, so a client that keeps ``cap`` in flight
    reaches that peak whatever the timing.
    """

    GATE_TIMEOUT = 10.0

    def __init__(self, delays=(0.03, 0.0, 0.015), script=None, gate=None):
        self.delays = delays
        self.script = {text: list(plan) for text, plan in (script or {}).items()}
        self.gate = gate
        self.lock = threading.Condition(threading.Lock())
        self.sent: list[str] = []  # each request's first text, in send order
        self.active = self.peak = self.answered = 0
        self._opened = 0  # how often the gate let every held request go
        self._embedder = HashEmbedder(dim=8)

    def mount(self, prefix, adapter):
        pass

    def post(self, url, json=None, headers=None, timeout=None):
        texts = json["input"]
        with self.lock:
            delay = self.delays[len(self.sent) % len(self.delays)]
            self.sent.append(texts[0])
            plan = self.script.get(texts[0])
            outcome = plan.pop(0) if plan else None
            self.active += 1
            self.peak = max(self.peak, self.active)
            if self.gate and not self._open_gate_if_full():
                opened = self._opened
                self.lock.wait_for(lambda: self._opened > opened,
                                   timeout=self.GATE_TIMEOUT)
        time.sleep(delay)
        self._answered()  # requests reads the body before it returns
        if outcome == "read-error":
            raise requests.ConnectionError("connection reset while reading")
        if isinstance(outcome, int):
            return FakeEmbeddingReply(outcome, None)
        vectors = self._embedder.embed_batch(texts)
        if outcome == "wide":
            vectors = np.hstack([vectors, vectors])
        doc = {"data": [{"embedding": v} for v in vectors.tolist()]}
        if outcome == "nan":
            doc["data"][0]["embedding"][0] = float("nan")
        if outcome == "zero":
            doc["data"][0]["embedding"] = [0.0] * vectors.shape[1]
        return FakeEmbeddingReply(200, doc)

    def _open_gate_if_full(self) -> bool:
        """Let every held request go if enough are in flight; lock held."""
        cap, batches = self.gate
        if self.active < min(cap, batches - self.answered):
            return False
        self._opened += 1
        self.lock.notify_all()
        return True

    def _answered(self) -> None:
        with self.lock:
            self.active -= 1
            self.answered += 1
            if self.gate:
                self._open_gate_if_full()


class FakeEmbeddingReply:
    text = "scripted failure"
    headers = {"Retry-After": "1"}

    def __init__(self, status_code, doc):
        self.status_code = status_code
        self._doc = doc

    def json(self):
        return self._doc


def embed_threads() -> list[threading.Thread]:
    """The threads of :meth:`HttpEmbedder.embed_batches` still alive."""
    return [t for t in threading.enumerate() if t.name.startswith("tagrec-embed")]


# --------------------------------------------------------------------------
# Acceptance summary: one PASS/FAIL line per criterion in the terminal report

_acceptance_outcomes: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    if report.when == "call" or (report.when == "setup" and report.skipped):
        name = report.nodeid.split("::")[-1]
        _acceptance_outcomes[name] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_acceptance_outcomes):
        outcome = _acceptance_outcomes[name]
        label = {"passed": "PASS", "failed": "FAIL"}.get(outcome,
                                                         outcome.upper())
        terminalreporter.write_line(f"{label}  {name}")
