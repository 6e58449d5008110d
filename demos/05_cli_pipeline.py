#!/usr/bin/env python3
"""Drive the whole pipeline through the command-line interface.

Writes a small taxonomy and dataset into a scratch directory, builds the
vector index, runs generation -> retrieval -> re-ranking with offline
backends, and scores the predictions; the scratch directory is removed at
the end.  The same subcommands, pointed at an
HTTP ranker config, run against live models.
"""

import json
import tempfile
from pathlib import Path

from tagrec.cli import main

TAGS = [
    ("Revenues", "revenue recognized from goods sold and services rendered"),
    ("CostOfRevenue", "aggregate cost of goods produced and sold"),
    ("NetIncomeLoss", "portion of profit or loss net of income taxes"),
    ("CashAndCashEquivalents", "currency on hand and demand deposits"),
    ("LongTermDebt", "carrying values of long term debt instruments"),
    ("InterestExpense", "cost of borrowed funds accounted for as interest"),
    ("InventoryNet", "inventory expected to be sold within one year"),
    ("AccountsReceivableNet", "amount due from customers for goods sold"),
    ("OperatingExpenses", "recurring costs of normal operations"),
    ("IncomeTaxExpenseBenefit", "current and deferred income tax expense"),
]

with tempfile.TemporaryDirectory(prefix="tagrec-demo-") as tmp:
    workdir = Path(tmp)
    print(f"working in {workdir}\n")

    taxonomy = workdir / "taxonomy.jsonl"
    taxonomy.write_text("".join(
        json.dumps({"tag_id": t, "text": x}) + "\n" for t, x in TAGS),
        encoding="utf-8")

    # five records whose stored gen_tag_doc is the gold tag's document text
    dataset = workdir / "dataset.jsonl"
    with dataset.open("w", encoding="utf-8") as fh:
        for i, (tag_id, text) in enumerate(TAGS[:5]):
            numeral = f"{(i + 1) * 3},100"
            fh.write(json.dumps({
                "record_id": f"rec{i}",
                "report_text": f"The company reported {numeral} this quarter.",
                "numeral": numeral,
                "question": f"What does {numeral} measure?",
                "gold_tag_id": tag_id,
                "gen_tag_doc": text,
            }) + "\n")

    steps = [
        ["embed-index", "--taxonomy", str(taxonomy),
         "--index", str(workdir / "tags.idx"), "--embedder", "hash:64"],
        ["run", "--taxonomy", str(taxonomy), "--dataset", str(dataset),
         "--index", str(workdir / "tags.idx"), "--embedder", "hash:64",
         "--ranker", "noisy:0.2", "--seed", "42",
         "--cache-dir", str(workdir / "cache"),
         "--predictions-out", str(workdir / "predictions.jsonl"),
         "--trace-out", str(workdir / "traces.jsonl")],
        ["evaluate", "--predictions", str(workdir / "predictions.jsonl"),
         "--dataset", str(dataset), "--out", str(workdir / "report.json")],
        ["simulate", "--oracle", "perfect", "--trials", "300", "--seed", "1"],
        ["cache", "stats", "--cache-dir", str(workdir / "cache")],
    ]

    for argv in steps:
        print(f"$ tagrec {' '.join(argv)}")
        code = main(argv)
        assert code == 0, f"step failed with exit code {code}"
        print()
