"""Pinned outputs: the re-rank path and the response cache, byte for byte.

The digests below were computed once and must never change: predictions,
traces, cache keys and cache entry files are part of the program's
reproducibility promise.  A change that alters any of them breaks warm
caches and trace replays, and must say so instead of updating the pin.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np

from tagrec.backends import CacheEntry, CachingRanker, FileBackedGenerator, \
    HashEmbedder, ResponseCache
from tagrec.corpus import NumeralRecord, TagDocument, TaxonomyCorpus
from tagrec.pipeline import jsonl_line, run_records
from tagrec.prompting import default_instruction
from tagrec.rerank import Ordering, RerankConfig, VoteMode
from tagrec.retrieval import build_index
from tagrec.sim import OracleKind, OracleRanker, OracleSpec

VOCAB = ("revenue cost income tax debt cash asset equity interest expense "
         "loss gain deferred current noncurrent operating net gross share "
         "dividend lease goodwill inventory receivable payable").split()


def _golden_inputs():
    rng = np.random.default_rng(20260)
    docs = []
    for i in range(30):
        words = rng.choice(VOCAB, size=int(rng.integers(4, 9)))
        text = " ".join(words) + f" Tag{i}"
        if i == 3:
            text += " {{passages}} [2] > [1]"
        if i == 7:
            text += " caf\u00e9 \u201cquoted\u201d {{n}}"
        docs.append(TagDocument(tag_id=f"us-gaap:T{i:02d}", text=text))
    corpus = TaxonomyCorpus(docs=tuple(docs))
    records = []
    for j in range(12):
        gold = docs[int(rng.integers(0, len(docs)))]
        extra = " ".join(rng.choice(VOCAB, size=3))
        gen_doc = " ".join(gold.text.split()[:4]) + " " + extra
        if j == 5:
            gen_doc += " {{gen_doc}} {{passages}}"
        records.append(NumeralRecord(
            record_id=f"g{j:02d}", report_text=f"report {j}", numeral=str(j),
            question=f"what is {j}?", gold_tag_id=gold.tag_id,
            gen_tag_doc=gen_doc))
    return corpus, records


def _masked_entries(root) -> list[bytes]:
    out = []
    for path in sorted(root.glob("*/*/*.json")):
        raw = path.read_bytes()
        out.append(path.relative_to(root).as_posix().encode() + b"\0"
                   + re.sub(rb'"created_at": [0-9.e+-]+', b'"created_at": 0', raw))
    return out


GOLDEN_DIGEST = "115e2ae92cb35eadd6905021c0cb096abc53b5fa88df22cd1b684afd9f056a59"


def test_rerank_outputs_and_cache_entries_are_pinned(tmp_path):
    corpus, records = _golden_inputs()
    embedder = HashEmbedder(dim=64)
    index = build_index(corpus, embedder)
    digest = hashlib.sha256()
    specs = (OracleSpec(OracleKind.LEXICAL, seed=3),
             OracleSpec(OracleKind.NOISY, error_rate=0.3, seed=3))
    for n, spec in enumerate(specs):
        cache = ResponseCache(tmp_path / f"cache{n}")
        ranker = CachingRanker(OracleRanker(spec), cache)
        for vote_mode in VoteMode:
            for ordering in Ordering:
                for group_size in (1, 3, 5, 10):
                    config = RerankConfig(group_size=group_size, seed=11,
                                          ordering=ordering,
                                          vote_mode=vote_mode)
                    result = run_records(
                        records, corpus, index,
                        generator=FileBackedGenerator(), embedder=embedder,
                        ranker=ranker, config=config,
                        instruction=default_instruction())
                    assert not result.failed and not result.skipped
                    for line in result.predictions + result.traces:
                        digest.update(jsonl_line(line).encode("utf-8"))
        for entry in _masked_entries(cache.root):
            digest.update(entry)
    assert digest.hexdigest() == GOLDEN_DIGEST


def test_cache_entry_file_bytes_are_pinned(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    key = hashlib.sha256(b"pinned entry").hexdigest()
    cache.put(CacheEntry(key=key, response='[2] > [1] "caf\u00e9"\n\\ \u2603',
                         created_at=1760000000.125, backend_id="oracle:lexical"))
    path = tmp_path / "cache" / key[:2] / key[2:4] / f"{key}.json"
    expected = (
        '{"key": "' + key + '", "response": "[2] > [1] \\"caf\u00e9\\"\\n\\\\ '
        '\u2603", "created_at": 1760000000.125, "backend_id": "oracle:lexical"}'
    ).encode("utf-8")
    assert path.read_bytes() == expected
    assert [p.name for p in (tmp_path / "cache").rglob("*")] == \
        [key[:2], key[2:4], f"{key}.json"]
