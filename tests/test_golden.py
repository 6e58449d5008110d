"""Pinned outputs: the re-rank path and the response cache, byte for byte.

The digests below were computed once and must never change: predictions,
traces, cache keys and cache entry files are part of the program's
reproducibility promise.  A change that alters any of them breaks warm
caches and trace replays, and must say so instead of updating the pin.
The pin holds under every BLAS kernel: retrieval scores come from numpy's
own loops, and the last test forces other OpenBLAS kernels to check that.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tagrec.backends
from tagrec.backends import CachingRanker, FileBackedGenerator, HashEmbedder, \
    ResponseCache
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


# Moved from 48d1db62… when the noisy oracle's cache key took its seed: only
# the noisy entries' names and "key" fields changed, not one output or reply.
GOLDEN_DIGEST = "f5addd6a64f8e7b0c899dd2c992058ddb937e527e156a7f67a3e7df64edbaf8c"


def golden_digest(tmp_path) -> str:
    """sha256 over every golden configuration's outputs and cache entries."""
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
    return digest.hexdigest()


def test_rerank_outputs_and_cache_entries_are_pinned(tmp_path):
    assert golden_digest(tmp_path) == GOLDEN_DIGEST


def test_cache_entry_file_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.setattr(tagrec.backends.time, "time", lambda: 1760000000.125)
    cache = ResponseCache(tmp_path / "cache")
    key = hashlib.sha256(b"pinned entry").hexdigest()
    cache.put(key, '[2] > [1] "caf\u00e9"\n\\ \u2603', "oracle:lexical")
    path = tmp_path / "cache" / key[:2] / key[2:4] / f"{key}.json"
    expected = (
        '{"key": "' + key + '", "response": "[2] > [1] \\"caf\u00e9\\"\\n\\\\ '
        '\u2603", "created_at": 1760000000.125, "backend_id": "oracle:lexical"}'
    ).encode("utf-8")
    assert path.read_bytes() == expected
    assert [p.name for p in (tmp_path / "cache").rglob("*")] == \
        [key[:2], key[2:4], f"{key}.json"]


def openblas_core() -> str | None:
    """The kernel numpy's bundled OpenBLAS runs, or None if it has none."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return None


def _avx2_x86_64() -> bool:
    if platform.machine() not in ("x86_64", "AMD64"):
        return False
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text(encoding="utf-8")
        return "avx2" in cpuinfo.split()
    except OSError:
        return False


def enabled_dispatch_targets() -> list[str]:
    """The CPU targets beyond its baseline that numpy dispatches to here."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]


_UNDER_KERNEL = """
import json, os, sys
from pathlib import Path
from test_acceptance import test_c01_retrieval_oracle_equivalence
from test_golden import enabled_dispatch_targets, golden_digest, openblas_core
off = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split()
assert not set(off) & set(enabled_dispatch_targets()), enabled_dispatch_targets()
test_c01_retrieval_oracle_equivalence()
print(json.dumps({"core": openblas_core(),
                  "digest": golden_digest(Path(sys.argv[1]))}))
"""


@pytest.mark.skipif(not _avx2_x86_64(),
                    reason="forces OpenBLAS kernels of x86-64 CPUs with AVX2")
def test_outputs_are_the_same_under_other_blas_kernels(tmp_path):
    """The golden outputs and c01, in processes whose OpenBLAS is forced to
    another kernel, and in one whose numpy dispatches to none of the CPU
    targets past its baseline.  Only kernels that any AVX2 CPU runs are
    forced."""
    tests = Path(__file__).resolve().parent
    src = Path(sys.modules["tagrec"].__file__).resolve().parents[1]
    runs = {}
    for name, setting in (
            ("Haswell", {"OPENBLAS_CORETYPE": "Haswell"}),
            ("Prescott", {"OPENBLAS_CORETYPE": "Prescott"}),
            ("baseline", {"NPY_DISABLE_CPU_FEATURES":
                          " ".join(enabled_dispatch_targets())})):
        (tmp_path / name).mkdir()
        env = {**os.environ, **setting,
               "PYTHONPATH": os.pathsep.join([str(src), str(tests)])}
        done = subprocess.run([sys.executable, "-c", _UNDER_KERNEL,
                               str(tmp_path / name)], env=env, cwd=tests,
                              capture_output=True, encoding="utf-8", timeout=300)
        assert done.returncode == 0, done.stderr
        runs[name] = json.loads(done.stdout.splitlines()[-1])
    assert {run["digest"] for run in runs.values()} == {GOLDEN_DIGEST}
    cores = {runs[kernel]["core"] for kernel in ("Haswell", "Prescott")}
    if None not in cores:  # each forced kernel was the one in force
        assert len(cores) == 2
