"""Embedding index over the taxonomy and exhaustive Top-k cosine retrieval.

The taxonomy is small (a few thousand tags), so retrieval is a full scan:
every query is scored against every tag document embedding and the k highest
cosine similarities win.  Ties are broken by corpus order (earlier wins) so
runs are reproducible.  No approximate-nearest-neighbor structure.

The scan works on an :class:`IndexScan`: the index rows cast to float64 and
their norms, computed once instead of on every query.  ``run_records`` builds
one per call and drops it when the call returns, so the copy (twice the size
of the float32 index) lives only while queries run.  It is not cached on
:class:`VectorIndex`, where it would stay alive as long as the index does,
across set-ups and idle time.  ``top_k`` also accepts a plain index and then
builds a throwaway scan, which costs what every query used to cost.

The index persists as a flat binary file:

    header:     uint32 dim, uint32 count        (little endian)
    per entry:  uint32 id byte length, id bytes (UTF-8),
                dim * float32 values            (little endian)

Vectors are stored as float32, so a persisted index reloads bit-exactly.
The index and its scans are not modified after build; ``top_k`` is
read-only and safe for concurrent callers.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

import numpy as np

from .corpus import NumeralRecord, TaxonomyCorpus
from .errors import BackendError

__all__ = [
    "Candidate",
    "VectorIndex",
    "IndexScan",
    "EmbedderBackend",
    "cosine_similarity",
    "build_index",
    "top_k",
    "retrieve",
]


class EmbedderBackend(Protocol):
    """Maps a batch of texts to one embedding vector per text."""

    backend_id: str

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        """Return an array of shape (len(texts), dim), input order preserved."""
        ...


@dataclass(frozen=True)
class Candidate:
    """One retrieved tag with its cosine score and 1-based retrieval rank."""

    tag_id: str
    score: float
    retrieval_rank: int


def _as_vector(v) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector contains non-finite values")
    return arr


def cosine_similarity(a, b) -> float:
    """Cosine of the angle between two vectors, in [-1, 1] up to rounding."""
    va, vb = _as_vector(a), _as_vector(b)
    if va.shape[0] != vb.shape[0]:
        raise ValueError(f"dimension mismatch: {va.shape[0]} vs {vb.shape[0]}")
    na = np.linalg.norm(va)
    nb = np.linalg.norm(vb)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity undefined for a zero vector")
    return float(np.dot(va, vb) / (na * nb))


@dataclass(frozen=True)
class VectorIndex:
    """Embeddings of all taxonomy tag documents, in corpus order."""

    tag_ids: tuple[str, ...]
    vectors: np.ndarray  # (count, dim) float32

    def __post_init__(self) -> None:
        if self.vectors.ndim != 2:
            raise ValueError("vectors must be a 2-D array")
        if len(self.tag_ids) != self.vectors.shape[0]:
            raise ValueError("one vector per tag_id required")
        if len(set(self.tag_ids)) != len(self.tag_ids):
            raise ValueError("tag_ids must be unique")
        if not np.all(np.isfinite(self.vectors)):
            raise ValueError("index vectors contain non-finite values")

    def __len__(self) -> int:
        return len(self.tag_ids)

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    def save(self, path: str | Path) -> None:
        path = Path(path)
        with path.open("wb") as fh:
            fh.write(struct.pack("<II", self.dim, len(self)))
            for tag_id, vec in zip(self.tag_ids, self.vectors):
                raw = tag_id.encode("utf-8")
                fh.write(struct.pack("<I", len(raw)))
                fh.write(raw)
                fh.write(vec.astype("<f4", copy=False).tobytes())

    @classmethod
    def load(cls, path: str | Path) -> "VectorIndex":
        path = Path(path)
        with path.open("rb") as fh:
            header = fh.read(8)
            if len(header) < 8:
                raise ValueError(f"{path}: truncated index file")
            dim, count = struct.unpack("<II", header)
            ids: list[str] = []
            vecs = np.empty((count, dim), dtype="<f4")
            for i in range(count):
                raw_len = fh.read(4)
                if len(raw_len) < 4:
                    raise ValueError(f"{path}: truncated index entry {i}")
                (id_len,) = struct.unpack("<I", raw_len)
                raw = fh.read(id_len)
                # Each vector is read straight into its row of the index.
                if len(raw) < id_len or fh.readinto(vecs[i]) < 4 * dim:
                    raise ValueError(f"{path}: truncated index entry {i}")
                ids.append(raw.decode("utf-8"))
            if fh.read(1):
                raise ValueError(f"{path}: trailing bytes after {count} entries")
        return cls(tag_ids=tuple(ids), vectors=vecs.astype(np.float32, copy=False))


def build_index(corpus: TaxonomyCorpus, embedder: EmbedderBackend,
                batch_size: int = 64) -> VectorIndex:
    """Embed every tag document and assemble the index in corpus order."""
    if len(corpus) == 0:
        raise ValueError("corpus is empty")
    ids = [doc.tag_id for doc in corpus.docs]
    texts = [doc.text for doc in corpus.docs]
    vectors: np.ndarray | None = None
    for start in range(0, len(texts), batch_size):
        chunk = texts[start:start + batch_size]
        try:
            vecs = np.asarray(embedder.embed_batch(chunk))
        except Exception as exc:
            raise BackendError(
                f"embedding failed for batch starting at tag "
                f"{ids[start]!r}: {exc}"
            ) from exc
        if vecs.ndim != 2 or vecs.shape[0] != len(chunk):
            raise BackendError(
                f"embedder returned shape {vecs.shape} for a batch of {len(chunk)}"
            )
        if vectors is None:
            vectors = np.empty((len(texts), vecs.shape[1]), dtype=np.float32)
        elif vecs.shape[1] != vectors.shape[1]:
            raise BackendError(
                f"embedding dimension changed across batches: {vectors.shape[1]} "
                f"then {vecs.shape[1]} (batch starting at tag {ids[start]!r})"
            )
        vectors[start:start + len(chunk)] = vecs
    return VectorIndex(tag_ids=tuple(ids), vectors=vectors)


class IndexScan:
    """A :class:`VectorIndex` prepared for repeated ``top_k`` queries.

    Holds the index rows as float64 and each row's norm, so a query costs
    one mat-vec.  Build one per run (``run_records`` does) and let it go
    with the run; see the module docstring.
    """

    # Rows per block of the norm computation: each row's norm is the same
    # as over the whole matrix, and the squared temporary stays small.
    NORM_BLOCK_ROWS = 1024

    def __init__(self, index: VectorIndex):
        self.tag_ids = index.tag_ids
        self.matrix = index.vectors.astype(np.float64)
        self.norms = np.empty(len(index))
        for start in range(0, len(index), self.NORM_BLOCK_ROWS):
            block = slice(start, start + self.NORM_BLOCK_ROWS)
            self.norms[block] = np.linalg.norm(self.matrix[block], axis=1)
        zeros = np.flatnonzero(self.norms == 0.0)
        # Raised by each query, not here: run_records builds the scan outside
        # its per-record error handling, and a bad row fails records, not runs.
        self.zero_tag_id = self.tag_ids[int(zeros[0])] if zeros.size else None

    def __len__(self) -> int:
        return len(self.tag_ids)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[1])


def _top_positions(scores: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(-scores, kind="stable")[:k]`` without sorting every score.

    Only the scores at or above the k-th best are sorted.  Their positions
    come in corpus order, so the stable sort keeps corpus order among ties.
    NaN sorts last, as in ``argsort``; a NaN k-th score takes the full sort.
    """
    neg = -scores
    if k < neg.size:
        kth = np.partition(neg, k - 1)[k - 1]
        if not np.isnan(kth):
            head = np.flatnonzero(neg <= kth)
            return head[np.argsort(neg[head], kind="stable")][:k]
    return np.argsort(neg, kind="stable")[:k]


def top_k(query, index: VectorIndex | IndexScan, k: int) -> list[Candidate]:
    """The k index entries most cosine-similar to the query.

    Scores are non-increasing; equal scores are ordered by corpus position
    (earlier wins); retrieval_rank runs 1..k without gaps.  Pass an
    :class:`IndexScan` when querying many times: given a plain
    :class:`VectorIndex`, this builds a throwaway scan for the one query.
    The scan is not cached on the index, so its float64 copy lives only as
    long as its caller keeps it.
    """
    scan = index if isinstance(index, IndexScan) else IndexScan(index)
    q = _as_vector(query)
    if q.shape[0] != scan.dim:
        raise ValueError(f"dimension mismatch: query {q.shape[0]} vs index {scan.dim}")
    if not 1 <= k <= len(scan):
        raise ValueError(f"k={k} out of range for index of size {len(scan)}")
    qn = np.linalg.norm(q)
    if qn == 0.0:
        raise ValueError("cosine similarity undefined for a zero query vector")
    if scan.zero_tag_id is not None:
        raise ValueError(f"index entry {scan.zero_tag_id!r} has a zero vector")
    scores = (scan.matrix @ q) / (scan.norms * qn)
    return [
        Candidate(tag_id=scan.tag_ids[int(pos)], score=float(scores[int(pos)]),
                  retrieval_rank=rank)
        for rank, pos in enumerate(_top_positions(scores, k), start=1)
    ]


def retrieve(
    record: NumeralRecord,
    gen_doc: str,
    index: VectorIndex | IndexScan,
    embedder: EmbedderBackend,
    k: int,
) -> list[Candidate]:
    """Embed one generated tag document and return its Top-k candidates."""
    if not gen_doc:
        raise ValueError(f"record {record.record_id!r}: gen_doc is empty")
    try:
        vecs = np.asarray(embedder.embed_batch([gen_doc]))
    except Exception as exc:
        raise BackendError(
            f"embedding failed for record {record.record_id!r}: {exc}"
        ) from exc
    if vecs.ndim != 2 or vecs.shape[0] != 1:
        raise BackendError(f"embedder returned shape {vecs.shape} for one text")
    return top_k(vecs[0], index, k)
