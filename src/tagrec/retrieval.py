"""Embedding index over the taxonomy and exhaustive Top-k cosine retrieval.

The taxonomy is small (a few thousand tags), so retrieval is a full scan:
every query is scored against every tag document embedding and the k highest
cosine similarities win.  Ties are broken by corpus order (earlier wins) so
runs are reproducible.  No approximate-nearest-neighbor structure.

Scores have the bits of numpy's own loops (``einsum``), not BLAS's: a
BLAS mat-vec sums in an order that depends on the kernel OpenBLAS picks for
the CPU, so its last bits, and with them traces and the order of near-ties,
would change from one machine to another.  The scan adds the products of
the query's nonzero dimensions only, in ``einsum``'s order (see
:func:`_visiting_order`).  A hash-bag query has about 15 nonzero
dimensions of 256 and costs about a sixth of ``einsum``'s time over float64
rows; a dense query costs about three times ``einsum``'s.

The index stores its float32 rows column by column (Fortran order), so the
scan reads each visited dimension of every row in place, as one contiguous
float32 column, and widens it to float64 as it multiplies.  No copy of the
index is made per query or per run; the rows' float64 norms are computed
on first use and kept on the index.

The index persists as a binary file of three blocks (little endian):

    header:   b"TRIX", uint32 version 3, dim, count, JSON block's length
    JSON:     {"tag_ids": [...], "embedder_id": ..., "corpus_sha256": ...}
    vectors:  count * dim float32 values, column by column

The embedder's id and the taxonomy's digest name what built the index, so
a caller can tell a stale one.
Vectors are stored as float32, so a persisted index reloads bit-exactly.
The index is not modified after build; ``top_k`` is read-only and safe for
concurrent callers.
"""

from __future__ import annotations

import json
import os
import struct
from contextlib import closing
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Protocol

import numpy as np

from .backends import checked_vectors
from .corpus import NumeralRecord, TaxonomyCorpus
from .errors import BackendError, ConfigError

__all__ = [
    "Candidate",
    "VectorIndex",
    "EmbedderBackend",
    "build_index",
    "embedder_id_of",
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
    # A strided view would give the query norm's einsum another loop, and
    # with it other bits.
    return np.ascontiguousarray(arr)


_SIGNATURE = b"TRIX" + struct.pack("<I", 3)  # magic and version
_HEADER = struct.Struct("<8s3I")  # signature, dim, count, JSON block's length


@dataclass(frozen=True)
class VectorIndex:
    """Embeddings of all taxonomy tag documents, in corpus order, and what
    built them: the embedder's id and the taxonomy's digest, if known.
    A row without a cosine, one that is zero or not finite, is refused."""

    tag_ids: tuple[str, ...]
    vectors: np.ndarray  # (count, dim) float32, kept in Fortran order
    embedder_id: str | None = None
    corpus_sha256: str | None = None

    # Rows per block of the norms: each row's norm is the same as over the
    # whole matrix, and the float64 temporaries stay small.
    BLOCK_ROWS = 256

    def __post_init__(self) -> None:
        vectors = np.asfortranarray(self.vectors, dtype=np.float32)
        object.__setattr__(self, "vectors", vectors)
        if vectors.ndim != 2:
            raise ValueError("vectors must be a 2-D array")
        if len(self.tag_ids) != vectors.shape[0]:
            raise ValueError("one vector per tag_id required")
        if len(set(self.tag_ids)) != len(self.tag_ids):
            raise ValueError("tag_ids must be unique")
        if not np.all(np.isfinite(vectors)):
            raise ValueError("index vectors contain non-finite values")
        if (zeros := np.flatnonzero(~vectors.any(axis=1))).size:
            raise ValueError(f"index entry {self.tag_ids[zeros[0]]!r} "
                             "has a zero vector")

    def __len__(self) -> int:
        return len(self.tag_ids)

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    @cached_property
    def norms(self) -> np.ndarray:
        """Each row's float64 norm, from row-major float64 copies of its
        block: over column-major rows ``norm`` would add in another order."""
        norms = np.empty(len(self))
        for start in range(0, len(self), self.BLOCK_ROWS):
            block = slice(start, start + self.BLOCK_ROWS)
            norms[block] = np.linalg.norm(
                self.vectors[block].astype(np.float64, order="C"), axis=1)
        return norms

    def save(self, path: str | Path) -> None:
        """Write a temp file of its own beside ``path``, then move it there:
        a failed save leaves the file at ``path``, if any, as it was."""
        meta = json.dumps({"tag_ids": self.tag_ids, "embedder_id": self.embedder_id,
                           "corpus_sha256": self.corpus_sha256}).encode("utf-8")
        tmp = f"{path}.{os.urandom(4).hex()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(_HEADER.pack(_SIGNATURE, self.dim, len(self), len(meta)))
                fh.write(meta)
                fh.write(np.ascontiguousarray(self.vectors.T, dtype="<f4"))  # no copy
            os.replace(tmp, path)
        finally:
            Path(tmp).unlink(missing_ok=True)

    @classmethod
    def load(cls, path: str | Path) -> "VectorIndex":
        with open(path, "rb") as fh:
            header = fh.read(_HEADER.size)
            if not _SIGNATURE.startswith(header[:len(_SIGNATURE)]):
                raise ValueError(f"{path}: not a version-3 index file; "
                                 "rebuild with embed-index")
            if len(header) < _HEADER.size:
                raise ValueError(f"{path}: truncated index file")
            _, dim, count, meta_len = _HEADER.unpack(header)
            # Checked before anything else is read or allocated.
            size = _HEADER.size + meta_len + 4 * dim * count
            if (actual := os.fstat(fh.fileno()).st_size) != size:
                raise ValueError(f"{path}: truncated index file" if actual < size
                                 else f"{path}: trailing bytes after {count} entries")
            try:
                meta = json.loads(fh.read(meta_len))
                ids, built_by = meta["tag_ids"], (meta["embedder_id"],
                                                  meta["corpus_sha256"])
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}: damaged index block: {exc!r}") from None
            vectors = np.empty((count, dim), dtype="<f4", order="F")
            if fh.readinto(vectors.T) != vectors.nbytes:  # shrunk since the check
                raise ValueError(f"{path}: truncated index file")
        return cls(tuple(ids), vectors, *built_by)


def _embed(call, n: int, what: str) -> np.ndarray:
    """``call()``'s vectors for ``n`` texts, checked, or a BackendError
    naming ``what``."""
    try:
        return checked_vectors(call(), n, "embedder")
    except Exception as exc:
        raise BackendError(f"embedding failed for {what}: {exc}") from exc


def embedder_id_of(embedder: EmbedderBackend) -> str:
    """``embedder``'s ``backend_id``, or that of the embedder it caches."""
    return getattr(embedder, "inner", embedder).backend_id


def build_index(corpus: TaxonomyCorpus, embedder: EmbedderBackend,
                batch_size: int = 64) -> VectorIndex:
    """Embed every tag document and assemble the index in corpus order.

    An embedder with an ``embed_batches`` method is handed every batch at
    once: an http embedder overlaps their requests up to its own cap, and
    the hash embedder hashes each distinct token once per build.  Any other
    embedder gets one ``embed_batch`` call per batch, one after another.
    Rows land in batch order either way, and the embedder's threads, if
    any, are joined before this returns or raises.
    """
    if len(corpus) == 0:
        raise ValueError("corpus is empty")
    ids = [doc.tag_id for doc in corpus.docs]
    texts = [doc.text for doc in corpus.docs]
    starts = range(0, len(texts), batch_size)
    batches = (texts[start:start + batch_size] for start in starts)
    overlapped = getattr(embedder, "embed_batches", None)
    results = (overlapped(batches) if overlapped
               else (embedder.embed_batch(texts) for texts in batches))
    vectors: np.ndarray | None = None
    with closing(results):
        for start in starts:
            n = min(batch_size, len(texts) - start)
            vecs = _embed(results.__next__, n,
                          f"batch starting at tag {ids[start]!r}")
            if vectors is None:
                vectors = np.empty((len(texts), vecs.shape[1]), dtype=np.float32,
                                   order="F")
            elif vecs.shape[1] != vectors.shape[1]:
                raise BackendError(
                    f"embedding dimension changed across batches: {vectors.shape[1]} "
                    f"then {vecs.shape[1]} (batch starting at tag {ids[start]!r})"
                )
            vectors[start:start + n] = vecs
    try:
        return VectorIndex(tuple(ids), vectors, embedder_id_of(embedder), corpus.sha256)
    except ValueError as exc:  # a zero row, or one that float32 overflows
        raise BackendError(f"embedding failed: {exc}") from None


@lru_cache
def _visiting_order(dim: int) -> tuple[np.ndarray, int]:
    """The dimensions in the order ``_dots`` adds their products, and how
    many of them the first lane holds.

    It is the order of numpy's contiguous float64 ``einsum("ij,j->i")`` on
    its x86-64 baseline build, which sums a row in two float64 lanes with
    no fused multiply-add: lane 0 takes the even dimensions and lane 1 the
    odd ones; each 8-dimension block adds its pairs (6,7), (4,5), (2,3),
    (0,1) in that order; the ``dim % 8`` tail follows in ascending order;
    the two lane sums are added last.  In this fixed order the score bits
    follow from IEEE multiply and add alone, not from ``einsum``'s loops.
    """
    head = dim - dim % 8
    lanes = []
    for lane in (0, 1):
        block = [base + pair + lane for base in range(0, head, 8)
                 for pair in (6, 4, 2, 0)]
        lanes.append(block + list(range(head + lane, dim, 2)))
    order = np.array(lanes[0] + lanes[1], dtype=np.intp)
    order.flags.writeable = False  # shared by every caller
    return order, len(lanes[0])


def _dots(index: VectorIndex, q: np.ndarray) -> np.ndarray:
    """Every row's dot product with ``q``, as ``einsum`` rounds it.

    Only dimensions where ``q`` is nonzero are visited.  A skipped product
    is an exact +0 or -0, and adding it would change nothing: an
    accumulator that starts at +0 never becomes -0.  Each float32 column is
    widened exactly and multiplied in float64; ``dtype`` asks for that loop,
    which numpy 1.x's value-based casting would not pick for a float32 array
    times a float64 scalar.
    """
    order, lane_split = _visiting_order(index.dim)
    qo = q[order]
    nonzero = np.flatnonzero(qo)
    split = int(np.searchsorted(nonzero, lane_split))
    columns = index.vectors.T  # C-contiguous: one row per dimension
    tmp = np.empty(len(index))
    lanes = []
    for dims in (nonzero[:split], nonzero[split:]):
        acc = np.zeros(len(index))
        for r in dims:
            np.multiply(columns[order[r]], qo[r], out=tmp, dtype=np.float64)
            np.add(acc, tmp, out=acc)
        lanes.append(acc)
    return np.add(lanes[0], lanes[1], out=lanes[0])


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


def top_k(query, index: VectorIndex, k: int) -> list[Candidate]:
    """The k index entries most cosine-similar to the query.

    Scores are non-increasing; equal scores are ordered by corpus position
    (earlier wins); retrieval_rank runs 1..k without gaps.
    """
    q = _as_vector(query)
    if q.shape[0] != index.dim:
        raise ValueError(f"dimension mismatch: query {q.shape[0]} vs index {index.dim}")
    if not 1 <= k <= len(index):
        raise ValueError(f"k={k} out of range for index of size {len(index)}")
    qn = np.sqrt(np.einsum("i,i->", q, q))
    if qn == 0.0:
        raise ValueError("cosine similarity undefined for a zero query vector")
    scores = _dots(index, q) / (index.norms * qn)
    return [
        Candidate(tag_id=index.tag_ids[int(pos)], score=float(scores[int(pos)]),
                  retrieval_rank=rank)
        for rank, pos in enumerate(_top_positions(scores, k), start=1)
    ]


def retrieve(
    record: NumeralRecord,
    gen_doc: str,
    index: VectorIndex,
    embedder: EmbedderBackend,
    k: int,
) -> list[Candidate]:
    """Embed one generated tag document and return its Top-k candidates."""
    if not gen_doc:
        raise ValueError(f"record {record.record_id!r}: gen_doc is empty")
    vecs = _embed(lambda: embedder.embed_batch([gen_doc]), 1,
                  f"record {record.record_id!r}")
    if vecs.shape[1] != index.dim:
        raise ConfigError(f"the embedder makes {vecs.shape[1]}-dimensional vectors "
                          f"but the index holds {index.dim}-dimensional ones")
    return top_k(vecs[0], index, k)
