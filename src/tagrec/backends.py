"""Pluggable generator, embedder, and ranker backends.

The pipeline talks to three kinds of service through narrow contracts, so
any of them can be swapped by configuration alone:

* generator -- produces a tag document for a record's assembled input.  The
  default is file-backed: the dataset already carries each record's
  pre-generated text (producing those offline is out of scope here), and the
  backend just returns it.  A remote chat backend covers live generation.
* embedder -- maps texts to fixed-dimension vectors.  The deterministic hash
  embedder (bag of hashed tokens, L2-normalized) makes retrieval and
  re-ranking fully reproducible offline; a remote embedding backend covers
  real encoders.
* ranker -- answers a listwise re-ranking prompt with a permutation reply.
  Remote rankers speak the common chat-completions wire shape; offline
  oracle rankers live in :mod:`tagrec.sim`.

Ranker calls carry the rendered prompt plus the structured group (tag ids,
texts, optional gold tag) so oracle test doubles can rank without parsing
prompt text.  Remote backends consume only the prompt; the structured extras
never reach the wire or the cache key.

Responses are cached content-addressed: the key is a hash of the canonical
request (kind, model, payload, params), entries are immutable files under a
two-level hex directory, and writes are atomic (temp file then link), so
warm-cache reruns are bit-identical and make zero remote calls.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np
import requests

from .corpus import NumeralRecord
from .errors import BackendError, CacheConflictError, MissingGenerationError
from .prompting import AssembledInput

__all__ = [
    "BackendRequest",
    "CacheEntry",
    "ResponseCache",
    "GenerateRequest",
    "RankRequest",
    "GeneratorBackend",
    "RankerBackend",
    "RetryPolicy",
    "RateLimiter",
    "HashEmbedder",
    "FileBackedGenerator",
    "HttpChatGenerator",
    "HttpChatRanker",
    "HttpEmbedder",
    "CachingGenerator",
    "CachingRanker",
    "CachingEmbedder",
    "generate",
    "embed_batch",
    "rank_listwise",
    "cache_get",
    "cache_put",
]


# --------------------------------------------------------------------------
# Requests and cache keys


@dataclass(frozen=True)
class BackendRequest:
    """Canonical form of one backend call, the unit of caching.

    The canonical serialization is stable: the same logical request always
    produces the same bytes, hence the same cache key.
    """

    kind: str  # "generate" | "embed" | "rank"
    payload: str
    model_id: str
    params: tuple[tuple[str, str], ...] = ()

    def canonical(self) -> bytes:
        doc = {
            "kind": self.kind,
            "model_id": self.model_id,
            "params": [[k, v] for k, v in self.params],
            "payload": self.payload,
        }
        return json.dumps(doc, sort_keys=True, ensure_ascii=False,
                          separators=(",", ":")).encode("utf-8")

    def cache_key(self) -> str:
        return hashlib.sha256(self.canonical()).hexdigest()


@dataclass(frozen=True)
class CacheEntry:
    key: str
    response: str
    created_at: float
    backend_id: str


class ResponseCache:
    """Content-addressed response store: one immutable file per entry.

    Entries live under ``<root>/<key[:2]>/<key[2:4]>/<key>.json``.  Reads are
    lock-free; writes fill a temp file and hard-link it to the entry's name,
    which fails if the name exists, so readers never see a partial entry and
    of concurrent writers of one key exactly one stores its content.
    Re-putting identical content is a no-op; different content for an
    existing key raises :class:`CacheConflictError`, also when the writers
    race.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / key[2:4] / f"{key}.json"

    def get(self, key: str) -> CacheEntry | None:
        path = self._path(key)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        return CacheEntry(key=doc["key"], response=doc["response"],
                          created_at=doc["created_at"], backend_id=doc["backend_id"])

    def put(self, entry: CacheEntry) -> None:
        path = self._path(entry.key)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "key": entry.key,
            "response": entry.response,
            "created_at": entry.created_at,
            "backend_id": entry.backend_id,
        }
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, ensure_ascii=False)
            # Exclusive create of the complete file: of several writers of
            # one key exactly one links, and the others compare with it.
            os.link(tmp, path)
            return
        except FileExistsError:
            existing = self.get(entry.key)
        finally:
            os.unlink(tmp)
        # None: a clear() came in between, and the entry stays cleared.
        if existing is not None and existing.response != entry.response:
            raise CacheConflictError(
                f"cache key {entry.key} already stores different content"
            )

    def stats(self) -> dict:
        entries = list(self.root.glob("*/*/*.json"))
        return {
            "entries": len(entries),
            "bytes": sum(p.stat().st_size for p in entries),
            "root": str(self.root),
        }

    def clear(self) -> int:
        entries = list(self.root.glob("*/*/*.json"))
        for p in entries:
            p.unlink()
        return len(entries)


def cache_get(cache: ResponseCache, key: str) -> CacheEntry | None:
    return cache.get(key)


def cache_put(cache: ResponseCache, entry: CacheEntry) -> None:
    cache.put(entry)


# --------------------------------------------------------------------------
# Backend contracts


@dataclass(frozen=True)
class GenerateRequest:
    """One generation call: the assembled input plus the record's stored text."""

    record_id: str
    text: str
    stored_gen_doc: str | None = None


@dataclass(frozen=True)
class RankRequest:
    """One listwise ranking call.

    ``prompt`` is what a remote backend sees.  ``items`` (presented order,
    as (tag_id, text) pairs) and ``gold_tag_id`` exist for offline oracle
    rankers only; they are excluded from cache keys and wire payloads.
    """

    prompt: str
    gen_doc: str = ""
    items: tuple[tuple[str, str], ...] = ()
    record_id: str = ""
    gold_tag_id: str | None = None


class GeneratorBackend(Protocol):
    backend_id: str

    def generate(self, request: GenerateRequest) -> str: ...


class RankerBackend(Protocol):
    backend_id: str

    def rank_listwise(self, request: RankRequest) -> str: ...


def generate(inp: AssembledInput, backend: GeneratorBackend,
             record: NumeralRecord | None = None) -> str:
    """Obtain the generated tag document for one assembled input."""
    request = GenerateRequest(
        record_id=inp.record_id,
        text=inp.text,
        stored_gen_doc=record.gen_tag_doc if record is not None else None,
    )
    return backend.generate(request)


def embed_batch(texts: Sequence[str], backend) -> np.ndarray:
    """Embed a batch of texts; one vector per text, uniform dim, order kept."""
    if not texts:
        raise ValueError("texts must be non-empty")
    if any(not t for t in texts):
        raise ValueError("every text must be non-empty")
    vecs = np.asarray(backend.embed_batch(list(texts)))
    if vecs.ndim != 2 or vecs.shape[0] != len(texts):
        raise BackendError(f"embedder returned shape {vecs.shape} for {len(texts)} texts")
    return vecs


def rank_listwise(request: RankRequest | str, backend: RankerBackend) -> str:
    """Send one listwise ranking prompt and return the verbatim reply."""
    if isinstance(request, str):
        request = RankRequest(prompt=request)
    if not request.prompt:
        raise ValueError("prompt must be non-empty")
    return backend.rank_listwise(request)


# --------------------------------------------------------------------------
# Retry and rate limiting


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff for transient transport errors."""

    max_attempts: int = 4
    base_delay: float = 0.5
    factor: float = 2.0
    max_delay: float = 8.0

    def delay(self, attempt: int) -> float:
        return min(self.base_delay * self.factor ** attempt, self.max_delay)


class RateLimiter:
    """Caps in-flight requests and enforces a minimum inter-request gap."""

    def __init__(self, max_in_flight: int = 4, min_interval: float = 0.0):
        self._sem = threading.Semaphore(max_in_flight)
        self._min_interval = min_interval
        self._lock = threading.Lock()
        self._next_allowed = 0.0

    def __enter__(self):
        self._sem.acquire()
        if self._min_interval > 0.0:
            with self._lock:
                now = time.monotonic()
                wait = self._next_allowed - now
                self._next_allowed = max(now, self._next_allowed) + self._min_interval
            if wait > 0.0:
                time.sleep(wait)
        return self

    def __exit__(self, *exc) -> None:
        self._sem.release()


# --------------------------------------------------------------------------
# Deterministic local backends


class HashEmbedder:
    """Bag-of-hashed-tokens embedding: offline, deterministic, model-free.

    Text is lowercased and split on whitespace; each token is hashed
    (sha256, salt-free) to one of ``dim`` buckets; bucket counts form the
    vector, which is L2-normalized.  Token order never matters, a text is
    always cosine-1.0 with itself, and token-disjoint texts are orthogonal
    absent bucket collisions.
    """

    def __init__(self, dim: int = 256):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = dim
        self.backend_id = f"hash-embedder:dim={dim}"

    def _bucket(self, token: str) -> int:
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") % self.dim

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        out = np.zeros((len(texts), self.dim), dtype=np.float64)
        for row, text in enumerate(texts):
            tokens = text.lower().split()
            if not tokens:
                raise BackendError("cannot embed a whitespace-only text")
            for token in tokens:
                out[row, self._bucket(token)] += 1.0
            out[row] /= np.linalg.norm(out[row])
        return out


class FileBackedGenerator:
    """Returns each record's pre-generated tag document from the dataset."""

    backend_id = "file-generator"

    def generate(self, request: GenerateRequest) -> str:
        if request.stored_gen_doc is None:
            raise MissingGenerationError(
                f"record {request.record_id!r} has no stored gen_tag_doc"
            )
        return request.stored_gen_doc


# --------------------------------------------------------------------------
# Remote HTTP backends (chat-completion and embedding wire shapes)


_TRANSIENT_STATUS = {429, 500, 502, 503, 504}


def _api_key(role: str) -> str | None:
    return os.environ.get(f"TAGREC_{role.upper()}_API_KEY")


def _base_url(role: str, configured: str) -> str:
    return os.environ.get(f"TAGREC_{role.upper()}_BASE_URL", configured)


class _HttpClient:
    """Shared POST-with-retries plumbing for the remote backends."""

    def __init__(self, role: str, base_url: str, *, retry: RetryPolicy | None = None,
                 limiter: RateLimiter | None = None, timeout: float = 60.0,
                 session=None, sleep=time.sleep):
        self.role = role
        self.base_url = _base_url(role, base_url).rstrip("/")
        self.retry = retry or RetryPolicy()
        self.limiter = limiter or RateLimiter()
        self.timeout = timeout
        self.session = session if session is not None else requests.Session()
        self._sleep = sleep

    def post_json(self, path: str, body: dict) -> dict:
        url = f"{self.base_url}{path}"
        headers = {"Content-Type": "application/json"}
        key = _api_key(self.role)
        if key:
            headers["Authorization"] = f"Bearer {key}"
        last_error: Exception | None = None
        for attempt in range(self.retry.max_attempts):
            if attempt > 0:
                self._sleep(self.retry.delay(attempt - 1))
            try:
                with self.limiter:
                    resp = self.session.post(url, json=body, headers=headers,
                                             timeout=self.timeout)
            except requests.RequestException as exc:
                last_error = exc
                continue
            status = resp.status_code
            if status in (401, 403):
                raise BackendError(f"{self.role}: authentication failed ({status})")
            if status in _TRANSIENT_STATUS:
                last_error = BackendError(f"{self.role}: transient HTTP {status}")
                continue
            if status != 200:
                raise BackendError(f"{self.role}: HTTP {status}: {resp.text[:500]}")
            try:
                return resp.json()
            except ValueError as exc:
                raise BackendError(f"{self.role}: non-JSON response") from exc
        raise BackendError(
            f"{self.role}: giving up after {self.retry.max_attempts} attempts: "
            f"{last_error}"
        )


def _chat_completion(client: _HttpClient, model: str, prompt: str,
                     temperature: float, system: str | None) -> str:
    messages = []
    if system:
        messages.append({"role": "system", "content": system})
    messages.append({"role": "user", "content": prompt})
    body = {"model": model, "messages": messages, "temperature": temperature}
    doc = client.post_json("/chat/completions", body)
    try:
        return doc["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise BackendError(f"{client.role}: malformed chat response") from exc


class HttpChatGenerator:
    """Generates tag documents through a chat-completions endpoint."""

    def __init__(self, model: str, base_url: str, *, temperature: float = 0.0,
                 system: str | None = None, **client_kwargs):
        self.model = model
        self.temperature = temperature
        self.system = system
        self._client = _HttpClient("generator", base_url, **client_kwargs)
        self.backend_id = f"http-generator:{model}"

    def request_of(self, request: GenerateRequest) -> BackendRequest:
        return BackendRequest(
            kind="generate", payload=request.text, model_id=self.model,
            params=(("temperature", repr(self.temperature)),),
        )

    def generate(self, request: GenerateRequest) -> str:
        return _chat_completion(self._client, self.model, request.text,
                                self.temperature, self.system)


class HttpChatRanker:
    """Ranks listwise prompts through a chat-completions endpoint.

    Temperature defaults to 0: the exchange needs structured, consistent
    rankings, and any residual nondeterminism is absorbed by the cache.
    """

    def __init__(self, model: str, base_url: str, *, temperature: float = 0.0,
                 system: str | None = None, **client_kwargs):
        self.model = model
        self.temperature = temperature
        self.system = system
        self._client = _HttpClient("ranker", base_url, **client_kwargs)
        self.backend_id = f"http-ranker:{model}"

    def request_of(self, request: RankRequest) -> BackendRequest:
        return BackendRequest(
            kind="rank", payload=request.prompt, model_id=self.model,
            params=(("temperature", repr(self.temperature)),),
        )

    def rank_listwise(self, request: RankRequest) -> str:
        return _chat_completion(self._client, self.model, request.prompt,
                                self.temperature, self.system)


class HttpEmbedder:
    """Embeds texts through an embeddings endpoint, input order preserved."""

    def __init__(self, model: str, base_url: str, **client_kwargs):
        self.model = model
        self._client = _HttpClient("embedder", base_url, **client_kwargs)
        self.backend_id = f"http-embedder:{model}"

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        doc = self._client.post_json("/embeddings", {"model": self.model,
                                                     "input": list(texts)})
        try:
            vectors = [item["embedding"] for item in doc["data"]]
        except (KeyError, TypeError) as exc:
            raise BackendError("embedder: malformed embeddings response") from exc
        if len(vectors) != len(texts):
            raise BackendError(
                f"embedder: got {len(vectors)} vectors for {len(texts)} inputs"
            )
        return np.asarray(vectors, dtype=np.float64)


# --------------------------------------------------------------------------
# Caching wrappers


class _Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self.requests = 0
        self.hits = 0
        self.misses = 0

    def record(self, hit: bool) -> None:
        with self._lock:
            self.requests += 1
            if hit:
                self.hits += 1
            else:
                self.misses += 1

    def snapshot(self) -> dict:
        with self._lock:
            return {"requests": self.requests, "hits": self.hits,
                    "misses": self.misses}


class _CachingBase:
    """Consult the cache first; on a miss call through and store the reply."""

    def __init__(self, inner, cache: ResponseCache):
        self.inner = inner
        self.cache = cache
        self.counter = _Counter()
        self.backend_id = f"cached({inner.backend_id})"

    def _cached_call(self, request: BackendRequest, call) -> str:
        key = request.cache_key()
        entry = self.cache.get(key)
        if entry is not None:
            self.counter.record(hit=True)
            return entry.response
        response = call()
        self.cache.put(CacheEntry(key=key, response=response,
                                  created_at=time.time(),
                                  backend_id=self.inner.backend_id))
        self.counter.record(hit=False)
        return response


class CachingGenerator(_CachingBase):
    def generate(self, request: GenerateRequest) -> str:
        backend_request = self.inner.request_of(request)
        return self._cached_call(backend_request,
                                 lambda: self.inner.generate(request))


class CachingRanker(_CachingBase):
    def rank_listwise(self, request: RankRequest) -> str:
        backend_request = self.inner.request_of(request)
        return self._cached_call(backend_request,
                                 lambda: self.inner.rank_listwise(request))


class CachingEmbedder(_CachingBase):
    """Caches per-batch embedding responses (vectors stored as JSON)."""

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        payload = json.dumps(list(texts), ensure_ascii=False)
        model_id = getattr(self.inner, "model", self.inner.backend_id)
        backend_request = BackendRequest(kind="embed", payload=payload,
                                         model_id=str(model_id))
        response = self._cached_call(
            backend_request,
            lambda: json.dumps(np.asarray(self.inner.embed_batch(texts)).tolist()),
        )
        return np.asarray(json.loads(response), dtype=np.float64)
