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
  real encoders, and overlaps an index build's batch requests up to its
  rate limiter's cap (``embed_batches``).
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
import math
import os
import threading
import time
from collections import deque
from collections.abc import Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing, contextmanager
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Protocol

import numpy as np
import requests
from requests.adapters import DEFAULT_POOLSIZE, HTTPAdapter

from .errors import BackendError, CacheConflictError, CacheEntryError, \
    MissingGenerationError, integer, number

__all__ = [
    "BackendRequest",
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
    "checked_vectors",
    "generate",
]


# --------------------------------------------------------------------------
# Requests and cache keys

# Built once: ``json.dumps`` with options builds an encoder on every call.
_CANONICAL_JSON = json.JSONEncoder(sort_keys=True, ensure_ascii=False,
                                   separators=(",", ":"))


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
        return _CANONICAL_JSON.encode(doc).encode("utf-8")

    def cache_key(self) -> str:
        return hashlib.sha256(self.canonical()).hexdigest()


_NEW_FILE = os.O_WRONLY | os.O_CREAT | os.O_EXCL


def _make_dir(path: str) -> None:
    """Make the directory ``path`` and, only when missing too, its parent."""
    try:
        os.mkdir(path)
    except FileNotFoundError:
        os.makedirs(path, exist_ok=True)
    except FileExistsError:  # another writer made it first
        pass


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
        self._root = str(self.root)

    def _dir(self, key: str) -> str:
        return f"{self._root}/{key[:2]}/{key[2:4]}"

    def damaged(self, key: str, exc: Exception) -> CacheEntryError:
        """The error to raise for ``key``'s entry, which ``exc`` could not read."""
        return CacheEntryError(
            f"cache entry {self._dir(key)}/{key}.json is damaged "
            f"({type(exc).__name__}: {exc}); `tagrec cache clear` removes it")

    def get(self, key: str) -> str | None:
        """The reply stored under ``key``, or None if it has no entry."""
        try:
            with open(f"{self._dir(key)}/{key}.json", "rb") as fh:
                doc = json.loads(fh.read().decode("utf-8"))
            if not isinstance(response := doc["response"], str):
                raise TypeError(f"response is {type(response).__name__}")
            if missing := {"key", "created_at", "backend_id"} - doc.keys():
                raise KeyError(", ".join(sorted(missing)))
            return response
        except FileNotFoundError:
            return None
        # ValueError covers UnicodeDecodeError and json.JSONDecodeError.
        except (ValueError, KeyError, TypeError) as exc:
            raise self.damaged(key, exc) from None

    def __contains__(self, key: str) -> bool:
        """Whether ``key`` has an entry, told without reading it."""
        return os.path.exists(f"{self._dir(key)}/{key}.json")

    def put(self, key: str, response: str, backend_id: str) -> None:
        """Store ``response`` under ``key``, stamped with the time now."""
        parent = self._dir(key)
        data = json.dumps({
            "key": key,
            "response": response,
            "created_at": time.time(),
            "backend_id": backend_id,
        }, ensure_ascii=False).encode("utf-8")
        # A name of this writer's own beside the entry, so the link below
        # stays on one file system.
        tmp = f"{parent}/{key}.{os.urandom(8).hex()}.tmp"
        try:
            fd = os.open(tmp, _NEW_FILE, 0o600)
        except FileNotFoundError:  # the entry's directory is made on demand
            _make_dir(parent)
            fd = os.open(tmp, _NEW_FILE, 0o600)
        try:
            view = memoryview(data)
            while view:  # os.write may write less than it is given
                view = view[os.write(fd, view):]
            # Exclusive create of the complete file: of several writers of
            # one key exactly one links, and the others compare with it.
            os.link(tmp, f"{parent}/{key}.json")
            return
        except FileExistsError:
            existing = self.get(key)
        finally:
            os.close(fd)
            os.unlink(tmp)
        # None: a clear() came in between, and the entry stays cleared.
        if existing is not None and existing != response:
            raise CacheConflictError(
                f"cache key {key} already stores different content"
            )

    def _entries(self) -> list[Path]:
        """The entry files: ``<k[:2]>/<k[2:4]>/<k>.json`` for a key ``k`` of
        64 lowercase hex digits, and no other file under the root."""
        return [p for p in self.root.glob(f"*/*/{'[0-9a-f]' * 64}.json")
                if (p.parent.parent.name, p.parent.name) == (p.stem[:2], p.stem[2:4])]

    def stats(self) -> dict:
        entries = self._entries()
        return {
            "entries": len(entries),
            "bytes": sum(p.stat().st_size for p in entries),
            "root": str(self.root),
        }

    def clear(self) -> int:
        entries = self._entries()
        for p in entries:
            p.unlink()
        return len(entries)


# --------------------------------------------------------------------------
# Backend contracts


@dataclass(frozen=True)
class GenerateRequest:
    """One generation call: the assembled input plus the record's stored text."""

    record_id: str
    prompt: str
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
    """A listwise ranker.  One that declares a ``max_in_flight`` cap holds
    it itself, as the http ranker's rate limiter does: a run works on twice
    that many records and adds no gate of its own."""

    backend_id: str

    def rank_listwise(self, request: RankRequest) -> str: ...


def generate(request: GenerateRequest, backend: GeneratorBackend) -> str:
    """Obtain the generated tag document for one generation request."""
    return backend.generate(request)


# --------------------------------------------------------------------------
# Retry and rate limiting


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff for transient transport errors.

    A transient reply's ``Retry-After`` seconds lengthen the next wait to
    that many, but never past ``max_delay``.
    """

    max_attempts: int = 4
    base_delay: float = 0.5
    factor: float = 2.0
    max_delay: float = 8.0

    def __post_init__(self) -> None:
        # No attempt at all would fail every call without sending it.
        integer("max_attempts", self.max_attempts, 1)
        # max_delay caps every wait, which time.sleep must be able to make.
        for name, high in (("base_delay", None), ("factor", None),
                           ("max_delay", threading.TIMEOUT_MAX)):
            object.__setattr__(self, name, number(name, getattr(self, name), 0, high))

    def delay(self, attempt: int, retry_after: float = 0.0) -> float:
        """The wait after failed attempt ``attempt`` (from 0) whose reply
        asked for ``retry_after`` seconds."""
        try:
            backoff = self.base_delay * self.factor ** attempt
        except OverflowError:  # the power passed every float, so factor > 1
            backoff = math.inf if self.base_delay else 0.0
        return min(max(backoff, retry_after), self.max_delay)


class RateLimiter:
    """Caps in-flight requests and enforces a minimum inter-request gap.

    Each holder of a slot may queue one gap, so ``min_interval`` times the
    cap must be a wait that ``time.sleep`` can make.
    """

    # The cap sizes the http connection pool and the embedder's worker
    # pool, so it is bounded before either is built.
    MAX_IN_FLIGHT = 64

    def __init__(self, max_in_flight: int = 4, min_interval: float = 0.0):
        self.max_in_flight = integer("max_in_flight", max_in_flight, 1,
                                     self.MAX_IN_FLIGHT)
        self.min_interval = number("min_interval", min_interval, 0,
                                   threading.TIMEOUT_MAX / self.max_in_flight)
        self._sem = threading.Semaphore(max_in_flight)
        self._lock = threading.Lock()
        self._next_allowed = 0.0

    def __enter__(self):
        self._sem.acquire()
        if self.min_interval > 0.0:
            with self._lock:
                now = time.monotonic()
                wait = self._next_allowed - now
                self._next_allowed = max(now, self._next_allowed) + self.min_interval
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

    A batch hashes each distinct token once, into a token-to-bucket dict
    that :meth:`embed_batches` keeps for one call only, so building an
    index hashes each distinct token once however many batches hold it,
    and nothing outlives the build.  A batch of one text, such as a
    record's query, starts from an empty dict.
    """

    def __init__(self, dim: int = 256):
        self.dim = integer("dim", dim, 1)
        self.backend_id = f"hash-embedder:dim={dim}"

    def _bucket(self, token: str) -> int:
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") % self.dim

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        return self._embed(texts, {})

    def embed_batches(self, batches: Iterable[list[str]]) -> Iterator[np.ndarray]:
        """Each batch's vectors in batch order, on the calling thread."""
        buckets: dict[str, int] = {}  # token -> bucket, for this call only
        for texts in batches:
            yield self._embed(texts, buckets)

    def _embed(self, texts: list[str], buckets: dict[str, int]) -> np.ndarray:
        token_lists = [text.lower().split() for text in texts]
        if not all(token_lists):
            raise BackendError("cannot embed a whitespace-only text")
        tokens = list(chain.from_iterable(token_lists))
        missing = set(tokens).difference(buckets)
        buckets.update(zip(missing, map(self._bucket, missing)))
        cells = np.fromiter(map(buckets.__getitem__, tokens), dtype=np.intp,
                            count=len(tokens))
        lengths = np.fromiter(map(len, token_lists), dtype=np.intp,
                              count=len(texts))
        cells += np.repeat(np.arange(0, len(texts) * self.dim, self.dim), lengths)
        # Integer counts make every norm exact.
        out = np.bincount(cells, minlength=len(texts) * self.dim).astype(np.float64)
        out = out.reshape(len(texts), self.dim)
        return out / np.sqrt((out * out).sum(axis=1, keepdims=True))


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


def _retry_after_seconds(resp) -> float:
    """The wait a reply's ``Retry-After`` header asks for, in seconds, or 0.

    Only the delay-seconds form counts; an HTTP date, a negative number or
    anything else malformed is ignored, as is a reply without headers.
    """
    value = (getattr(resp, "headers", None) or {}).get("Retry-After", "").strip()
    return float(value) if value.isascii() and value.isdigit() else 0.0


class _HttpBackend:
    """A remote backend that POSTs JSON with retries, under its rate limiter.

    Each subclass sets its ``role``, which names it in ``backend_id`` and in
    errors and picks ``TAGREC_<ROLE>_API_KEY`` and ``TAGREC_<ROLE>_BASE_URL``.
    ``max_in_flight`` is the rate limiter's cap on calls in flight, which
    :meth:`post` holds itself.
    """

    def __init__(self, model: str, base_url: str, *, retry: RetryPolicy | None = None,
                 limiter: RateLimiter | None = None, timeout: float = 60.0,
                 session=None, sleep=time.sleep):
        # requests fails every call with a wait past TIMEOUT_MAX.
        self.timeout = number("timeout", timeout, 0, threading.TIMEOUT_MAX)
        if self.timeout == 0:  # requests refuses it on every call
            raise ValueError(f"timeout must be > 0, got {timeout!r}")
        self.model = model
        self.backend_id = f"http-{self.role}:{model}"
        self.base_url = os.environ.get(f"TAGREC_{self.role.upper()}_BASE_URL",
                                       base_url).rstrip("/")
        self.retry = retry or RetryPolicy()
        self.limiter = limiter or RateLimiter()
        self.max_in_flight = self.limiter.max_in_flight
        if session is None:
            # One pooled connection per call the limiter lets through, so
            # none is thrown away when more than urllib3's 10 are in flight.
            session = requests.Session()
            adapter = HTTPAdapter(pool_maxsize=max(self.max_in_flight,
                                                   DEFAULT_POOLSIZE))
            session.mount("http://", adapter)
            session.mount("https://", adapter)
        self.session = session
        self._sleep = sleep

    def post(self, path: str, body: dict):
        """The first 200 reply to POSTing ``body``, its body read.

        Transport errors, also while the body is read, and transient
        statuses are retried; any other status raises at once.
        """
        url = f"{self.base_url}{path}"
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(f"TAGREC_{self.role.upper()}_API_KEY")
        if key:
            headers["Authorization"] = f"Bearer {key}"
        last_error: Exception | None = None
        retry_after = 0.0
        for attempt in range(self.retry.max_attempts):
            if attempt > 0:
                self._sleep(self.retry.delay(attempt - 1, retry_after))
            retry_after = 0.0
            try:
                with self.limiter:
                    resp = self.session.post(url, json=body, headers=headers,
                                             timeout=self.timeout)
            except requests.RequestException as exc:
                last_error = exc
                continue
            status = resp.status_code
            if status == 200:
                return resp
            transient = status in _TRANSIENT_STATUS
            if transient:
                retry_after = _retry_after_seconds(resp)
            last_error = BackendError(
                f"{self.role}: authentication failed ({status})"
                if status in (401, 403) else
                f"{self.role}: transient HTTP {status}" if transient else
                f"{self.role}: HTTP {status}: {resp.text[:500]}")
            if not transient:
                raise last_error
        raise BackendError(
            f"{self.role}: giving up after {self.retry.max_attempts} attempts: "
            f"{last_error}"
        )

    def _json(self, resp) -> dict:
        try:
            return resp.json()
        except ValueError as exc:
            raise BackendError(f"{self.role}: non-JSON response") from exc


class _HttpChat(_HttpBackend):
    """A chat-completions backend: the request's prompt as the user message.

    Each subclass sets its ``role`` and cache ``kind``.  The cache key holds
    every input that changes the reply: the prompt, the model, the
    temperature, and the system prompt when one is sent.
    """

    def __init__(self, model: str, base_url: str, *, temperature: float = 0.0,
                 system: str | None = None, **http_kwargs):
        self.temperature = number("temperature", temperature)  # 1 keys as 1.0
        self.system = system
        super().__init__(model, base_url, **http_kwargs)

    def request_of(self, request) -> BackendRequest:
        params = (("temperature", repr(self.temperature)),)
        if self.system:
            params += (("system", self.system),)
        return BackendRequest(kind=self.kind, payload=request.prompt,
                              model_id=self.model, params=params)

    def _complete(self, request) -> str:
        messages = []
        if self.system:
            messages.append({"role": "system", "content": self.system})
        messages.append({"role": "user", "content": request.prompt})
        body = {"model": self.model, "messages": messages,
                "temperature": self.temperature}
        doc = self._json(self.post("/chat/completions", body))
        try:
            content = doc["choices"][0]["message"]["content"]
            if not isinstance(content, str):  # nothing else may be cached
                raise TypeError(f"content is {type(content).__name__}")
            return content
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"{self.role}: malformed chat response") from exc


class HttpChatGenerator(_HttpChat):
    """Generates tag documents through a chat-completions endpoint."""

    role, kind = "generator", "generate"

    def generate(self, request: GenerateRequest) -> str:
        return self._complete(request)


class HttpChatRanker(_HttpChat):
    """Ranks listwise prompts through a chat-completions endpoint.

    Temperature defaults to 0: the exchange needs structured, consistent
    rankings, and any residual nondeterminism is absorbed by the cache.
    """

    role, kind = "ranker", "rank"

    def rank_listwise(self, request: RankRequest) -> str:
        return self._complete(request)


class HttpEmbedder(_HttpBackend):
    """Embeds texts through an embeddings endpoint, input order preserved."""

    role = "embedder"

    def request_of(self, texts: list[str]) -> BackendRequest:
        return BackendRequest(kind="embed", model_id=self.model,
                              payload=json.dumps(list(texts), ensure_ascii=False))

    def _body(self, texts: list[str]) -> dict:
        return {"model": self.model, "input": list(texts)}

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        return self._vectors(texts, self.post("/embeddings", self._body(texts)))

    def embed_batches(self, batches: Iterable[list[str]]) -> Iterator[np.ndarray]:
        """Each batch's vectors in batch order, ``max_in_flight`` sent at once.

        Worker threads send each request and read its whole reply, retrying
        as :meth:`embed_batch` does; this thread decodes and checks each
        reply, so no worker holds a batch's decoded data.  A batch is sent
        only while fewer than ``max_in_flight`` replies wait to be decoded.
        Closing the generator, or a failure, waits for the requests in
        flight, so no thread outlives it.
        """
        pending: deque = deque()  # (texts, future of the reply)
        with ThreadPoolExecutor(self.max_in_flight,
                                thread_name_prefix="tagrec-embed") as pool:
            for texts in batches:
                pending.append((texts, pool.submit(self.post, "/embeddings",
                                                   self._body(texts))))
                if len(pending) == self.max_in_flight:
                    sent, reply = pending.popleft()
                    yield self._vectors(sent, reply.result())
            while pending:
                sent, reply = pending.popleft()
                yield self._vectors(sent, reply.result())

    def _vectors(self, texts: list[str], resp) -> np.ndarray:
        """The vectors of a 200 reply to embedding ``texts``, checked."""
        doc = self._json(resp)
        try:
            vectors = [item["embedding"] for item in doc["data"]]
        except (KeyError, TypeError) as exc:
            raise BackendError("embedder: malformed embeddings response") from exc
        return checked_vectors(vectors, len(texts), "embedder: reply")


def checked_vectors(vectors, n: int, what: str) -> np.ndarray:
    """``vectors`` as a float64 array of ``n`` non-empty rows, all finite,
    or a BackendError naming ``what``: JSON decoders accept NaN and
    Infinity, and no index, query or cache may hold them."""
    try:
        array = np.asarray(vectors, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BackendError(f"{what} holds no vectors of numbers ({exc})") from None
    if array.ndim != 2 or array.shape[0] != n or array.shape[1] == 0:
        raise BackendError(f"{what} returned shape {array.shape} for {n} "
                           f"texts, not {n} non-empty vectors")
    if not np.isfinite(array).all():
        raise BackendError(f"{what} holds a non-finite value")
    return array


# --------------------------------------------------------------------------
# Caching wrappers


class _Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def record(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1

    def snapshot(self) -> dict:
        with self._lock:
            return {"requests": self.hits + self.misses, "hits": self.hits,
                    "misses": self.misses}


class _CachingBase:
    """Consult the cache first; on a miss call through and store the reply.

    Calls take turns by key: a call whose key is already in flight waits
    for that reply and reads it from the cache, so concurrent copies of one
    request make one backend call, as they would one after another, and a
    backend that answers differently each time raises no
    :class:`CacheConflictError`.  A call with several keys waits until none
    of them is in flight and then takes them all at once (``_turns_of``),
    so no caller holds some turns while it waits for others, and callers
    never wait on each other in a cycle.
    """

    def __init__(self, inner, cache: ResponseCache):
        self.inner = inner
        self.cache = cache
        self.counter = _Counter()
        self.backend_id = f"cached({inner.backend_id})"
        # The wrapped backend's cap on calls in flight, if it has one.
        self.max_in_flight = getattr(inner, "max_in_flight", None)
        self._turn_ended = threading.Condition(threading.Lock())
        self._in_flight: set[str] = set()  # keys whose turn is taken

    @contextmanager
    def _turns_of(self, keys: Iterable[str]) -> Iterator[None]:
        """Hold the turn of every key of ``keys`` while in the block.

        The turns are taken together, once none of them is in flight, and
        given back together when the block ends, however it ends.
        """
        keys = set(keys)
        with self._turn_ended:
            while not self._in_flight.isdisjoint(keys):
                self._turn_ended.wait()
            self._in_flight |= keys
        try:
            yield
        finally:
            with self._turn_ended:
                self._in_flight -= keys
                self._turn_ended.notify_all()

    def _cached_call(self, request: BackendRequest, call) -> str:
        key = request.cache_key()
        with self._turns_of([key]):
            cached = self.cache.get(key)
            if cached is not None:
                self.counter.record(hit=True)
                return cached
            response = call()
            self._store(key, response)
            return response

    def _store(self, key: str, response: str) -> None:
        self.cache.put(key, response, self.inner.backend_id)
        self.counter.record(hit=False)


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
        [vectors] = self.embed_batches([texts])
        return vectors

    def embed_batches(self, batches: Iterable[list[str]]) -> Iterator[np.ndarray]:
        """Each batch's vectors, in batch order; the misses overlap.

        Every batch's turn is taken first, all at once (see ``_turns_of``),
        and held until the generator ends.  Each distinct key without an
        entry is then sent once, in batch order, to the inner embedder's
        ``embed_batches``, or to its ``embed_batch`` for a single miss or an
        embedder without the former, so a record's query starts no thread.
        A miss's reply is stored when its batch is reached, and a hit is
        read there.
        """
        batches = list(batches)
        keys = [self.inner.request_of(texts).cache_key() for texts in batches]
        with self._turns_of(keys):
            # The distinct misses, in batch order.
            misses = {key: texts for key, texts in zip(keys, batches)
                      if key not in self.cache}
            sends = list(misses.values())
            overlapped = getattr(self.inner, "embed_batches", None)
            if overlapped is None or len(sends) == 1:
                replies = (self.inner.embed_batch(texts) for texts in sends)
            else:
                replies = overlapped(sends)
            with closing(replies):
                for key, texts in zip(keys, batches):
                    if misses.pop(key, None) is not None:
                        vectors = next(replies)
                    elif (cached := self.cache.get(key)) is not None:
                        self.counter.record(hit=True)
                        try:
                            vectors = checked_vectors(json.loads(cached),
                                                      len(texts),
                                                      f"cache entry {key}")
                        except (ValueError, BackendError) as exc:
                            raise self.cache.damaged(key, exc) from None
                        yield vectors
                        continue
                    else:  # cleared since the check (``tagrec cache clear``)
                        vectors = self.inner.embed_batch(texts)
                    vectors = checked_vectors(vectors, len(texts), "embedder")
                    self._store(key, json.dumps(vectors.tolist()))
                    # Not parsed back: floats round-trip through their
                    # repr, so these are the bits a hit reads.
                    yield vectors
