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
import os
import threading
import time
from collections import deque
from collections.abc import Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, closing, contextmanager
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Protocol

import numpy as np
import requests
from requests.adapters import DEFAULT_POOLSIZE, HTTPAdapter

from .errors import BackendError, CacheConflictError, MissingGenerationError

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


@dataclass(frozen=True)
class CacheEntry:
    key: str
    response: str
    created_at: float
    backend_id: str


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

    def get(self, key: str) -> CacheEntry | None:
        try:
            with open(f"{self._dir(key)}/{key}.json", "rb") as fh:
                doc = json.loads(fh.read().decode("utf-8"))
        except FileNotFoundError:
            return None
        return CacheEntry(key=doc["key"], response=doc["response"],
                          created_at=doc["created_at"], backend_id=doc["backend_id"])

    def __contains__(self, key: str) -> bool:
        """Whether ``key`` has an entry, told without reading it."""
        return os.path.exists(f"{self._dir(key)}/{key}.json")

    def put(self, entry: CacheEntry) -> None:
        parent = self._dir(entry.key)
        data = json.dumps({
            "key": entry.key,
            "response": entry.response,
            "created_at": entry.created_at,
            "backend_id": entry.backend_id,
        }, ensure_ascii=False).encode("utf-8")
        # A name of this writer's own beside the entry, so the link below
        # stays on one file system.
        tmp = f"{parent}/{entry.key}.{os.urandom(8).hex()}.tmp"
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
            os.link(tmp, f"{parent}/{entry.key}.json")
            return
        except FileExistsError:
            existing = self.get(entry.key)
        finally:
            os.close(fd)
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
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not (self.base_delay >= 0 and self.factor >= 0
                and self.max_delay >= 0):  # NaN too
            raise ValueError("base_delay, factor and max_delay must be >= 0")

    def delay(self, attempt: int) -> float:
        return min(self.base_delay * self.factor ** attempt, self.max_delay)


class RateLimiter:
    """Caps in-flight requests and enforces a minimum inter-request gap."""

    def __init__(self, max_in_flight: int = 4, min_interval: float = 0.0):
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        self.max_in_flight = max_in_flight
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

    Each instance memoises the bucket of every token it has hashed in a
    batch of several texts, for as long as the instance lives, so building
    an index hashes each distinct token once however many batches hold it.
    The memo holds at most ``MEMO_TOKENS`` tokens and is cleared when a
    batch would take it past that; a batch with more distinct tokens than
    that is hashed in full and not memoised.  A batch of one text, such as
    a record's query in the pipeline, is hashed token by token and leaves
    the memo alone: a memo would save a query little, and one that grew
    with every record would hold memory that grows with the dataset.
    Vectors do not depend on the memo's state.
    """

    # About 10 MB of dict entries and token strings at most.
    MEMO_TOKENS = 1 << 16

    def __init__(self, dim: int = 256):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = dim
        self.backend_id = f"hash-embedder:dim={dim}"
        self._memo: dict[str, int] = {}  # token -> bucket
        self._memo_lock = threading.Lock()  # records embed on worker threads

    def _bucket(self, token: str) -> int:
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") % self.dim

    def _buckets(self, tokens: set[str]) -> dict[str, int]:
        """A dict that holds the bucket of each of ``tokens``."""
        memo = self._memo
        missing = tokens.difference(memo)
        if len(memo) + len(missing) > self.MEMO_TOKENS:
            memo.clear()
            missing = tokens
            if len(tokens) > self.MEMO_TOKENS:
                memo = {}
        memo.update(zip(missing, map(self._bucket, missing)))
        return memo

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        token_lists = [text.lower().split() for text in texts]
        if not all(token_lists):
            raise BackendError("cannot embed a whitespace-only text")
        if len(texts) == 1:
            # A query: its tokens rarely repeat, so it is hashed token by
            # token, and the memo is left alone (see the class docstring).
            cells = list(map(self._bucket, token_lists[0]))
        else:
            tokens = list(chain.from_iterable(token_lists))
            with self._memo_lock:
                buckets = self._buckets(set(tokens))
                cells = np.fromiter(map(buckets.__getitem__, tokens),
                                    dtype=np.intp, count=len(tokens))
            lengths = np.fromiter(map(len, token_lists), dtype=np.intp,
                                  count=len(texts))
            cells += np.repeat(np.arange(0, len(texts) * self.dim, self.dim),
                               lengths)
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


def _api_key(role: str) -> str | None:
    return os.environ.get(f"TAGREC_{role.upper()}_API_KEY")


def _base_url(role: str, configured: str) -> str:
    return os.environ.get(f"TAGREC_{role.upper()}_BASE_URL", configured)


def _retry_after_seconds(resp) -> float:
    """The wait a reply's ``Retry-After`` header asks for, in seconds, or 0.

    Only the delay-seconds form counts; an HTTP date, a negative number or
    anything else malformed is ignored, as is a reply without headers.
    """
    value = (getattr(resp, "headers", None) or {}).get("Retry-After", "").strip()
    return float(value) if value.isascii() and value.isdigit() else 0.0


class _HttpClient:
    """Shared POST-with-retries plumbing for the remote backends."""

    def __init__(self, role: str, base_url: str, *, retry: RetryPolicy | None = None,
                 limiter: RateLimiter | None = None, timeout: float = 60.0,
                 session=None, sleep=time.sleep):
        if not timeout > 0:  # NaN too
            raise ValueError("timeout must be > 0")
        self.role = role
        self.base_url = _base_url(role, base_url).rstrip("/")
        self.retry = retry or RetryPolicy()
        self.limiter = limiter or RateLimiter()
        self.timeout = timeout
        if session is None:
            # One pooled connection per call the limiter lets through, so
            # none is thrown away when more than urllib3's 10 are in flight.
            session = requests.Session()
            adapter = HTTPAdapter(pool_maxsize=max(self.limiter.max_in_flight,
                                                   DEFAULT_POOLSIZE))
            session.mount("http://", adapter)
            session.mount("https://", adapter)
        self.session = session
        self._sleep = sleep

    def post_json(self, path: str, body: dict) -> dict:
        return self._json(self.post(path, body)[0])

    def post(self, path: str, body: dict, *, stream: bool = False,
             attempt: int = 0, last_error: Exception | None = None):
        """The first 200 reply to POSTing ``body``, and the attempt that got it.

        Transport errors and transient statuses are retried, from attempt
        number ``attempt`` on; ``last_error`` is the failure that ended the
        attempt before it, if any.  With ``stream`` the reply's body is left
        unread for :meth:`read_json`.
        """
        url = f"{self.base_url}{path}"
        headers = {"Content-Type": "application/json"}
        key = _api_key(self.role)
        if key:
            headers["Authorization"] = f"Bearer {key}"
        options = {"json": body, "headers": headers, "timeout": self.timeout}
        if stream:
            options["stream"] = True
        retry_after = 0.0
        for attempt in range(attempt, self.retry.max_attempts):
            if attempt > 0:
                self._sleep(min(max(self.retry.delay(attempt - 1), retry_after),
                                self.retry.max_delay))
            retry_after = 0.0
            try:
                with self.limiter:
                    resp = self.session.post(url, **options)
            except requests.RequestException as exc:
                last_error = exc
                continue
            status = resp.status_code
            if status in (401, 403):
                raise BackendError(f"{self.role}: authentication failed ({status})")
            if status in _TRANSIENT_STATUS:
                last_error = BackendError(f"{self.role}: transient HTTP {status}")
                retry_after = _retry_after_seconds(resp)
                if stream:  # give its connection back to the pool
                    resp.close()
                continue
            if status != 200:
                raise BackendError(f"{self.role}: HTTP {status}: {resp.text[:500]}")
            return resp, attempt
        raise BackendError(
            f"{self.role}: giving up after {self.retry.max_attempts} attempts: "
            f"{last_error}"
        )

    def read_json(self, path: str, body: dict, resp, attempt: int) -> dict:
        """The decoded body of a streamed reply that :meth:`post` returned.

        A transport error while reading the body sends the request again
        from this thread, within the same attempts.
        """
        while True:
            try:
                # Only reading counts: requests' JSON errors are
                # RequestExceptions too, and must not be retried.
                resp.content
                break
            except requests.RequestException as exc:
                resp, attempt = self.post(path, body, stream=True,
                                          attempt=attempt + 1, last_error=exc)
        return self._json(resp)

    def _json(self, resp) -> dict:
        try:
            return resp.json()
        except ValueError as exc:
            raise BackendError(f"{self.role}: non-JSON response") from exc


class _HttpBackend:
    """A backend that sends its calls through one :class:`_HttpClient`."""

    @property
    def max_in_flight(self) -> int:
        """The rate limiter's cap on calls in flight."""
        return self._client.limiter.max_in_flight


class _HttpChat(_HttpBackend):
    """A chat-completions backend: the request's prompt as the user message.

    Each subclass sets its ``role`` and cache ``kind`` and defines
    ``_prompt``, which picks the prompt out of its request type.  The cache
    key holds every input that changes the reply: the prompt, the model, the
    temperature, and the system prompt when one is sent.
    """

    def __init__(self, model: str, base_url: str, *, temperature: float = 0.0,
                 system: str | None = None, **client_kwargs):
        self.model = model
        self.temperature = temperature
        self.system = system
        self._client = _HttpClient(self.role, base_url, **client_kwargs)
        self.backend_id = f"http-{self.role}:{model}"

    def request_of(self, request) -> BackendRequest:
        params = (("temperature", repr(self.temperature)),)
        if self.system:
            params += (("system", self.system),)
        return BackendRequest(kind=self.kind, payload=self._prompt(request),
                              model_id=self.model, params=params)

    def _complete(self, request) -> str:
        messages = []
        if self.system:
            messages.append({"role": "system", "content": self.system})
        messages.append({"role": "user", "content": self._prompt(request)})
        body = {"model": self.model, "messages": messages,
                "temperature": self.temperature}
        doc = self._client.post_json("/chat/completions", body)
        try:
            return doc["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"{self.role}: malformed chat response") from exc


class HttpChatGenerator(_HttpChat):
    """Generates tag documents through a chat-completions endpoint."""

    role, kind = "generator", "generate"

    def _prompt(self, request: GenerateRequest) -> str:
        return request.text

    def generate(self, request: GenerateRequest) -> str:
        return self._complete(request)


class HttpChatRanker(_HttpChat):
    """Ranks listwise prompts through a chat-completions endpoint.

    Temperature defaults to 0: the exchange needs structured, consistent
    rankings, and any residual nondeterminism is absorbed by the cache.
    """

    role, kind = "ranker", "rank"

    def _prompt(self, request: RankRequest) -> str:
        return request.prompt

    def rank_listwise(self, request: RankRequest) -> str:
        return self._complete(request)


class HttpEmbedder(_HttpBackend):
    """Embeds texts through an embeddings endpoint, input order preserved."""

    def __init__(self, model: str, base_url: str, **client_kwargs):
        self.model = model
        self._client = _HttpClient("embedder", base_url, **client_kwargs)
        self.backend_id = f"http-embedder:{model}"

    def request_of(self, texts: list[str]) -> BackendRequest:
        return BackendRequest(kind="embed", model_id=self.model,
                              payload=json.dumps(list(texts), ensure_ascii=False))

    def _body(self, texts: list[str]) -> dict:
        return {"model": self.model, "input": list(texts)}

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        return self._vectors(texts, self._client.post_json("/embeddings",
                                                           self._body(texts)))

    def embed_batches(self, batches: Iterable[list[str]]) -> Iterator[np.ndarray]:
        """Each batch's vectors in batch order, ``max_in_flight`` sent at once.

        Worker threads only send a request and wait for its 200 reply,
        retrying as :meth:`embed_batch` does.  This thread reads, decodes and
        checks each reply's body, so no worker holds a batch's decoded data.
        A batch is sent only while fewer than ``max_in_flight`` replies are
        unread.  Closing the generator cancels the batches not yet sent and
        waits for those in flight, so no thread outlives it.
        """
        pending: deque = deque()  # (texts, body, future of post)
        pool = ThreadPoolExecutor(self.max_in_flight,
                                  thread_name_prefix="tagrec-embed")
        try:
            for texts in batches:
                body = self._body(texts)
                pending.append((texts, body, pool.submit(
                    self._client.post, "/embeddings", body, stream=True)))
                if len(pending) == self.max_in_flight:
                    yield self._read(*pending.popleft())
            while pending:
                yield self._read(*pending.popleft())
        finally:
            pool.shutdown(cancel_futures=True)
            for _, _, future in pending:  # replies never read
                if not future.cancelled() and future.exception() is None:
                    future.result()[0].close()

    def _read(self, texts: list[str], body: dict, future) -> np.ndarray:
        return self._vectors(texts, self._client.read_json("/embeddings", body,
                                                           *future.result()))

    @staticmethod
    def _vectors(texts: list[str], doc: dict) -> np.ndarray:
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
    """Consult the cache first; on a miss call through and store the reply.

    Calls with one key take turns: a call whose key is already in flight
    waits for that reply and reads it from the cache, so concurrent copies
    of one request make one backend call, as they would one after another,
    and a backend that answers differently each time raises no
    :class:`CacheConflictError`.  A call with several keys takes their
    turns in sorted key order (``_turns_of``), so callers that hold turns
    never wait on each other in a cycle.
    """

    def __init__(self, inner, cache: ResponseCache):
        self.inner = inner
        self.cache = cache
        self.counter = _Counter()
        self.backend_id = f"cached({inner.backend_id})"
        self._guard = threading.Lock()
        self._turns: dict[str, list] = {}  # key -> [lock, callers holding it]

    @property
    def max_in_flight(self) -> int | None:
        """The wrapped backend's cap on calls in flight, if it has one."""
        return getattr(self.inner, "max_in_flight", None)

    @contextmanager
    def _turns_of(self, keys: Iterable[str]) -> Iterator[ExitStack]:
        """Hold the turn of each distinct key of ``keys`` while in the block.

        The turns are taken one at a time, in sorted key order, and all are
        given back when the block ends, however it ends.  The block gets the
        stack that gives them back; what it pushes there is undone first.
        """
        with ExitStack() as stack:
            for key in sorted(set(keys)):
                with self._guard:
                    turn = self._turns.setdefault(key, [threading.Lock(), 0])
                    turn[1] += 1  # callers holding or waiting for it
                stack.callback(self._leave, key, turn)
                stack.enter_context(turn[0])
            yield stack

    def _leave(self, key: str, turn: list) -> None:
        with self._guard:
            turn[1] -= 1
            if not turn[1]:
                del self._turns[key]

    def _cached_call(self, request: BackendRequest, call) -> str:
        key = request.cache_key()
        with self._turns_of([key]):
            entry = self.cache.get(key)
            if entry is not None:
                self.counter.record(hit=True)
                return entry.response
            response = call()
            self._store(key, response)
            return response

    def _store(self, key: str, response: str) -> None:
        self.cache.put(CacheEntry(key=key, response=response,
                                  created_at=time.time(),
                                  backend_id=self.inner.backend_id))
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

        Every batch's turn is taken first (see ``_turns_of``) and held until
        the generator ends.  Each distinct key without an entry is then sent
        once, in batch order, to the inner embedder's ``embed_batches``, or
        to its ``embed_batch`` for a single miss or an embedder without the
        former, so a record's query starts no thread.  A miss's reply is
        stored when its batch is reached, and a hit is read there.
        """
        batches = list(batches)
        keys = [self.inner.request_of(texts).cache_key() for texts in batches]
        with self._turns_of(keys) as stack:
            # The distinct misses, in batch order.
            misses = {key: texts for key, texts in zip(keys, batches)
                      if key not in self.cache}
            sends = list(misses.values())
            overlapped = getattr(self.inner, "embed_batches", None)
            if overlapped is not None and len(sends) > 1:
                replies = stack.enter_context(closing(overlapped(sends)))
            else:
                replies = map(self.inner.embed_batch, sends)
            for key, texts in zip(keys, batches):
                if misses.pop(key, None) is not None:
                    vectors = next(replies)
                else:
                    entry = self.cache.get(key)
                    if entry is not None:
                        self.counter.record(hit=True)
                        yield np.asarray(json.loads(entry.response),
                                         dtype=np.float64)
                        continue
                    # Cleared since the check (``tagrec cache clear``).
                    vectors = self.inner.embed_batch(texts)
                vectors = np.asarray(vectors)
                self._store(key, json.dumps(vectors.tolist()))
                # Not parsed back: floats round-trip through their repr, so
                # these are the bits a hit reads.
                yield np.asarray(vectors, dtype=np.float64)
