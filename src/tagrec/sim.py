"""Offline oracle rankers and Monte-Carlo recovery experiments.

The tournament protocol's properties (vote conservation, iteration
monotonicity, ordering-strategy direction) are verifiable without any remote
model by swapping in an oracle ranker:

* ``perfect`` ranks the gold tag first whenever it is in the group.
* ``noisy`` starts from perfect, then with probability ``error_rate``
  swaps the top element to a random other position (seeded, reproducible).
* ``lexical`` ranks by token overlap with the generated document.
* ``position-biased`` keeps the presented order, modeling primacy bias.
* ``identity-echo`` also keeps the presented order (a pure echo double).

``recovery_experiment`` synthesizes records with a known gold among the
Top-k candidates -- gold's retrieval rank uniform over 1..top_k, so rank
tie-breaking can't favor it -- runs the full re-ranking, and reports how
often the gold tag is recovered.  Trials derive their own seeds, so results
are reproducible and independent of execution order.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

from .backends import BackendRequest, RankRequest
from .errors import BackendError, integer, number
from .rerank import RerankConfig, derive_seed, rerank_record
from .retrieval import Candidate

__all__ = [
    "OracleKind",
    "OracleSpec",
    "OracleRanker",
    "oracle_rank",
    "recovery_experiment",
    "retrieval_like_weights",
    "synthetic_candidates",
]


class OracleKind(Enum):
    PERFECT = "perfect"
    NOISY = "noisy"
    LEXICAL = "lexical"
    POSITION_BIASED = "position-biased"
    IDENTITY_ECHO = "identity-echo"


@dataclass(frozen=True)
class OracleSpec:
    kind: OracleKind
    error_rate: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        integer("seed", self.seed, 0)
        if not isinstance(self.kind, OracleKind):
            raise ValueError(f"kind must be one of "
                             f"{[e.value for e in OracleKind]}, got {self.kind!r}")
        if self.kind is OracleKind.NOISY:
            if self.error_rate is None:
                raise ValueError("noisy oracle requires error_rate in [0, 1]")
            object.__setattr__(self, "error_rate",  # 1 as 1.0
                               number("error_rate", self.error_rate, 0, 1))
        elif self.error_rate is not None:
            raise ValueError("error_rate is only valid for the noisy oracle")

    @property
    def label(self) -> str:
        if self.kind is OracleKind.NOISY:
            return f"{self.kind.value}:{self.error_rate}"
        return self.kind.value


_REQUEST_JSON = json.JSONEncoder(sort_keys=True, ensure_ascii=False)


@lru_cache(maxsize=256)  # a record's gen_doc and candidates, with room
def _token_set(text: str) -> frozenset[str]:
    return frozenset(text.lower().split())


def _call_rng(spec: OracleSpec, record_id: str, gen_doc: str,
              group: Sequence[tuple[str, str]]) -> np.random.Generator:
    # One RNG per distinct call, keyed by content: identical calls repeat
    # their noise draw exactly, mirroring a temperature-0 model with a cache.
    material = "\x1f".join([str(spec.seed), record_id, gen_doc]
                           + [f"{t}={x}" for t, x in group])
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def oracle_rank(
    spec: OracleSpec,
    gen_doc: str,
    group: Sequence[tuple[str, str]],
    gold_tag_id: str | None = None,
    record_id: str = "",
) -> tuple[int, ...]:
    """Rank one presented group, returning a permutation of 1..len(group)."""
    if not group:
        raise ValueError("group must be non-empty")
    n = len(group)
    identity = tuple(range(1, n + 1))

    if spec.kind in (OracleKind.POSITION_BIASED, OracleKind.IDENTITY_ECHO):
        return identity

    if spec.kind is OracleKind.LEXICAL:
        query_tokens = _token_set(gen_doc)
        overlaps = [len(query_tokens & _token_set(text)) for _, text in group]
        order = sorted(range(n), key=lambda i: (-overlaps[i], i))
        return tuple(i + 1 for i in order)

    # perfect / noisy need to know which member is gold
    if gold_tag_id is None:
        raise ValueError(f"{spec.kind.value} oracle requires gold_tag_id")
    gold_pos = next((i for i, (tag_id, _) in enumerate(group)
                     if tag_id == gold_tag_id), None)
    if gold_pos is None:
        perm = list(identity)
    else:
        perm = [gold_pos + 1] + [i for i in identity if i != gold_pos + 1]

    if spec.kind is OracleKind.NOISY and n > 1:
        rng = _call_rng(spec, record_id, gen_doc, group)
        if rng.random() < spec.error_rate:
            j = int(rng.integers(1, n))  # a position other than the top
            perm[0], perm[j] = perm[j], perm[0]
    return tuple(perm)


class OracleRanker:
    """Ranker backend backed by an oracle; replies as ``[a] > [b] > ...``."""

    def __init__(self, spec: OracleSpec):
        self.spec = spec
        self.backend_id = f"oracle:{spec.label}"

    def request_of(self, request: RankRequest) -> BackendRequest:
        # Oracles see gold and group structure, so those join the cache key
        # (unlike remote rankers, whose replies depend on the prompt alone),
        # and so does the seed of the noisy oracle's draws.
        payload = _REQUEST_JSON.encode(
            {"prompt": request.prompt, "record_id": request.record_id,
             "items": list(request.items), "gold": request.gold_tag_id})
        params = ((("seed", str(self.spec.seed)),)
                  if self.spec.kind is OracleKind.NOISY else ())
        return BackendRequest(kind="rank", payload=payload,
                              model_id=self.backend_id, params=params)

    def rank_listwise(self, request: RankRequest) -> str:
        if not request.items:
            raise BackendError(
                "oracle ranker needs the structured group items on the request"
            )
        perm = oracle_rank(self.spec, request.gen_doc, request.items,
                           gold_tag_id=request.gold_tag_id,
                           record_id=request.record_id)
        return " > ".join(f"[{i}]" for i in perm)


def synthetic_candidates(top_k: int, gold_rank: int) -> tuple[list[Candidate], dict[str, str], str]:
    """A synthetic Top-k list with gold at the given retrieval rank.

    Returns (candidates, tag texts, gold_tag_id).  Scores decrease linearly
    with rank; texts are distinct so lexical ranking stays well-defined.
    """
    integer("gold_rank", gold_rank, 1, top_k)
    candidates = [
        Candidate(tag_id=f"syn{i:03d}", score=1.0 - (i - 1) / top_k,
                  retrieval_rank=i)
        for i in range(1, top_k + 1)
    ]
    texts = {c.tag_id: f"synthetic tag document {c.tag_id}" for c in candidates}
    return candidates, texts, candidates[gold_rank - 1].tag_id


def retrieval_like_weights(top_k: int) -> list[float]:
    """Geometric gold-rank prior resembling a working retriever.

    Real retrieval concentrates the gold tag at the best ranks; the uniform
    prior deliberately does not.  The skew is what lets presentation-order
    effects show up: with a uniform gold rank, intra-group ordering carries
    no information about gold by symmetry, and ordering strategies cannot
    separate.
    """
    return [0.5 ** (r - 1) for r in range(1, top_k + 1)]


def recovery_experiment(
    n_trials: int,
    config: RerankConfig,
    spec: OracleSpec,
    gold_rank_weights: Sequence[float] | None = None,
) -> float:
    """Fraction of synthetic trials whose gold tag the tournament recovers.

    By default gold's retrieval rank is uniform over 1..top_k, so rank
    tie-breaking cannot favor it.  ``gold_rank_weights`` (one non-negative
    weight per rank) skews the prior, e.g. :func:`retrieval_like_weights`
    for ordering-strategy experiments.
    """
    integer("n_trials", n_trials, 1)
    probs = None
    if gold_rank_weights is not None:
        w = np.asarray(gold_rank_weights, dtype=np.float64)
        if w.shape != (config.top_k,) or np.any(w < 0) or w.sum() == 0:
            raise ValueError("gold_rank_weights needs one non-negative "
                             "weight per rank, not all zero")
        probs = w / w.sum()
    ranker = OracleRanker(spec)
    ranks = np.arange(1, config.top_k + 1)
    hits = 0
    for trial in range(n_trials):
        rng = np.random.default_rng(derive_seed(config.seed, spec.seed,
                                                "gold-rank", trial))
        if probs is None:
            gold_rank = int(rng.integers(1, config.top_k + 1))
        else:
            gold_rank = int(rng.choice(ranks, p=probs))
        candidates, texts, gold = synthetic_candidates(config.top_k, gold_rank)
        trial_cfg = replace(config, seed=derive_seed(config.seed, "trial", trial))
        gen_doc = f"synthetic query for trial {trial}"
        predicted, _ = rerank_record(gen_doc, candidates, texts, trial_cfg,
                                     ranker, record_id=f"trial-{trial}",
                                     gold_tag_id=gold)
        if predicted == gold:
            hits += 1
    return hits / n_trials
