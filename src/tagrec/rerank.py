"""Multi-round tournament re-ranking of retrieved candidates.

One record's Top-k candidates are re-ranked over several rounds.  Each round
draws a fresh random partition of the candidates into groups (default: 10
candidates into two groups of 5), presents each group to the listwise ranker
alongside the generated tag document, and takes each group's top-ranked
member as that group's winner.  Winners accumulate votes across rounds; the
candidate with the most votes is the prediction, ties broken by best
retrieval rank.

Two vote semantics are supported.  ``per-group`` (the default) counts every
group winner in every round, so a full run distributes
``iterations * ceil(top_k / group_size)`` votes.  ``per-round`` counts a
single champion per round -- the group winner with the best retrieval rank --
distributing exactly ``iterations`` votes.  With one group per round the two
coincide.

Everything is driven by one record-scoped seed: round ``t`` partitions with
an RNG keyed by ``(seed, t)``, so traces replay bit-identically and rounds
are prefix-stable (the first 4 rounds of an 8-round run equal a 4-round run).

:func:`rerank_record` plans every round's partition up front, plays each
group through :func:`rank_group` in plan order on the caller's thread, with
one document per candidate, and tallies votes and trace once after the last
call (tournament ranking as in TourRank, Chen et al., 2024).
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .backends import RankerBackend, RankRequest
from .corpus import TagDocument
from .errors import UnparseableReplyError, integer
from .prompting import build_rerank_prompt, parse_ranking_reply
from .retrieval import Candidate

__all__ = [
    "Ordering",
    "VoteMode",
    "RerankConfig",
    "GroupAssignment",
    "GroupOutcome",
    "VoteTally",
    "RerankTrace",
    "derive_seed",
    "partition_into_groups",
    "rank_group",
    "rerank_record",
]


class Ordering(Enum):
    """Intra-group presentation order."""

    ORDER_PRESERVING = "order-preserving"  # sort each group by retrieval rank
    ORDER_SHUFFLED = "order-shuffled"      # keep the random draw order


class VoteMode(Enum):
    """How many votes each round casts."""

    PER_GROUP = "per-group"  # every group winner votes each round
    PER_ROUND = "per-round"  # one champion per round votes


@dataclass(frozen=True)
class RerankConfig:
    group_size: int = 5
    iterations: int = 8
    ordering: Ordering = Ordering.ORDER_PRESERVING
    seed: int = 0
    top_k: int = 10
    vote_mode: VoteMode = VoteMode.PER_GROUP

    def __post_init__(self) -> None:
        for name in ("group_size", "iterations", "top_k"):
            integer(name, getattr(self, name), 1)
        integer("seed", self.seed, 0)
        if self.group_size > self.top_k:
            raise ValueError("group_size must not exceed top_k")
        for name, kind in (("ordering", Ordering), ("vote_mode", VoteMode)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ValueError(f"{name} must be one of "
                                 f"{[e.value for e in kind]}, got {value!r}")


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from arbitrary labels (record ids, trial numbers)."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class GroupAssignment:
    """One round's partition of the candidates.

    ``groups`` is the presented order (after the ordering policy);
    ``drawn`` keeps the raw random draw for the trace.
    """

    groups: tuple[tuple[Candidate, ...], ...]
    drawn: tuple[tuple[Candidate, ...], ...]


@dataclass(frozen=True)
class GroupOutcome:
    """Result of ranking one group: the winner plus trace material."""

    winner: Candidate
    raw_reply: str | None  # None when no backend call was needed
    fallback: bool         # True when the reply was unusable


@dataclass(frozen=True)
class VoteTally:
    counts: dict[str, int]
    total_rounds: int


@dataclass(frozen=True)
class RerankTrace:
    """Complete, replayable audit record of one record's re-ranking."""

    record_id: str
    candidates: tuple[Candidate, ...]
    iterations: tuple[dict, ...]
    tally: VoteTally
    predicted_tag_id: str
    fallback_events: tuple[dict, ...]

    def to_dict(self) -> dict:
        return {
            "record_id": self.record_id,
            "candidates": [
                {"tag_id": c.tag_id, "score": c.score,
                 "retrieval_rank": c.retrieval_rank}
                for c in self.candidates
            ],
            "iterations": list(self.iterations),
            "votes": dict(sorted(self.tally.counts.items())),
            "total_rounds": self.tally.total_rounds,
            "predicted_tag_id": self.predicted_tag_id,
            "fallback_events": list(self.fallback_events),
        }


def partition_into_groups(
    candidates: Sequence[Candidate],
    group_size: int,
    ordering: Ordering,
    rng: np.random.Generator,
) -> GroupAssignment:
    """Randomly split candidates into ceil(n/group_size) disjoint groups.

    All groups have ``group_size`` members except possibly the last.  Under
    ``ORDER_PRESERVING`` each group is then sorted by retrieval rank
    ascending; under ``ORDER_SHUFFLED`` the random draw order stands.
    """
    integer("group_size", group_size, 1)
    if not candidates:
        raise ValueError("candidates must be non-empty")
    shuffled = [candidates[i] for i in rng.permutation(len(candidates)).tolist()]
    drawn: list[tuple[Candidate, ...]] = []
    groups: list[tuple[Candidate, ...]] = []
    for start in range(0, len(shuffled), group_size):
        chunk = tuple(shuffled[start:start + group_size])
        drawn.append(chunk)
        if ordering is Ordering.ORDER_PRESERVING:
            chunk = tuple(sorted(chunk, key=lambda c: c.retrieval_rank))
        groups.append(chunk)
    return GroupAssignment(groups=tuple(groups), drawn=tuple(drawn))


def rank_group(
    gen_doc: str,
    group: Sequence[Candidate],
    ranker: RankerBackend,
    texts: Mapping[str, str],
    record_id: str = "",
    gold_tag_id: str | None = None,
    docs: dict[str, TagDocument] | None = None,
) -> GroupOutcome:
    """Obtain one group's winner from the listwise ranker.

    A singleton group wins by default with no backend call.  An unparseable
    reply falls back to the first presented member (the retrieval-order
    prior) and flags the outcome.  ``docs`` keeps members' documents across
    calls: with one dict per record, each is built and validated once.
    """
    if not group:
        raise ValueError("group must be non-empty")
    if len(group) == 1:
        return GroupOutcome(winner=group[0], raw_reply=None, fallback=False)
    docs = {} if docs is None else docs
    for c in group:
        if c.tag_id not in docs:
            docs[c.tag_id] = TagDocument(tag_id=c.tag_id, text=texts[c.tag_id])
    members = [docs[c.tag_id] for c in group]
    prompt = build_rerank_prompt(gen_doc, members)
    request = RankRequest(
        prompt=prompt,
        gen_doc=gen_doc,
        items=tuple((d.tag_id, d.text) for d in members),
        record_id=record_id,
        gold_tag_id=gold_tag_id,
    )
    raw = ranker.rank_listwise(request)
    try:
        reply = parse_ranking_reply(raw, len(group))
    except UnparseableReplyError:
        return GroupOutcome(winner=group[0], raw_reply=raw, fallback=True)
    return GroupOutcome(winner=group[reply.order[0] - 1], raw_reply=raw,
                        fallback=False)


def rerank_record(
    gen_doc: str,
    candidates: Sequence[Candidate],
    texts: Mapping[str, str],
    config: RerankConfig,
    ranker: RankerBackend,
    record_id: str = "",
    gold_tag_id: str | None = None,
) -> tuple[str, RerankTrace]:
    """Run the full multi-round tournament for one record.

    Each round repartitions with fresh randomness keyed by
    ``(config.seed, round)``, ranks every group, and records the winners.
    Votes are tallied per ``config.vote_mode`` and the final tag selected.
    The returned trace replays bit-identically for the same inputs.
    """
    if not gen_doc:
        raise ValueError("gen_doc must be non-empty")
    if len(candidates) != config.top_k:
        raise ValueError(
            f"expected {config.top_k} candidates, got {len(candidates)}"
        )
    # Plan: every round's partition, drawn up front.
    rounds = tuple(partition_into_groups(candidates, config.group_size, config.ordering,
                                         np.random.default_rng([config.seed, t]))
                   for t in range(1, config.iterations + 1))
    # Play: each planned group in plan order, on this thread.
    docs: dict[str, TagDocument] = {}
    outcomes = [[rank_group(gen_doc, group, ranker, texts, record_id=record_id,
                            gold_tag_id=gold_tag_id, docs=docs)
                 for group in assignment.groups]
                for assignment in rounds]
    return _tally(candidates, rounds, outcomes, config.vote_mode, record_id)


def _tally(candidates: Sequence[Candidate], rounds: Sequence[GroupAssignment],
           outcomes: list[list[GroupOutcome]], vote_mode: VoteMode,
           record_id: str) -> tuple[str, RerankTrace]:
    """The prediction (most votes, then best retrieval rank) and trace."""
    votes: Counter[str] = Counter()
    iteration_traces: list[dict] = []
    fallback_events: list[dict] = []
    for t, (assignment, played) in enumerate(zip(rounds, outcomes), start=1):
        winners = [o.winner for o in played]
        if vote_mode is VoteMode.PER_ROUND:
            votes[min(winners, key=lambda c: c.retrieval_rank).tag_id] += 1
        else:
            votes.update(c.tag_id for c in winners)
        fallback_events.extend(
            {"iteration": t, "group": g_idx, "reason": "unparseable-reply"}
            for g_idx, o in enumerate(played) if o.fallback)
        iteration_traces.append({
            "iteration": t,
            "partition": [[c.tag_id for c in g] for g in assignment.drawn],
            "presented": [[c.tag_id for c in g] for g in assignment.groups],
            "replies": [o.raw_reply for o in played],
            "winners": [c.tag_id for c in winners],
        })
    rank_of = {c.tag_id: c.retrieval_rank for c in candidates}
    predicted = min(votes, key=lambda tag_id: (-votes[tag_id], rank_of[tag_id]))
    trace = RerankTrace(
        record_id=record_id,
        candidates=tuple(candidates),
        iterations=tuple(iteration_traces),
        tally=VoteTally(counts=dict(votes), total_rounds=len(rounds)),
        predicted_tag_id=predicted,
        fallback_events=tuple(fallback_events),
    )
    return predicted, trace
