"""Output checks that recompute the program's results from the inputs alone.

Nothing here imports ``tagrec``.  Each check compares what the program wrote
(predictions, traces, evaluation reports) with a computation made apart from
it, or with a property the method must have:

* Top-k equals a brute-force float64 cosine scan over the benchmark's own
  sha256 hash-bag embedding, ties broken by corpus order.
* Every round partitions the candidates once, each group's winner is the
  lexical choice (most tokens shared with the generated doc, ties broken by
  presented position), the votes sum to ``T * ceil(k/g)`` and the prediction
  is the most-voted candidate, ties broken by retrieval rank.
* Hits@1 and macro P/R/F1 equal a one-pass count over the predictions.

The stub service of the ``remote`` workload answers with the same hash-bag
vectors and lexical rankings, so one set of checks serves every workload.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

# Dimension of the hash-bag embedding in every workload, served by the stub too.
EMBED_DIM = 256
# Program scores come from float32 index vectors, so two candidates whose
# float64 scores differ by less than this may legitimately swap places.
SCORE_TOL = 1e-6
# Hash-bag cosines that are equal in exact arithmetic agree to about 1e-16 in
# float64; among the leading scores of the benchmark's inputs, distinct ones
# differ by at least 1e-4.
TIE_TOL = 1e-12
METRIC_TOL = 1e-12


class CheckError(Exception):
    """An output of the program disagrees with the benchmark's own result."""


def tokens(text: str) -> list[str]:
    return text.lower().split()


def hash_bucket(token: str, dim: int) -> int:
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % dim


def hash_bag_vector(text: str, dim: int) -> list[float]:
    """L2-normalised bucket counts of the text's hashed tokens."""
    counts = [0.0] * dim
    toks = tokens(text)
    if not toks:
        raise ValueError("cannot embed a whitespace-only text")
    for token in toks:
        counts[hash_bucket(token, dim)] += 1.0
    norm = math.sqrt(sum(c * c for c in counts))
    return [c / norm for c in counts]


def hash_bag_matrix(texts: Sequence[str], dim: int) -> np.ndarray:
    return np.array([hash_bag_vector(t, dim) for t in texts], dtype=np.float64)


def lexical_order(gen_doc: str, texts: Sequence[str]) -> list[int]:
    """0-based presented positions, most shared tokens first, ties by position."""
    query = set(tokens(gen_doc))
    overlaps = [len(query & set(tokens(t))) for t in texts]
    return sorted(range(len(texts)), key=lambda i: (-overlaps[i], i))


def ranking_reply(order: Sequence[int]) -> str:
    return " > ".join(f"[{i + 1}]" for i in order)


# --------------------------------------------------------------------------
# Retrieval


def check_top_k(record_id: str, candidates: Sequence[Mapping], scores: np.ndarray,
                position_of: Mapping[str, int], k: int,
                full_ranking: Callable[[], Sequence[tuple[str, float]]]) -> None:
    """The program's candidate list against a brute-force scan of ``scores``.

    ``scores`` holds the float64 cosine of the record's query with every
    corpus entry, in corpus order.  Position i of the program's list must
    carry the brute-force i-th best score (within ``SCORE_TOL``), which pins
    the set and the order up to float32-level near-ties.

    Ties must go to the earlier corpus entry.  Among the program's equal
    reported scores that is checked directly.  Two entries whose brute-force
    scores are equal (within ``TIE_TOL``) may still get program scores a few
    ulps apart, since the index rounds to float32; so where the list leaves
    out a tied entry that comes earlier in corpus order than a listed one,
    ``full_ranking`` (the program's ranking of the whole corpus, as
    ``(tag_id, score)``) must begin with the list and must order its own
    equal scores by corpus position down to that entry.
    """
    if len(candidates) != k:
        raise CheckError(f"{record_id}: {len(candidates)} candidates, expected {k}")
    expected = np.argsort(-scores, kind="stable")[:k]
    seen: set[str] = set()
    for i, cand in enumerate(candidates):
        tag_id = cand["tag_id"]
        if tag_id in seen:
            raise CheckError(f"{record_id}: candidate {tag_id} listed twice")
        seen.add(tag_id)
        if cand["retrieval_rank"] != i + 1:
            raise CheckError(f"{record_id}: retrieval ranks are not 1..{k}")
        pos = position_of[tag_id]
        want = scores[int(expected[i])]
        if abs(scores[pos] - want) > SCORE_TOL:
            raise CheckError(
                f"{record_id}: rank {i + 1} is {tag_id} (score {scores[pos]:.9f}),"
                f" brute force has {want:.9f}")
        if abs(cand["score"] - scores[pos]) > 10 * SCORE_TOL:
            raise CheckError(f"{record_id}: {tag_id} reported score "
                             f"{cand['score']!r}, recomputed {scores[pos]!r}")
    listed = [(c["tag_id"], c["score"]) for c in candidates]
    _check_tie_order(record_id, listed, position_of)
    listed_pos = np.array([position_of[t] for t, _ in listed])
    outside = np.ones(len(scores), dtype=bool)
    outside[listed_pos] = False
    passed_over = [
        int(b) for pos in listed_pos
        for b in np.flatnonzero(outside[:pos]
                                & (np.abs(scores[:pos] - scores[pos]) <= TIE_TOL))]
    if not passed_over:
        return
    ranking = list(full_ranking())
    if ranking[:k] != listed:
        raise CheckError(f"{record_id}: the Top-{k} is not the head of the "
                         "program's full ranking")
    at = {position_of[tag_id]: i for i, (tag_id, _) in enumerate(ranking)}
    _check_tie_order(record_id, ranking[:max(at[b] for b in passed_over) + 1],
                     position_of)


def _check_tie_order(record_id: str, ranked: Sequence[tuple[str, float]],
                     position_of: Mapping[str, int]) -> None:
    """Scores non-increasing; equal scores in ascending corpus position."""
    for (a, sa), (b, sb) in zip(ranked, ranked[1:]):
        if sb > sa:
            raise CheckError(f"{record_id}: score rises from {a} to {b}")
        if sb == sa and position_of[b] < position_of[a]:
            raise CheckError(f"{record_id}: {a} and {b} tie at {sa!r} but are not "
                             "in corpus order")


# --------------------------------------------------------------------------
# Tournament re-ranking


def expected_prediction(votes: Mapping[str, int], rank_of: Mapping[str, int]) -> str:
    return min(votes, key=lambda t: (-votes[t], rank_of[t]))


def check_trace(trace: Mapping, prediction: Mapping, gen_doc: str,
                gold_tag_id: str | None, texts: Mapping[str, str],
                k: int, g: int, rounds: int) -> int:
    """Every round, winner, reply and vote of one record's trace.

    Returns the number of ranker replies the trace holds.
    """
    rid = trace["record_id"]
    cand_ids = [c["tag_id"] for c in trace["candidates"]]
    rank_of = {c["tag_id"]: c["retrieval_rank"] for c in trace["candidates"]}
    n_groups = math.ceil(k / g)
    if len(trace["iterations"]) != rounds or trace["total_rounds"] != rounds:
        raise CheckError(f"{rid}: {len(trace['iterations'])} rounds, expected {rounds}")
    if trace["fallback_events"]:
        raise CheckError(f"{rid}: unexpected fallback {trace['fallback_events'][0]}")
    tally: Counter[str] = Counter()
    replies = 0
    for t, it in enumerate(trace["iterations"], start=1):
        if it["iteration"] != t:
            raise CheckError(f"{rid}: round {t} is numbered {it['iteration']}")
        drawn, presented = it["partition"], it["presented"]
        if len(drawn) != n_groups or len(presented) != n_groups:
            raise CheckError(f"{rid} round {t}: {len(drawn)} groups, expected {n_groups}")
        if sorted(x for grp in drawn for x in grp) != sorted(cand_ids):
            raise CheckError(f"{rid} round {t}: partition does not cover the "
                             "candidates exactly once")
        for gi, (grp, shown) in enumerate(zip(drawn, presented)):
            want_len = g if gi < n_groups - 1 else k - g * (n_groups - 1)
            if len(grp) != want_len:
                raise CheckError(f"{rid} round {t}: group {gi} has {len(grp)} members")
            if list(shown) != sorted(grp, key=lambda x: rank_of[x]):
                raise CheckError(f"{rid} round {t}: group {gi} not presented "
                                 "in retrieval order")
        if len(it["winners"]) != n_groups or len(it["replies"]) != n_groups:
            raise CheckError(f"{rid} round {t}: one winner and reply per group expected")
        for gi, shown in enumerate(presented):
            order = lexical_order(gen_doc, [texts[x] for x in shown])
            reply = it["replies"][gi]
            if len(shown) == 1:
                if reply is not None:
                    raise CheckError(f"{rid} round {t}: singleton group was sent")
            else:
                replies += 1
                if reply != ranking_reply(order):
                    raise CheckError(f"{rid} round {t} group {gi}: reply {reply!r}, "
                                     f"expected {ranking_reply(order)!r}")
            if it["winners"][gi] != shown[order[0]]:
                raise CheckError(f"{rid} round {t} group {gi}: winner "
                                 f"{it['winners'][gi]}, expected {shown[order[0]]}")
        tally.update(it["winners"])
    votes = dict(trace["votes"])
    if sum(votes.values()) != rounds * n_groups:
        raise CheckError(f"{rid}: {sum(votes.values())} votes, expected "
                         f"{rounds * n_groups}")
    if votes != dict(tally):
        raise CheckError(f"{rid}: votes {votes} differ from the winners' tally")
    predicted = expected_prediction(tally, rank_of)
    if trace["predicted_tag_id"] != predicted:
        raise CheckError(f"{rid}: trace predicts {trace['predicted_tag_id']}, "
                         f"expected {predicted}")
    if prediction["record_id"] != rid or prediction["predicted_tag_id"] != predicted:
        raise CheckError(f"{rid}: prediction line says "
                         f"{prediction['predicted_tag_id']}, expected {predicted}")
    if prediction["votes"] != votes:
        raise CheckError(f"{rid}: prediction votes differ from the trace")
    if prediction["gold_tag_id"] != gold_tag_id:
        raise CheckError(f"{rid}: gold tag {prediction['gold_tag_id']}, "
                         f"dataset has {gold_tag_id}")
    if prediction["gold_in_top_k"] != (gold_tag_id in rank_of):
        raise CheckError(f"{rid}: gold_in_top_k is wrong")
    return replies


def prefix_prediction(trace: Mapping, rounds: int) -> str:
    """The prediction a ``rounds``-round run makes, from a longer run's trace."""
    rank_of = {c["tag_id"]: c["retrieval_rank"] for c in trace["candidates"]}
    tally: Counter[str] = Counter()
    for it in trace["iterations"][:rounds]:
        tally.update(it["winners"])
    return expected_prediction(tally, rank_of)


# --------------------------------------------------------------------------
# Evaluation


def one_pass_metrics(pairs: Iterable[tuple[str, str]]) -> dict:
    """Hits@1 and macro P/R/F1 over (gold, predicted) pairs, in one pass."""
    tp: Counter[str] = Counter()
    fp: Counter[str] = Counter()
    fn: Counter[str] = Counter()
    golds: set[str] = set()
    n = 0
    for gold, pred in pairs:
        n += 1
        golds.add(gold)
        if gold == pred:
            tp[gold] += 1
        else:
            fn[gold] += 1
            fp[pred] += 1
    if n == 0:
        raise CheckError("no predictions to evaluate")
    classes = sorted(golds)
    prec = [tp[c] / (tp[c] + fp[c]) if tp[c] + fp[c] else 0.0 for c in classes]
    rec = [tp[c] / (tp[c] + fn[c]) if tp[c] + fn[c] else 0.0 for c in classes]
    f1 = [2 * tp[c] / (2 * tp[c] + fp[c] + fn[c]) if tp[c] + fp[c] + fn[c] else 0.0
          for c in classes]
    return {
        "hits_at_1": sum(tp.values()) / n,
        "macro_p": sum(prec) / len(classes),
        "macro_r": sum(rec) / len(classes),
        "macro_f1": sum(f1) / len(classes),
        "n_records": n,
        "n_classes": len(classes),
    }


def check_report(label: str, report: Mapping, expected: Mapping) -> None:
    for key, want in expected.items():
        got = report[key]
        if not math.isclose(got, want, rel_tol=0.0, abs_tol=METRIC_TOL):
            raise CheckError(f"{label}: {key} is {got!r}, one-pass count gives {want!r}")
