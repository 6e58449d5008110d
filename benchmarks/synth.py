"""Seeded synthetic taxonomies and datasets.

The taxonomy is built from families of near-synonym tags: every member of a
family shares most of a core of tokens and adds a few of its own, because
highly similar tags are the hard case of XBRL tagging.  Gold tags are drawn
from a Zipf law over a random ranking of the tags, so a few tags recur and
most appear once, as in real filings; macro metrics and their cost follow.

A record's generated tag document is a perturbed copy of its gold tag's
text.  Most keep a random 70% of the gold tokens plus a little noise.  Some
are drawn towards a sibling tag (they keep the family core and take over
part of the sibling's own tokens), and a few keep only a third of the gold
tokens among much noise.  So the gold tag is usually, but not always, among
the Top-k, and the re-ranker has real choices to make.

Everything is a function of the seed: the same seed gives byte-identical
files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"
N_COMMON = 40        # filler words shared across the whole taxonomy
CORE_TOKENS = 10     # tokens a family's members mostly share
OWN_TOKENS = 7       # tokens only one member has
FILLER_TOKENS = 3
MAX_FAMILY = 8
ZIPF_EXPONENT = 1.1
P_CLEAN = 0.65       # shares of the three kinds of generated document
P_SIBLING = 0.25


@dataclass(frozen=True)
class Tag:
    tag_id: str
    family: int
    core: tuple[str, ...]
    own: tuple[str, ...]
    text: str


@dataclass(frozen=True)
class Inputs:
    tags: tuple[Tag, ...]
    records: tuple[dict, ...]


def _vocabulary(rng: np.random.Generator, size: int) -> list[str]:
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    words: dict[str, None] = {}
    while len(words) < size:
        n = int(rng.integers(2, 4))
        words["".join(syllables[int(i)] for i in rng.integers(0, len(syllables), n))] = None
    return list(words)


def _pick(rng: np.random.Generator, pool: list[str], n: int) -> list[str]:
    return [pool[int(i)] for i in rng.choice(len(pool), size=n, replace=False)]


def make_taxonomy(rng: np.random.Generator, n_tags: int, vocab: list[str]) -> list[Tag]:
    common, words = vocab[:N_COMMON], vocab[N_COMMON:]
    tags: list[Tag] = []
    family = 0
    while len(tags) < n_tags:
        size = min(int(rng.integers(1, MAX_FAMILY + 1)), n_tags - len(tags))
        core = _pick(rng, words, CORE_TOKENS)
        for member in range(size):
            kept = [w for w in core if rng.random() >= 0.2]
            own = _pick(rng, words, OWN_TOKENS)
            toks = kept + own + _pick(rng, common, FILLER_TOKENS)
            rng.shuffle(toks)
            tags.append(Tag(tag_id=f"bx:F{family:05d}M{member}", family=family,
                            core=tuple(kept), own=tuple(own), text=" ".join(toks)))
        family += 1
    return tags


def _gen_doc(rng: np.random.Generator, gold: Tag, siblings: list[Tag],
             vocab: list[str]) -> str:
    u = rng.random()
    if u < P_CLEAN or (u < P_CLEAN + P_SIBLING and not siblings):
        toks = [w for w in gold.text.split() if rng.random() < 0.7]
        toks += _pick(rng, vocab, 2)
    elif u < P_CLEAN + P_SIBLING:
        sib = siblings[int(rng.integers(0, len(siblings)))]
        toks = [w for w in gold.core if rng.random() < 0.7]
        toks += [w for w in gold.own if rng.random() < 0.4]
        toks += [w for w in sib.own if rng.random() < 0.6]
        toks += _pick(rng, vocab, 2)
    else:
        toks = [w for w in gold.text.split() if rng.random() < 0.33]
        toks += _pick(rng, vocab, 12)
    if not toks:
        toks = [gold.own[0]]
    rng.shuffle(toks)
    return " ".join(toks)


def make_inputs(seed: int, n_tags: int, n_records: int) -> Inputs:
    rng = np.random.default_rng([seed, n_tags, n_records])
    vocab = _vocabulary(rng, 5000)
    tags = make_taxonomy(rng, n_tags, vocab)
    by_family: dict[int, list[Tag]] = {}
    for tag in tags:
        by_family.setdefault(tag.family, []).append(tag)
    popularity = rng.permutation(n_tags)
    weights = 1.0 / np.arange(1, n_tags + 1) ** ZIPF_EXPONENT
    golds = popularity[rng.choice(n_tags, size=n_records, p=weights / weights.sum())]
    records = []
    for i, pos in enumerate(golds):
        gold = tags[int(pos)]
        siblings = [t for t in by_family[gold.family] if t is not gold]
        numeral = f"{int(rng.integers(1, 1000))},{int(rng.integers(0, 1000)):03d}"
        records.append({
            "record_id": f"r{i:05d}",
            "report_text": (f"For the fiscal year the company reported {numeral} "
                            f"thousand under {' '.join(gold.core[:3])}."),
            "numeral": numeral,
            "question": f"Which concept does the value {numeral} report?",
            "gold_tag_id": gold.tag_id,
            "gen_tag_doc": _gen_doc(rng, gold, siblings, vocab),
        })
    return Inputs(tags=tuple(tags), records=tuple(records))


def write_jsonl(path: Path, rows) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def write_inputs(inputs: Inputs, taxonomy_path: Path, dataset_path: Path) -> None:
    write_jsonl(taxonomy_path, ({"tag_id": t.tag_id, "text": t.text} for t in inputs.tags))
    write_jsonl(dataset_path, inputs.records)
