"""Hot-path functions against reference copies of their plain implementations.

Each reference below is the straightforward version the optimised code
replaced, kept here verbatim in behaviour: the optimised version must give
the same bytes (prompts, permutations) or the same bits (embeddings).
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tagrec.backends import HashEmbedder
from tagrec.corpus import TagDocument
from tagrec.errors import BackendError, UnparseableReplyError
from tagrec.prompting import build_rerank_prompt, default_rerank_template, \
    parse_ranking_reply


# --------------------------------------------------------------------------
# References


def reference_embed_batch(dim: int, texts: list[str]) -> np.ndarray:
    out = np.zeros((len(texts), dim), dtype=np.float64)
    for row, text in enumerate(texts):
        tokens = text.lower().split()
        if not tokens:
            raise BackendError("cannot embed a whitespace-only text")
        for token in tokens:
            digest = hashlib.sha256(token.encode("utf-8")).digest()
            out[row, int.from_bytes(digest[:8], "big") % dim] += 1.0
        out[row] /= np.linalg.norm(out[row])
    return out


_PLACEHOLDER_RE = re.compile(r"\{\{(n|gen_doc|passages)\}\}")


def reference_prompt(gen_doc: str, group, template: str) -> str:
    passages = "\n".join(f"[{i}] {doc.text}" for i, doc in enumerate(group, start=1))
    values = {"n": str(len(group)), "gen_doc": gen_doc, "passages": passages}
    return _PLACEHOLDER_RE.sub(lambda m: values[m.group(1)], template)


def reference_parse(raw: str, group_len: int) -> tuple[int, ...]:
    seen: set[int] = set()
    order: list[int] = []
    for match in re.finditer(r"\[(\d+)\]", raw):
        ident = int(match.group(1))
        if not 1 <= ident <= group_len:
            continue
        if ident in seen:
            continue
        seen.add(ident)
        order.append(ident)
    if not order:
        raise UnparseableReplyError("no identifier")
    for ident in range(1, group_len + 1):
        if ident not in seen:
            order.append(ident)
    return tuple(order)


# --------------------------------------------------------------------------
# Hash embedder: bit-identical vectors

TOKENS = st.one_of(
    st.sampled_from(["Revenue", "revenue", "REVENUE", "tax", "Tax", "é", "É",
                     "ß", "ǅ", "İ", "1,500", "[1]", "{{n}}"]),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6),
)
SEPARATORS = st.sampled_from([" ", "\t", "  ", "\n", " \t ", "　"])


@st.composite
def texts(draw):
    tokens = draw(st.lists(TOKENS, min_size=1, max_size=30))
    # Repeat some tokens so that a text and a batch hold duplicates.
    tokens += draw(st.lists(st.sampled_from(tokens), max_size=10))
    out = tokens[0]
    for token in tokens[1:]:
        out += draw(SEPARATORS) + token
    return out


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(min_value=1, max_value=300),
       batch=st.lists(texts(), min_size=1, max_size=6))
def test_hash_embedder_is_bit_identical_to_the_token_loop(dim, batch):
    batch = [t for t in batch if t.split()] or ["fallback text"]
    batch = batch + batch[:2]  # the same texts twice in one batch
    got = HashEmbedder(dim=dim).embed_batch(batch)
    want = reference_embed_batch(dim, batch)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("batch", [["  \t "], ["fine", "\n"], ["", "fine"]])
def test_hash_embedder_rejects_a_blank_text_anywhere_in_the_batch(batch):
    with pytest.raises(BackendError, match="whitespace-only"):
        HashEmbedder(dim=8).embed_batch(batch)


# --------------------------------------------------------------------------
# Prompt rendering: the same bytes as one re.sub pass

PIECES = st.sampled_from(["{{n}}", "{{gen_doc}}", "{{passages}}", "{{ n }}",
                          "{{N}}", "{{gen_doc}", "{", "}}", "[1]", "\n",
                          "Rank:", "passages", " "])
FREE_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)


@settings(max_examples=300, deadline=None)
@given(template=st.lists(st.one_of(PIECES, FREE_TEXT), max_size=12).map("".join),
       gen_doc=st.lists(st.one_of(PIECES, FREE_TEXT), min_size=1,
                        max_size=5).map("".join).filter(bool),
       tag_texts=st.lists(st.lists(st.one_of(PIECES, FREE_TEXT), min_size=1,
                                   max_size=4).map("".join)
                          .filter(lambda t: t.strip()),
                          min_size=1, max_size=6))
def test_prompt_matches_one_substitution_pass(template, gen_doc, tag_texts):
    group = [TagDocument(f"T{i}", text) for i, text in enumerate(tag_texts)]
    assert build_rerank_prompt(gen_doc, group, template) == \
        reference_prompt(gen_doc, group, template)
    default = default_rerank_template()
    assert build_rerank_prompt(gen_doc, group) == \
        reference_prompt(gen_doc, group, default)


def test_prompt_with_repeated_adjacent_and_missing_placeholders():
    group = [TagDocument("A", "alpha {{n}}"), TagDocument("B", "{{passages}}")]
    for template in ("", "no placeholders", "{{n}}{{n}}{{gen_doc}}{{gen_doc}}",
                     "{{passages}}{{passages}}", "{{{{n}}}}", "{{n}}}}{{"):
        assert build_rerank_prompt("doc {{gen_doc}}", group, template) == \
            reference_prompt("doc {{gen_doc}}", group, template)


# --------------------------------------------------------------------------
# Reply parsing: the same permutation as the finditer loop

REPLY_PIECES = st.one_of(
    st.integers(min_value=0, max_value=40).map(lambda i: f"[{i}]"),
    st.integers(min_value=0, max_value=12).map(lambda i: f"[{i:03d}]"),
    st.sampled_from([" > ", ">", "[", "]", "[]", "[-1]", "[1.5]", "[٣]",
                     "[٠٢]", "[２]", "the best is ", "\n"]),
    st.text(max_size=8),
)


@settings(max_examples=500, deadline=None)
@given(raw=st.lists(REPLY_PIECES, max_size=14).map("".join),
       group_len=st.integers(min_value=1, max_value=120))
def test_parse_matches_the_finditer_loop(raw, group_len):
    try:
        want = reference_parse(raw, group_len)
    except UnparseableReplyError:
        want = None
    try:
        got = parse_ranking_reply(raw, group_len).order
    except UnparseableReplyError:
        got = None
    assert got == want
