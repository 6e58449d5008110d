"""Generation-input assembly and the listwise re-ranking text exchange.

Two text protocols live here.  The generation input is the newline join of
the instruction prompt, the report text, and the numeral question, in that
order, with no other mutation.  The re-ranking exchange renders a fixed
prompt that presents the generated tag document plus a numbered group of
candidate documents, and parses the backend's permutation reply of the form
``[a] > [b] > ...``.

Replies from real rankers are noisy, so parsing repairs rather than rejects:
out-of-range identifiers are dropped, duplicates keep their first occurrence,
and missing identifiers are appended in ascending order.  Only a reply with
no usable identifier at all raises :class:`UnparseableReplyError`; the rerank
layer then falls back to the presented order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .corpus import NumeralRecord, TagDocument
from .errors import UnparseableReplyError

__all__ = [
    "AssembledInput",
    "RankingReply",
    "DEFAULT_RERANK_TEMPLATE_NAME",
    "assemble_generation_input",
    "default_instruction",
    "default_rerank_template",
    "load_template",
    "build_rerank_prompt",
    "parse_ranking_reply",
]

DEFAULT_RERANK_TEMPLATE_NAME = "rerank_prompt_v1.txt"
DEFAULT_INSTRUCTION_NAME = "instruction_v1.txt"

_IDENTIFIER_RE = re.compile(r"\[(\d+)\]")
_PLACEHOLDER_RE = re.compile(r"\{\{(n|gen_doc|passages)\}\}")


@dataclass(frozen=True)
class AssembledInput:
    """The concatenated generator input for one record."""

    text: str
    record_id: str


@dataclass(frozen=True)
class RankingReply:
    """A parsed (and repaired) listwise ranking.

    ``order`` is a permutation of 1-based presented positions, most relevant
    first.  ``raw`` keeps the backend's reply verbatim for traces.
    """

    order: tuple[int, ...]
    raw: str


def assemble_generation_input(instruction: str, record: NumeralRecord) -> AssembledInput:
    """Join instruction, report text, and question with single newlines."""
    if not instruction:
        raise ValueError("instruction must be non-empty")
    text = instruction + "\n" + record.report_text + "\n" + record.question
    return AssembledInput(text=text, record_id=record.record_id)


@lru_cache(maxsize=None)
def _read_packaged(name: str) -> str:
    return resources.files("tagrec.templates").joinpath(name).read_text(encoding="utf-8")


def default_rerank_template() -> str:
    """The shipped re-ranking prompt wording (versioned in the template name)."""
    return _read_packaged(DEFAULT_RERANK_TEMPLATE_NAME)


def default_instruction() -> str:
    """The shipped generation instruction, stripped of its trailing newline."""
    return _read_packaged(DEFAULT_INSTRUCTION_NAME).rstrip("\n")


def load_template(path: str | Path) -> str:
    """Read a user-supplied template file (UTF-8)."""
    return Path(path).read_text(encoding="utf-8")


def build_rerank_prompt(
    gen_doc: str,
    group: list[TagDocument] | tuple[TagDocument, ...],
    template: str | None = None,
) -> str:
    """Render the listwise re-ranking prompt for one candidate group.

    Each group member is presented as a numbered passage ``[i] <text>`` in
    the given order; the template's ``{{gen_doc}}``, ``{{passages}}`` and
    ``{{n}}`` placeholders are substituted in a single pass, so the
    generated document and tag texts appear verbatim even when they contain
    placeholders.  Rendering is deterministic: identical inputs yield
    byte-identical prompts.
    """
    if not gen_doc:
        raise ValueError("gen_doc must be non-empty")
    if not group:
        raise ValueError("group must be non-empty")
    if template is None:
        template = default_rerank_template()
    passages = "\n".join(f"[{i}] {doc.text}" for i, doc in enumerate(group, start=1))
    values = {"n": str(len(group)), "gen_doc": gen_doc, "passages": passages}
    # One pass over the template: substituted text is never searched again.
    return _PLACEHOLDER_RE.sub(lambda m: values[m.group(1)], template)


def parse_ranking_reply(raw: str, group_len: int) -> RankingReply:
    """Extract a permutation of 1..group_len from a ranker reply.

    Bracketed integers are taken in order of appearance.  Identifiers
    outside 1..group_len are dropped, duplicates keep the first occurrence,
    and missing identifiers are appended in ascending order, so a successful
    parse is always a full permutation.  Raises
    :class:`UnparseableReplyError` when no in-range identifier occurs.
    """
    if group_len < 1:
        raise ValueError("group_len must be >= 1")
    seen: set[int] = set()
    order: list[int] = []
    for match in _IDENTIFIER_RE.finditer(raw):
        ident = int(match.group(1))
        if not 1 <= ident <= group_len:
            continue
        if ident in seen:
            continue
        seen.add(ident)
        order.append(ident)
    if not order:
        raise UnparseableReplyError(
            f"no identifier in 1..{group_len} found in reply: {raw!r:.200}"
        )
    for ident in range(1, group_len + 1):
        if ident not in seen:
            order.append(ident)
    return RankingReply(order=tuple(order), raw=raw)
