"""Taxonomy and dataset loading.

The taxonomy is the universe of XBRL tags, each paired with its descriptive
document text (the unit that gets embedded, retrieved, and re-ranked).  The
dataset is a list of numeral annotation records: a report sentence, the
target numeral as it literally appears in that sentence, a question aimed at
the numeral, and optionally the gold tag and a pre-generated tag document.

Both files are JSON-Lines, one object per line, UTF-8:

    taxonomy:  {"tag_id": str, "text": str}
    dataset:   {"record_id": str, "report_text": str, "numeral": str,
                "question": str, "gold_tag_id": str|null, "gen_tag_doc": str|null}

Loaded corpora and datasets are immutable and safe to share across workers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .errors import CorpusError

__all__ = [
    "TagDocument",
    "TaxonomyCorpus",
    "NumeralRecord",
    "load_taxonomy",
    "load_dataset",
]


@dataclass(frozen=True)
class TagDocument:
    """One taxonomy tag and its descriptive document text."""

    tag_id: str
    text: str

    def __post_init__(self) -> None:
        if not self.tag_id.strip():
            raise CorpusError("tag_id must be a non-empty string")
        if not self.text.strip():
            raise CorpusError(f"tag document text for {self.tag_id!r} is empty")


@dataclass(frozen=True)
class TaxonomyCorpus:
    """Ordered collection of tag documents with unique tag ids."""

    docs: tuple[TagDocument, ...]
    index_by_id: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        index: dict[str, int] = {}
        for pos, doc in enumerate(self.docs):
            if doc.tag_id in index:
                raise CorpusError(
                    f"duplicate tag_id {doc.tag_id!r} at positions "
                    f"{index[doc.tag_id]} and {pos}"
                )
            index[doc.tag_id] = pos
        object.__setattr__(self, "index_by_id", index)

    def __len__(self) -> int:
        return len(self.docs)

    def __contains__(self, tag_id: str) -> bool:
        return tag_id in self.index_by_id

    def texts(self) -> dict[str, str]:
        """tag_id -> document text mapping, in corpus order."""
        return {doc.tag_id: doc.text for doc in self.docs}

    @cached_property
    def sha256(self) -> str:
        """Hex SHA-256 over each (tag_id, text) pair in corpus order, each
        string in UTF-8 after its byte length as a little-endian uint64."""
        digest = hashlib.sha256()  # fed pair by pair: no copy of the texts
        for doc in self.docs:
            for text in (doc.tag_id, doc.text):
                raw = text.encode("utf-8", "surrogatepass")
                digest.update(len(raw).to_bytes(8, "little") + raw)
        return digest.hexdigest()


@dataclass(frozen=True)
class NumeralRecord:
    """One annotation instance: a numeral in a report sentence to be tagged."""

    record_id: str
    report_text: str
    numeral: str
    question: str
    gold_tag_id: str | None = None
    gen_tag_doc: str | None = None

    def __post_init__(self) -> None:
        if not self.record_id:
            raise CorpusError("record_id must be non-empty")
        if not self.numeral:
            raise CorpusError(f"record {self.record_id!r}: numeral is empty")
        if self.numeral not in self.report_text:
            raise CorpusError(
                f"record {self.record_id!r}: numeral {self.numeral!r} "
                "does not occur in report_text"
            )


def _iter_jsonl(path: Path):
    """Yield (line_number, parsed object) for each non-blank line."""
    with path.open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorpusError(f"{path}:{lineno}: not UTF-8: {exc}") from exc
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise CorpusError(f"{path}:{lineno}: expected a JSON object")
            yield lineno, obj


def _require_str(obj: dict, key: str, path: Path, lineno: int) -> str:
    value = obj.get(key)
    if not isinstance(value, str):
        raise CorpusError(f"{path}:{lineno}: field {key!r} missing or not a string")
    return value


def _rows(path: Path, id_key: str):
    """Yield (line_number, parsed object, its ``id_key`` string) for each
    non-blank line; an id seen on an earlier line is a CorpusError."""
    seen: dict[str, int] = {}
    for lineno, obj in _iter_jsonl(path):
        row_id = _require_str(obj, id_key, path, lineno)
        if row_id in seen:
            raise CorpusError(f"{path}:{lineno}: duplicate {id_key} {row_id!r} "
                              f"(first seen on line {seen[row_id]})")
        seen[row_id] = lineno
        yield lineno, obj, row_id


def load_taxonomy(path: str | Path) -> TaxonomyCorpus:
    """Load the tag-document universe from a JSON-Lines file.

    Preserves file order.  Raises :class:`CorpusError` on malformed lines,
    duplicate tag ids (both line numbers reported), or an empty file.
    """
    path = Path(path)
    docs: list[TagDocument] = []
    for lineno, obj, tag_id in _rows(path, "tag_id"):
        text = _require_str(obj, "text", path, lineno)
        try:
            docs.append(TagDocument(tag_id=tag_id, text=text))
        except CorpusError as exc:
            raise CorpusError(f"{path}:{lineno}: {exc}") from exc
    if not docs:
        raise CorpusError(f"{path}: taxonomy file contains no tag documents")
    return TaxonomyCorpus(docs=tuple(docs))


def load_dataset(
    path: str | Path,
    corpus: TaxonomyCorpus | None = None,
) -> list[NumeralRecord]:
    """Load numeral records from a JSON-Lines file, in file order.

    Every record's numeral must occur verbatim in its report_text (no
    numeric normalization: the target is a surface form).  When a corpus is
    supplied, any present gold_tag_id must resolve in it.  Records without a
    gold tag are accepted; evaluation skips them separately.
    """
    path = Path(path)
    records: list[NumeralRecord] = []
    for lineno, obj, record_id in _rows(path, "record_id"):
        gold = obj.get("gold_tag_id")
        gen_doc = obj.get("gen_tag_doc")
        if gold is not None and not isinstance(gold, str):
            raise CorpusError(f"{path}:{lineno}: gold_tag_id must be string or null")
        if gen_doc is not None and not isinstance(gen_doc, str):
            raise CorpusError(f"{path}:{lineno}: gen_tag_doc must be string or null")
        report_text = _require_str(obj, "report_text", path, lineno)
        numeral = _require_str(obj, "numeral", path, lineno)
        question = _require_str(obj, "question", path, lineno)
        try:
            record = NumeralRecord(
                record_id=record_id,
                report_text=report_text,
                numeral=numeral,
                question=question,
                gold_tag_id=gold,
                gen_tag_doc=gen_doc,
            )
        except CorpusError as exc:
            raise CorpusError(f"{path}:{lineno}: {exc}") from exc
        if corpus is not None and record.gold_tag_id is not None:
            if record.gold_tag_id not in corpus:
                raise CorpusError(
                    f"{path}:{lineno}: record {record_id!r} has unknown "
                    f"gold_tag_id {record.gold_tag_id!r}"
                )
        records.append(record)
    return records
