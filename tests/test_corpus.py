from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, strategies as st

from tagrec.corpus import NumeralRecord, TagDocument, TaxonomyCorpus, \
    load_dataset, load_taxonomy
from tagrec.errors import CorpusError

from conftest import make_corpus, make_records, write_dataset, write_taxonomy


def test_load_taxonomy_two_tags(tmp_path):
    path = write_taxonomy(tmp_path / "tax.jsonl",
                          [("T1", "doc one"), ("T2", "doc two")])
    corpus = load_taxonomy(path)
    assert len(corpus) == 2
    assert corpus.texts() == {"T1": "doc one", "T2": "doc two"}
    assert list(corpus.texts()) == ["T1", "T2"]  # file order


def test_load_taxonomy_duplicate_tag(tmp_path):
    path = write_taxonomy(tmp_path / "tax.jsonl",
                          [("T1", "doc one"), ("T1", "doc again")])
    with pytest.raises(CorpusError, match=r"T1.*line 1"):
        load_taxonomy(path)


def test_load_taxonomy_empty_file(tmp_path):
    path = tmp_path / "tax.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(CorpusError, match="no tag documents"):
        load_taxonomy(path)


def test_load_taxonomy_malformed_line_reports_number(tmp_path):
    path = tmp_path / "tax.jsonl"
    path.write_text('{"tag_id": "T1", "text": "ok"}\nnot json\n',
                    encoding="utf-8")
    with pytest.raises(CorpusError, match=":2:"):
        load_taxonomy(path)


def test_load_taxonomy_missing_field(tmp_path):
    path = tmp_path / "tax.jsonl"
    path.write_text('{"tag_id": "T1"}\n', encoding="utf-8")
    with pytest.raises(CorpusError, match="text"):
        load_taxonomy(path)


def test_load_taxonomy_blank_text_rejected(tmp_path):
    path = tmp_path / "tax.jsonl"
    path.write_text('{"tag_id": "T1", "text": "   "}\n', encoding="utf-8")
    with pytest.raises(CorpusError):
        load_taxonomy(path)


@given(st.lists(
    st.tuples(st.text(min_size=1, max_size=12).filter(str.strip),
              st.text(min_size=1, max_size=40).filter(str.strip)),
    min_size=1, max_size=8,
    unique_by=lambda t: t[0],
))
def test_taxonomy_round_trip_random(tmp_path_factory, tags):
    tmp = tmp_path_factory.mktemp("tax")
    corpus = load_taxonomy(write_taxonomy(tmp / "a.jsonl", tags))
    assert corpus == TaxonomyCorpus(docs=tuple(TagDocument(t, x) for t, x in tags))



def test_the_taxonomy_digest_covers_ids_texts_and_order():
    """Each string's length goes before it, so no two taxonomies whose
    strings only join up alike share a digest."""
    corpus = make_corpus([("T1", "doc one"), ("净", "b")])
    want = hashlib.sha256(b"".join(
        len(raw).to_bytes(8, "little") + raw
        for raw in (b"T1", b"doc one", "净".encode("utf-8"), b"b"))).hexdigest()
    assert corpus.sha256 == want
    others = [[("T1", "doc on"), ("净", "eb")], [("T1", "doc one"), ("净", "c")],
              [("T", "1doc one"), ("净", "b")], [("净", "b"), ("T1", "doc one")]]
    assert want not in {make_corpus(tags).sha256 for tags in others}

def test_load_dataset_accepts_substring_numeral(tmp_path):
    rec = NumeralRecord(record_id="r1", report_text="Revenue was 5 .",
                        numeral="5", question="What is 5?")
    path = write_dataset(tmp_path / "data.jsonl", [rec])
    records = load_dataset(path)
    assert [r.record_id for r in records] == ["r1"]
    assert records[0].numeral == "5"


def test_load_dataset_rejects_missing_numeral(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps({
        "record_id": "r7", "report_text": "Revenue was 5 .", "numeral": "7",
        "question": "q", "gold_tag_id": None, "gen_tag_doc": None,
    }) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="r7"):
        load_dataset(path)


@pytest.mark.parametrize("field", ["report_text", "numeral", "question"])
def test_load_dataset_names_a_bad_line_once(tmp_path, field):
    path = tmp_path / "data.jsonl"
    obj = {"record_id": "r1", "report_text": "was 5 .", "numeral": "5",
           "question": "q"}
    del obj[field]
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError) as info:
        load_dataset(path)
    assert str(info.value).count(f"{path}:1") == 1
    assert field in str(info.value)


def test_load_dataset_unknown_gold_tag(tmp_path):
    corpus = make_corpus([("T1", "doc one")])
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps({
        "record_id": "r1", "report_text": "was 5 .", "numeral": "5",
        "question": "q", "gold_tag_id": "NoSuchTag", "gen_tag_doc": None,
    }) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="NoSuchTag"):
        load_dataset(path, corpus)
    # without a corpus the gold tag is not checked
    assert load_dataset(path)[0].gold_tag_id == "NoSuchTag"


def test_load_dataset_missing_gold_accepted(tmp_path):
    records = make_records(2)
    no_gold = NumeralRecord(record_id="x1", report_text="total 9 .",
                            numeral="9", question="q")
    path = write_dataset(tmp_path / "data.jsonl", records + [no_gold])
    loaded = load_dataset(path, make_corpus())
    assert loaded[-1].gold_tag_id is None


def test_load_dataset_duplicate_record_id(tmp_path):
    rec = make_records(1)[0]
    path = write_dataset(tmp_path / "data.jsonl", [rec, rec])
    with pytest.raises(CorpusError, match="duplicate record_id"):
        load_dataset(path)


def test_dataset_write_load_round_trip(tmp_path):
    records = make_records(5)
    first = write_dataset(tmp_path / "a.jsonl", records)
    reloaded = load_dataset(first)
    assert reloaded == records
    second = write_dataset(tmp_path / "b.jsonl", reloaded)
    assert first.read_bytes() == second.read_bytes()


@given(
    prefix=st.text(max_size=20),
    numeral=st.text(alphabet="0123456789.,", min_size=1, max_size=8),
    suffix=st.text(max_size=20),
)
def test_numeral_substring_invariant_holds_for_loaded_records(
        tmp_path_factory, prefix, numeral, suffix):
    tmp = tmp_path_factory.mktemp("data")
    report = prefix + numeral + suffix
    path = tmp / "data.jsonl"
    path.write_text(json.dumps({
        "record_id": "r1", "report_text": report, "numeral": numeral,
        "question": "q", "gold_tag_id": None, "gen_tag_doc": None,
    }, ensure_ascii=False) + "\n", encoding="utf-8")
    for record in load_dataset(path):
        assert record.numeral in record.report_text


def test_corpus_invariants():
    with pytest.raises(CorpusError):
        TaxonomyCorpus(docs=(TagDocument("A", "x"), TagDocument("A", "y")))
    with pytest.raises(CorpusError):
        TagDocument("", "text")
    corpus = make_corpus()
    assert "Revenues" in corpus
    assert "Nope" not in corpus
