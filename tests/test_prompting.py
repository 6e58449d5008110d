from __future__ import annotations

import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from tagrec.corpus import NumeralRecord, TagDocument
from tagrec.errors import UnparseableReplyError
from tagrec.prompting import assemble_generation_input, build_rerank_prompt, \
    default_rerank_template, parse_ranking_reply


def record(report="R", question="Q"):
    return NumeralRecord(record_id="r1", report_text=report + " 5",
                         numeral="5", question=question)


class TestAssemble:
    def test_newline_join(self):
        rec = NumeralRecord(record_id="r1", report_text="R", numeral="R",
                            question="Q")
        out = assemble_generation_input("P", rec)
        assert out.prompt == "P\nR\nQ"
        assert out.record_id == "r1"

    def test_internal_newlines_preserved(self):
        rec = NumeralRecord(record_id="r1", report_text="line1\nline2 5",
                            numeral="5", question="Q")
        out = assemble_generation_input("P1\nP2", rec)
        assert out.prompt == "P1\nP2\nline1\nline2 5\nQ"

    def test_empty_instruction_rejected(self):
        with pytest.raises(ValueError):
            assemble_generation_input("", record())

    def test_deterministic(self):
        rec = record()
        assert (assemble_generation_input("P", rec)
                == assemble_generation_input("P", rec))


def group_of(n):
    return [TagDocument(f"T{i}", f"text number {i}") for i in range(1, n + 1)]


# Any text, with the template's placeholders mixed in.
placeholder_text = st.lists(
    st.one_of(st.text(max_size=8),
              st.sampled_from(["{{n}}", "{{gen_doc}}", "{{passages}}", "{{", "}}"])),
    max_size=6,
).map("".join)


class TestBuildPrompt:
    def test_markers_once_each_in_passage_section(self):
        prompt = build_rerank_prompt("gen doc", group_of(2))
        passage_lines = [ln for ln in prompt.splitlines()
                         if re.match(r"^\[\d+\] ", ln)]
        assert len(passage_lines) == 2
        assert passage_lines[0].startswith("[1] text number 1")
        assert passage_lines[1].startswith("[2] text number 2")
        body = "\n".join(passage_lines)
        assert body.count("[1]") == 1 and body.count("[2]") == 1

    def test_deterministic(self):
        a = build_rerank_prompt("gen doc", group_of(3))
        b = build_rerank_prompt("gen doc", group_of(3))
        assert a == b

    def test_group_of_five_names_five(self):
        prompt = build_rerank_prompt("gen doc", group_of(5))
        assert "5 candidate" in prompt
        assert "Rank the 5 candidates" in prompt

    def test_gen_doc_included_verbatim(self):
        prompt = build_rerank_prompt("very specific generated text",
                                     group_of(2))
        assert "very specific generated text" in prompt

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            build_rerank_prompt("", group_of(2))
        with pytest.raises(ValueError):
            build_rerank_prompt("gen", [])

    def test_custom_template(self):
        template = "N={{n}} G={{gen_doc}}\n{{passages}}"
        prompt = build_rerank_prompt("g", group_of(2), template=template)
        assert prompt == "N=2 G=g\n[1] text number 1\n[2] text number 2"

    def test_no_leftover_placeholders(self):
        prompt = build_rerank_prompt("gen", group_of(4))
        assert "{{" not in prompt
        assert default_rerank_template().count("{{n}}") >= 1

    def test_placeholders_in_inputs_not_substituted(self):
        template = "N={{n}} G={{gen_doc}}\n{{passages}}"
        group = [TagDocument("T1", "tag {{gen_doc}} {{n}}")]
        prompt = build_rerank_prompt("g {{passages}} {{n}}", group, template=template)
        assert prompt == "N=1 G=g {{passages}} {{n}}\n[1] tag {{gen_doc}} {{n}}"

    @settings(max_examples=200, deadline=None)
    @given(gen_doc=placeholder_text.filter(bool),
           texts=st.lists(placeholder_text.filter(str.strip), min_size=1, max_size=5))
    def test_inputs_verbatim_and_passages_once(self, gen_doc, texts):
        group = [TagDocument(f"T{i}", text) for i, text in enumerate(texts)]
        passages = "\n".join(f"[{i}] {t}" for i, t in enumerate(texts, start=1))
        assume(passages not in gen_doc)
        prompt = build_rerank_prompt(gen_doc, group)
        assert gen_doc in prompt
        assert all(text in prompt for text in texts)
        assert prompt.count(passages) == 1

    @given(gen_doc=st.text(min_size=1).filter(lambda t: "{{" not in t),
           texts=st.lists(st.text().filter(lambda t: t.strip() and "{{" not in t),
                          min_size=1, max_size=5))
    def test_same_bytes_as_sequential_replace(self, gen_doc, texts):
        # Prompts are cache keys: inputs without placeholders render as
        # the earlier replace-in-sequence did.
        group = [TagDocument(f"T{i}", text) for i, text in enumerate(texts)]
        passages = "\n".join(f"[{i}] {t}" for i, t in enumerate(texts, start=1))
        expected = (default_rerank_template().replace("{{n}}", str(len(texts)))
                    .replace("{{gen_doc}}", gen_doc).replace("{{passages}}", passages))
        assert build_rerank_prompt(gen_doc, group) == expected


class TestParseReply:
    def test_direct_extraction(self):
        reply = parse_ranking_reply("[3] > [1] > [2]", 3)
        assert reply.order == (3, 1, 2)
        assert reply.raw == "[3] > [1] > [2]"

    def test_dedupe_then_append_missing(self):
        reply = parse_ranking_reply("The ranking: [2] > [2] > [1]", 3)
        assert reply.order == (2, 1, 3)

    def test_no_brackets_is_unparseable(self):
        with pytest.raises(UnparseableReplyError):
            parse_ranking_reply("no brackets here", 3)

    def test_out_of_range_dropped(self):
        reply = parse_ranking_reply("[9] > [2] > [0]", 3)
        assert reply.order == (2, 1, 3)

    def test_only_out_of_range_is_unparseable(self):
        with pytest.raises(UnparseableReplyError):
            parse_ranking_reply("[99] and [0]", 3)

    def test_identifier_of_thousands_of_digits_is_out_of_range(self):
        reply = parse_ranking_reply("[2] > [" + "9" * 5000 + "] > [1]", 3)
        assert reply.order == (2, 1, 3)
        with pytest.raises(UnparseableReplyError):
            parse_ranking_reply("[" + "1" * 5000 + "]", 3)

    def test_zero_padded_identifier_stays_in_range(self):
        reply = parse_ranking_reply("[" + "0" * 5000 + "3] > [0] > [01]", 3)
        assert reply.order == (3, 1, 2)

    def test_group_len_validation(self):
        with pytest.raises(ValueError):
            parse_ranking_reply("[1]", 0)

    def test_prose_around_identifiers(self):
        reply = parse_ranking_reply(
            "Sure! The best is [4], then [2]; the rest follow.", 5)
        assert reply.order == (4, 2, 1, 3, 5)

    @given(
        raw=st.text(max_size=120),
        group_len=st.integers(min_value=1, max_value=12),
    )
    def test_any_successful_parse_is_a_permutation(self, raw, group_len):
        try:
            reply = parse_ranking_reply(raw, group_len)
        except UnparseableReplyError:
            return
        assert sorted(reply.order) == list(range(1, group_len + 1))

    @given(
        perm=st.permutations(list(range(1, 7))),
        noise=st.lists(st.integers(min_value=-5, max_value=30), max_size=6),
    )
    def test_injected_identifiers_round_trip(self, perm, noise):
        pieces = [f"[{i}]" for i in perm] + [f"[{j}]" for j in noise]
        reply = parse_ranking_reply(" > ".join(pieces), 6)
        # first six in-range identifiers win; order of perm preserved
        assert reply.order[:6] == tuple(perm)

    def test_echo_backend_parses_to_identity(self):
        group = group_of(4)
        build_rerank_prompt("gen", group)  # prompt renders fine
        echo = " > ".join(f"[{i}]" for i in range(1, len(group) + 1))
        assert parse_ranking_reply(echo, 4).order == (1, 2, 3, 4)
