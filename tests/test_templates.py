"""Prompt rendering: template registry, phrase assembly, overlays."""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from helpers import sample_rules, violations
from lexcheck.dsl import parse_rule
from lexcheck.rules import ALLOWED_RELATIONS, LANGUAGES
from lexcheck.templates import (
    DEFAULT_TEMPLATES,
    MissingTemplateError,
    load_templates,
    render_prompt,
    render_rule_sentence,
)


def en(rule_text: str) -> str:
    return render_rule_sentence(parse_rule(rule_text), "en")


def zh(rule_text: str) -> str:
    return render_rule_sentence(parse_rule(rule_text), "zh")


class TestEnglishRenders:
    def test_simple_count(self):
        assert en("sentence# = 5") == "The response must contain exactly 5 sentences."

    def test_singular_for_one(self):
        assert en("sentence# = 1") == "The response must contain exactly 1 sentence."

    def test_neq_stays_plural(self):
        assert en("sentence# != 1") == (
            "The response must contain a number of sentences other than 1."
        )

    def test_paragraph_gloss(self):
        assert en("paragraph# >= 2") == (
            "The response must contain at least 2 paragraphs"
            " (paragraphs are separated by a blank line)."
        )

    def test_bullet_gloss(self):
        assert en("bullet# = 3") == (
            "The response must contain exactly 3 bullet items"
            ' (lines starting with a list marker like "-" or "1.").'
        )

    def test_count_relations(self):
        assert en("word# > 4") == "The response must contain more than 4 words."
        assert en("word# < 4") == "The response must contain fewer than 4 words."
        assert en("word# <= 4") == "The response must contain at most 4 words."

    def test_nested_count_prefix(self):
        assert en("paragraph@2.line@1.word# <= 3") == (
            "In the 2nd paragraph, the 1st line must contain at most 3 words."
        )

    def test_container_position(self):
        assert en("paragraph@1.sentence# = 2") == (
            "The 1st paragraph must contain exactly 2 sentences."
        )

    def test_index_rule(self):
        assert en('paragraph@2.sentence@1 startswith "The"') == (
            'In the 2nd paragraph, the 1st sentence must start with "The".'
        )

    def test_every_element(self):
        assert en('sentence@ contain "a"') == 'Every sentence must contain "a".'

    def test_last_element(self):
        assert en('sentence@-1 endswith "."') == 'The last sentence must end with ".".'

    def test_before_and_after(self):
        assert en('sentence!2 contain "x"') == (
            'The content before the 2nd sentence must contain "x".'
        )
        assert en('word$1 equal "done"') == (
            'The content after the 1st word must be exactly "done".'
        )

    def test_between(self):
        assert en('line% equal "\\n"') == (
            'The content between consecutive lines must be exactly "\\n".'
        )

    def test_pattern_count(self):
        assert en("pattern(/[0-9]+/)# = 2") == (
            "The response must contain exactly 2 matches of the pattern /[0-9]+/."
        )
        assert en("pattern(/[0-9]+/)# = 1") == (
            "The response must contain exactly 1 match of the pattern /[0-9]+/."
        )

    def test_value_rendered_with_quotes_and_escapes(self):
        assert en('answer contain "say \\"hi\\""') == (
            'The response must contain "say \\"hi\\"".'
        )

    def test_ordinals(self):
        assert en('sentence@3 contain "a"').startswith("The 3rd sentence")
        assert en('sentence@4 contain "a"').startswith("The 4th sentence")
        assert en('sentence@11 contain "a"').startswith("The 11th sentence")
        assert en('sentence@21 contain "a"').startswith("The 21st sentence")


class TestChineseRenders:
    def test_simple_count(self):
        assert zh("sentence# <= 8") == "回答必须至多包含8个句子。"

    def test_line_has_no_measure_word(self):
        assert zh('line@2 contain "x"') == '第2行必须包含"x"。'
        assert zh("line# = 3") == "回答必须恰好包含3行。"

    def test_paragraph_gloss(self):
        assert zh("paragraph# = 2") == "回答必须恰好包含2个段落（段落之间以空行分隔）。"

    def test_nested_prefix(self):
        assert zh('paragraph@2.sentence@1 startswith "好"') == (
            '在第2个段落中，第1个句子必须以"好"开头。'
        )

    def test_last_element(self):
        assert zh('sentence@-1 endswith "。"') == '最后一个句子必须以"。"结尾。'

    def test_every_element(self):
        assert zh('sentence@ contain "好"') == '每个句子必须包含"好"。'

    def test_before_after_between(self):
        assert zh('sentence!2 contain "好"') == '第2个句子之前的内容必须包含"好"。'
        assert zh('sentence$1 equal "好"') == '第1个句子之后的内容必须恰好是"好"。'
        assert zh('line% equal "\\n"') == '相邻行之间的内容必须恰好是"\\n"。'

    def test_character_count(self):
        assert zh("character# >= 10") == "回答必须至少包含10个汉字。"

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_always_ends_with_full_stop(self, seed):
        for rule in sample_rules("zh", seed, 4):
            assert render_rule_sentence(rule, "zh").endswith("。")


class TestRegistry:
    def test_default_registry_is_complete(self):
        missing = [
            (kind.value, relation.value, language)
            for kind, relations in ALLOWED_RELATIONS.items()
            for relation in relations
            for language in LANGUAGES
            if (kind.value, relation.value, language) not in DEFAULT_TEMPLATES
        ]
        assert missing == []

    def test_default_registry_is_pinned(self):
        text = json.dumps(sorted(DEFAULT_TEMPLATES.items()), ensure_ascii=False)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == "5a1c2e9056503be7791f579c03bec7b9273afa41edcfb258de6850bb56c65687"
        assert len(DEFAULT_TEMPLATES) == sum(map(len, ALLOWED_RELATIONS.values())) * len(LANGUAGES)

    def test_render_with_missing_template_raises(self):
        with pytest.raises(MissingTemplateError) as info:
            render_rule_sentence(parse_rule("sentence# = 5"), "en", registry={})
        assert info.value.key == ("count", "eq", "en")

    def test_overlay_file(self, tmp_path):
        overlay = tmp_path / "templates.json"
        overlay.write_text(
            json.dumps({"en": {"count": {"eq": "Exactly {n} {level} in {position}."}}}),
            encoding="utf-8",
        )
        registry = load_templates(overlay)
        assert render_rule_sentence(parse_rule("sentence# = 5"), "en", registry) == (
            "Exactly 5 sentences in the response."
        )
        # untouched keys still come from the defaults
        assert render_rule_sentence(parse_rule("sentence# > 5"), "en", registry) == (
            "The response must contain more than 5 sentences."
        )

    def test_overlay_may_use_every_placeholder_its_kind_fills(self, tmp_path):
        path = tmp_path / "templates.json"
        overlay = {
            "en": {
                "count": {"eq": "{position}: {n} = {value} {level}."},
                "between": {"equal": "{level} / {value}."},
            }
        }
        path.write_text(json.dumps(overlay), encoding="utf-8")
        registry = load_templates(path)
        assert render_rule_sentence(parse_rule("sentence# = 2"), "en", registry) == (
            "The response: 2 = 2 sentences."
        )
        assert render_rule_sentence(parse_rule('line% equal "x"'), "en", registry) == 'Lines / "x".'

    def test_invalid_rule_rejected(self):
        from lexcheck.rules import Level, Predicate, PredicateKind, ProcedureStep, Relation, Violation

        # an invalid rule never reaches render_rule_sentence: building it raises
        bad = (ProcedureStep(Level.WORD, Predicate(PredicateKind.INDEX, 1)),)
        assert violations(bad, Relation.EQ, 3) == [Violation.NUMERIC_WITHOUT_COUNT]

    def test_unknown_language_rejected(self):
        with pytest.raises(ValueError):
            render_rule_sentence(parse_rule("sentence# = 5"), "fr")


class TestRenderPrompt:
    def test_numbered_requirements(self):
        rules = [parse_rule("sentence# = 2"), parse_rule('answer contain "tea"')]
        prompt = render_prompt(rules, "en", "Explain how to prepare a cup of tea.")
        assert prompt == (
            "Explain how to prepare a cup of tea.\n"
            "\n"
            "Requirements:\n"
            "1. The response must contain exactly 2 sentences.\n"
            '2. The response must contain "tea".'
        )

    def test_zh_header(self):
        prompt = render_prompt([parse_rule("sentence# = 2")], "zh", "解释如何泡一杯茶。")
        assert prompt == ("解释如何泡一杯茶。\n\n要求：\n1. 回答必须恰好包含2个句子。")

    def test_empty_rules_rejected(self):
        with pytest.raises(ValueError):
            render_prompt([], "en", "task")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["en", "zh"]))
def test_every_sampled_rule_renders(seed, language):
    for rule in sample_rules(language, seed, 5):
        sentence = render_rule_sentence(rule, language)
        assert sentence
        assert sentence.endswith("。") if language == "zh" else sentence.endswith(".")
        if isinstance(rule.value, int):
            assert str(rule.value) in sentence


#: an overlay whose templates start lower-case and use every placeholder
#: their kind fills, so prefix casing and every field are pinned too
_EVERY_PLACEHOLDER = {
    "count": "note {position}, {n}, {value}, {level}.",
    "between": "note {value}, {level}.",
}
_OVERLAY = {key: _EVERY_PLACEHOLDER.get(key[0], "note {position}, {value}.") for key in DEFAULT_TEMPLATES}


@pytest.mark.parametrize(
    "language, expected",
    [
        ("en", "52d35de9dd8fa49496739134f031fee98521e28b1e7afb843bd8437479f98691"),
        ("zh", "f153742dd081bfdd7b133949203366b27faf0986547731aad4277433144348a9"),
    ],
)
def test_sampled_sentences_are_pinned(language, expected):
    """3,000 sampled rules per language, each rendered under the default
    registry and under `_OVERLAY`: one sha256 over every sentence."""
    digest = hashlib.sha256()
    for seed in range(10):
        for rule in sample_rules(language, seed, 300):
            for registry in (None, _OVERLAY):
                digest.update(render_rule_sentence(rule, language, registry).encode("utf-8") + b"\n")
    assert digest.hexdigest() == expected
