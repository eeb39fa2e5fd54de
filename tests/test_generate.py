"""Dataset generation: sampling closure, bucketing, determinism, failure modes."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from collections import Counter

import pytest

from helpers import build_instruction
from lexcheck.dsl import format_rule, parse_rule
from lexcheck.generate import (
    ATTEMPTS_PER_SLOT,
    BucketError,
    DEFAULT_LEXICONS,
    DEFAULT_SEED_TASKS,
    GenConfig,
    Lexicon,
    LexiconError,
    generate_dataset,
    sample_rule,
    stable_id,
)
from lexcheck.grading import grade_difficulty
from lexcheck.records import read_config, write_instructions
from lexcheck.rules import Level, PredicateKind, ProcedureStep, Rule


class TestGenConfig:
    def test_defaults_filled_in(self):
        config = GenConfig(seed=1, language="en")
        assert config.lexicon == DEFAULT_LEXICONS["en"]
        assert config.seed_tasks == DEFAULT_SEED_TASKS["en"]

    def test_validation(self):
        with pytest.raises(ValueError):
            GenConfig(seed=1, language="de")
        with pytest.raises(ValueError):
            GenConfig(seed=1, language="en", max_depth=0)
        with pytest.raises(ValueError):
            GenConfig(seed=1, language="en", max_depth=5)
        with pytest.raises(ValueError):
            GenConfig(seed=1, language="en", max_constraints=0)
        with pytest.raises(ValueError):
            GenConfig(seed=1, language="en", easy=-1)

    @pytest.mark.parametrize("regex", ["(", "a{99999999999999}", "(" * 2_000], ids=["syntax", "huge-repeat", "deep-nesting"])
    def test_lexicon_regexes_must_compile(self, regex):
        with pytest.raises(ValueError, match=r"^lexicon regex '.*': pattern step regex does not compile"):
            Lexicon(regexes=("[0-9]+", regex))

    def test_dict_round_trip(self, tmp_path):
        config = GenConfig(seed=9, language="zh", easy=2, medium=1, hard=1, max_depth=2)
        path = tmp_path / "gen.json"
        path.write_text(json.dumps(dataclasses.asdict(config)), encoding="utf-8")
        assert read_config(GenConfig, path) == config

    def test_read_config_requires_seed_and_language(self, tmp_path):
        path = tmp_path / "gen.json"
        for data, missing in (({"language": "en"}, "['seed']"), ({"seed": 3}, "['language']")):
            path.write_text(json.dumps(data), encoding="utf-8")
            with pytest.raises(ValueError) as info:
                read_config(GenConfig, path)
            assert str(info.value) == f"missing required keys: {missing}"


class TestSampleRule:
    def test_validity_closure(self):
        for language in ("en", "zh"):
            config = GenConfig(seed=0, language=language)
            rng = random.Random(7)
            for _ in range(2000):
                # a Rule raises ValidityError when invalid
                assert isinstance(sample_rule(config, rng), Rule)

    def test_language_level_exclusions(self):
        seen = {"en": set(), "zh": set()}
        for language in ("en", "zh"):
            config = GenConfig(seed=0, language=language)
            rng = random.Random(11)
            for _ in range(1500):
                for step in sample_rule(config, rng).procedure:
                    seen[language].add(step.level)
        assert Level.CHARACTER not in seen["en"]
        assert Level.WORD not in seen["zh"]
        assert Level.LETTER not in seen["zh"]
        assert Level.CHARACTER in seen["zh"]
        assert Level.WORD in seen["en"]

    def test_depth_respects_cap(self):
        config = GenConfig(seed=0, language="en", max_depth=2)
        rng = random.Random(3)
        assert all(len(sample_rule(config, rng).procedure) <= 2 for _ in range(500))

    def test_between_values_are_plausible_gaps(self):
        for language, allowed in (
            ("en", {"\n\n", "\n", " ", "  "}),
            ("zh", {"\n\n", "\n"}),
        ):
            config = GenConfig(seed=0, language=language)
            rng = random.Random(5)
            for _ in range(1500):
                rule = sample_rule(config, rng)
                if rule.procedure[-1].predicate.kind is PredicateKind.BETWEEN:
                    assert rule.value in allowed, (language, rule.value)

    def test_steps_are_shared_with_the_parser(self):
        for language in ("en", "zh"):
            config = GenConfig(seed=0, language=language)
            rng = random.Random(17)
            for _ in range(300):
                rule = sample_rule(config, rng)
                parsed = parse_rule(format_rule(rule))
                assert all(a is b for a, b in zip(rule.procedure, parsed.procedure, strict=True))

    def test_pattern_needs_regexes(self):
        config = GenConfig(
            seed=0,
            language="en",
            lexicon=Lexicon(words=("a",), characters=("a", "."), regexes=()),
        )
        rng = random.Random(1)
        with pytest.raises(LexiconError):
            for _ in range(500):
                sample_rule(config, rng)

    @pytest.mark.parametrize(
        "lexicon, expected",
        [
            (
                # an en lexicon whose characters fit neither letter nor punc
                {"words": ["alpha", "beta"], "characters": ["1", "2"], "regexes": ["[a-z]+"]},
                {
                    "ok": 161,
                    "lexicon has no single characters usable at level punc": 21,
                    "lexicon has no single characters usable at level letter": 18,
                },
            ),
            (
                {"words": [], "characters": [], "regexes": ["[a-z]+"]},
                {
                    "ok": 79,
                    "lexicon has no words or characters": 88,
                    "lexicon has no single characters usable at level punc": 17,
                    "lexicon has no single characters usable at level letter": 16,
                },
            ),
        ],
        ids=["no-letter-or-punc", "no-words-or-characters"],
    )
    def test_missing_pool_raises_at_the_draw_that_needs_it(self, tmp_path, lexicon, expected):
        """The config loads; only a draw whose value needs the missing pool
        raises, and later draws go on from the same stream."""
        path = tmp_path / "gen.json"
        path.write_text(json.dumps({"seed": 0, "language": "en", "lexicon": lexicon}), encoding="utf-8")
        config = read_config(GenConfig, path)
        rng = random.Random(1)
        outcomes = []
        for _ in range(200):
            try:
                sample_rule(config, rng)
                outcomes.append("ok")
            except LexiconError as exc:
                outcomes.append(str(exc))
        assert dict(Counter(outcomes)) == expected


class TestStableId:
    def test_format(self):
        digest = hashlib.sha256(b"42:7").hexdigest()[:12]
        assert stable_id("en", 42, 7) == f"en-{digest}"

    def test_language_prefix_only_changes_prefix(self):
        assert stable_id("en", 1, 2)[3:] == stable_id("zh", 1, 2)[3:]


class TestBuildInstruction:
    def test_derived_fields(self):
        rules = (parse_rule("sentence# = 2"), parse_rule('paragraph@1.word@2 contain "x"'))
        ins = build_instruction("en-x", "en", "prompt", rules)
        assert ins.depth == 2
        assert ins.count == 2
        assert ins.difficulty == grade_difficulty(rules).grade


class TestGenerateDataset:
    def test_buckets_and_labels(self):
        config = GenConfig(seed=13, language="en", easy=4, medium=3, hard=2)
        dataset = generate_dataset(config)
        assert [i.difficulty for i in dataset] == ["easy"] * 4 + ["medium"] * 3 + ["hard"] * 2
        for ins in dataset:
            assert ins.difficulty == grade_difficulty(ins.rules).grade
            assert ins.language == "en"
            assert 1 <= ins.depth <= config.max_depth
            assert 1 <= ins.count <= config.max_constraints

    def test_ids_unique_and_stable(self):
        config = GenConfig(seed=13, language="en", easy=3, medium=3, hard=3)
        dataset = generate_dataset(config)
        assert len({i.id for i in dataset}) == len(dataset)
        assert [i.id for i in dataset] == [stable_id("en", 13, k) for k in range(len(dataset))]

    def test_no_duplicate_rule_multisets(self):
        config = GenConfig(seed=13, language="zh", easy=5, medium=5, hard=5)
        dataset = generate_dataset(config)
        keys = {tuple(sorted(format_rule(r) for r in i.rules)) for i in dataset}
        assert len(keys) == len(dataset)

    def test_a_repeated_rule_multiset_is_rejected(self, monkeypatch):
        """A candidate whose rules equal an accepted instruction's, drawn in
        swapped order and as new objects, is not emitted: the check compares
        rules by value and ignores their order."""
        config = GenConfig(seed=5, language="en", hard=2, max_constraints=2)  # every hard draw has 2 rules
        first, second = generate_dataset(config)
        a, b = first.rules
        assert a != b

        def rebuilt(rule):
            steps = tuple(ProcedureStep(s.level, s.predicate, s.pattern) for s in rule.procedure)
            return Rule(steps, rule.relation, rule.value)

        repeat = (rebuilt(b), rebuilt(a))
        assert repeat == (b, a) and repeat[0] is not b and repeat[0].procedure[0] is not b.procedure[0]
        assert grade_difficulty(repeat).grade == "hard"
        draws = iter((a, b) + repeat + second.rules)
        monkeypatch.setattr("lexcheck.generate.sample_rule", lambda config, rng: next(draws))
        dataset = generate_dataset(config)
        assert [i.rules for i in dataset] == [(a, b), second.rules]
        assert next(draws, None) is None  # the repeat was drawn, and refused

    def test_prompts_are_rendered(self):
        config = GenConfig(seed=2, language="en", easy=2)
        for ins in generate_dataset(config):
            task, rest = ins.prompt.split("\n\n", 1)
            assert task in DEFAULT_SEED_TASKS["en"]
            assert rest.startswith("Requirements:\n1. ")

    def test_byte_identical_for_equal_configs(self, tmp_path):
        paths = []
        for name in ("a.jsonl", "b.jsonl"):
            config = GenConfig(seed=99, language="zh", easy=6, medium=6, hard=6)
            path = tmp_path / name
            write_instructions(path, generate_dataset(config))
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_different_seed_changes_output(self):
        a = generate_dataset(GenConfig(seed=1, language="en", easy=2))
        b = generate_dataset(GenConfig(seed=2, language="en", easy=2))
        assert [i.rules for i in a] != [i.rules for i in b]

    def test_template_overlay_reaches_prompts(self):
        from lexcheck.templates import DEFAULT_TEMPLATES

        registry = dict(DEFAULT_TEMPLATES)
        for key in list(registry):
            if key[2] == "en":
                registry[key] = "REQ " + registry[key]
        config = GenConfig(seed=4, language="en", easy=2)
        dataset = generate_dataset(config, registry)
        assert all("REQ " in i.prompt for i in dataset)

    def test_unfillable_bucket_raises(self):
        # single shallow rules with one-character values max out at score 5,
        # so the hard bucket (>5) can never fill
        config = GenConfig(
            seed=0,
            language="en",
            hard=1,
            max_depth=1,
            max_constraints=1,
            lexicon=Lexicon(words=("a", "b"), characters=("a", "e", "."), regexes=("aa", "bb")),
        )
        with pytest.raises(BucketError) as info:
            generate_dataset(config)
        assert info.value.grade == "hard"
        assert info.value.wanted == 1
        assert info.value.got == 0
        assert str(ATTEMPTS_PER_SLOT) in str(info.value)


#: a custom lexicon with several regexes, one spelling its slash as ``\/``
_SLASH_LEXICON = Lexicon(
    words=("alpha", "beta", "gamma", "delta"),
    characters=("a", "b", ".", "!"),
    regexes=("[a-z]+", r"a\/b", "[0-9]{2}", r"[A-Z]\w*"),
)


def _overlay() -> dict:
    from lexcheck.templates import DEFAULT_TEMPLATES

    return {key: "note " + template for key, template in DEFAULT_TEMPLATES.items()}


@pytest.mark.parametrize(
    "config, overlay, expected",
    [
        (
            GenConfig(seed=41, language="en", easy=10, medium=15, hard=25, max_depth=4, max_constraints=5),
            False,
            "a9008da31cd460d198afa2cc45a162894b2e46e0c256dfdee21819f0b5b2de7d",
        ),
        (
            GenConfig(seed=42, language="zh", easy=10, medium=15, hard=25, max_depth=4, max_constraints=5),
            False,
            "b2148a6820b37a62eb28f3f192315ad71fe2e980d168408cf0eb9862ed944310",
        ),
        (
            GenConfig(seed=45, language="en", easy=10, medium=15, hard=25, lexicon=_SLASH_LEXICON),
            True,
            "df7c1c1e7a535d6d2b21d713ca74b77915fd46e706203763b3930966034b8a15",
        ),
    ],
    ids=["en-depth4-k5", "zh-depth4-k5", "en-slash-lexicon-overlay"],
)
def test_written_bytes_are_pinned(tmp_path, config, overlay, expected):
    """The sampler's sequence of draws fixes a dataset's bytes: these sha256
    digests of the written files must not move when the sampler changes."""
    path = tmp_path / "out.jsonl"
    write_instructions(path, generate_dataset(config, _overlay() if overlay else None))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == expected
