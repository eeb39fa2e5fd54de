"""Natural-language rendering of rules into numbered prompt requirements.

Templates are keyed by (terminal predicate kind, relation, language) and use
the placeholders that `_PLACEHOLDERS` lists for their kind, out of ``{n}``,
``{value}``, ``{level}`` and ``{position}``.  The default registry holds one
template for each pair in ``rules.ALLOWED_RELATIONS`` and each language: a
count template, or a selection template reframed for its predicate kind (the
text before, after or between elements takes the place of ``{position}``).
A JSON file with the same nested shape can overlay individual entries, and
is checked as it is loaded.  Rendering is deterministic and self-contained:
every sentence names the level, position, relation and value it constrains.

The rest of a sentence is worded from one phrasebook per language, read
through `_phrase`: each level's two words (`_WORDS`), its gloss
(`_GLOSSES`), and the phrases built from them (`_PHRASES`).  Only English
capitalisation is left to code.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from .dsl import _escape_value
from .records import read_json
from .rules import (
    ALLOWED_RELATIONS,
    LANGUAGES,
    VALUES,
    Level,
    PredicateKind,
    ProcedureStep,
    Relation,
    Rule,
    require_language,
)

TemplateKey = tuple[str, str, str]  # (predicate kind, relation, language)


class MissingTemplateError(LookupError):
    def __init__(self, kind: str, relation: str, language: str):
        self.key = (kind, relation, language)
        super().__init__(f"no template for predicate={kind} relation={relation} language={language}")


_COUNT_EN = {
    "eq": "{position} must contain exactly {n} {level}.",
    "neq": "{position} must contain a number of {level} other than {n}.",
    "gt": "{position} must contain more than {n} {level}.",
    "gte": "{position} must contain at least {n} {level}.",
    "lt": "{position} must contain fewer than {n} {level}.",
    "lte": "{position} must contain at most {n} {level}.",
}
_SELECT_EN = {
    "startswith": "{position} must start with {value}.",
    "endswith": "{position} must end with {value}.",
    "equal": "{position} must be exactly {value}.",
    "contain": "{position} must contain {value}.",
    "notstartswith": "{position} must not start with {value}.",
    "notendswith": "{position} must not end with {value}.",
    "notcontain": "{position} must not contain {value}.",
}
_COUNT_ZH = {
    "eq": "{position}必须恰好包含{n}{level}。",
    "neq": "{position}包含的{level}数量不能恰好为{n}。",
    "gt": "{position}必须包含多于{n}{level}。",
    "gte": "{position}必须至少包含{n}{level}。",
    "lt": "{position}必须包含少于{n}{level}。",
    "lte": "{position}必须至多包含{n}{level}。",
}
_SELECT_ZH = {
    "startswith": "{position}必须以{value}开头。",
    "endswith": "{position}必须以{value}结尾。",
    "equal": "{position}必须恰好是{value}。",
    "contain": "{position}必须包含{value}。",
    "notstartswith": "{position}不能以{value}开头。",
    "notendswith": "{position}不能以{value}结尾。",
    "notcontain": "{position}不能包含{value}。",
}


_COUNT = {"en": _COUNT_EN, "zh": _COUNT_ZH}
_SELECT = {"en": _SELECT_EN, "zh": _SELECT_ZH}
#: selecting predicate kind -> language -> the text its templates constrain,
#: which takes the place of {position} in the selection templates
_FRAMES = {
    "index": {"en": "{position}", "zh": "{position}"},
    "all": {"en": "{position}", "zh": "{position}"},
    "before": {"en": "The content before {position}", "zh": "{position}之前的内容"},
    "after": {"en": "The content after {position}", "zh": "{position}之后的内容"},
    "between": {"en": "The content between consecutive {level}", "zh": "相邻{level}之间的内容"},
}

#: One template for each allowed (predicate kind, relation) pair and language.
DEFAULT_TEMPLATES: dict[TemplateKey, str] = {
    (kind.value, rel.value, language): (
        _COUNT[language][rel.value]
        if kind is PredicateKind.COUNT
        else _SELECT[language][rel.value].replace("{position}", _FRAMES[kind.value][language])
    )
    for kind, relations in ALLOWED_RELATIONS.items()
    for language in LANGUAGES
    for rel in relations
}

#: predicate kind -> the placeholders render_rule_sentence fills in its templates
_PLACEHOLDERS: dict[str, tuple[str, ...]] = {
    "count": ("n", "value", "position", "level"),
    "index": ("value", "position"),
    "all": ("value", "position"),
    "before": ("value", "position"),
    "after": ("value", "position"),
    "between": ("value", "level"),
}

#: language -> level -> its two words: singular and plural noun in English,
#: noun and measure word in Chinese (the measure word sits between a numeral
#: and the noun); ``{pattern}`` stands for the step's regex.
_WORDS: dict[str, dict[Level, tuple[str, str]]] = {
    "en": {
        Level.PARAGRAPH: ("paragraph", "paragraphs"),
        Level.LINE: ("line", "lines"),
        Level.BULLET: ("bullet item", "bullet items"),
        Level.SENTENCE: ("sentence", "sentences"),
        Level.WORD: ("word", "words"),
        Level.CHARACTER: ("Chinese character", "Chinese characters"),
        Level.LETTER: ("letter", "letters"),
        Level.PUNC: ("punctuation mark", "punctuation marks"),
        Level.PATTERN: ("match of the pattern /{pattern}/", "matches of the pattern /{pattern}/"),
    },
    "zh": {
        Level.PARAGRAPH: ("段落", "个"),
        Level.LINE: ("行", ""),
        Level.BULLET: ("列表项", "个"),
        Level.SENTENCE: ("句子", "个"),
        Level.WORD: ("词", "个"),
        Level.CHARACTER: ("汉字", "个"),
        Level.LETTER: ("字母", "个"),
        Level.PUNC: ("标点符号", "个"),
        Level.PATTERN: ("与正则表达式 /{pattern}/ 匹配的片段", "个"),
    },
}

#: language -> level -> the gloss that follows its noun where it is counted
_GLOSSES: dict[str, dict[Level, str]] = {
    "en": {
        Level.PARAGRAPH: " (paragraphs are separated by a blank line)",
        Level.BULLET: ' (lines starting with a list marker like "-" or "1.")',
    },
    "zh": {
        Level.PARAGRAPH: "（段落之间以空行分隔）",
        Level.BULLET: "（以“-”或“1.”等列表符号开头的行）",
    },
}

#: language -> phrase name -> wording.  A step's phrase is a function of its
#: level's two words, its ordinal n and its level's gloss: the region its
#: predicate kind selects (``last`` for index -1), or a ``count``/``gaps`` noun.
_PHRASES: dict[str, dict[str, Any]] = {
    "en": {
        "index": lambda one, two, n, gloss: f"the {_ordinal(n)} {one}",
        "last": lambda one, two, n, gloss: f"the last {one}",
        "all": lambda one, two, n, gloss: f"every {one}",
        "before": lambda one, two, n, gloss: f"the content before the {_ordinal(n)} {one}",
        "after": lambda one, two, n, gloss: f"the content after the {_ordinal(n)} {one}",
        "between": lambda one, two, n, gloss: f"each gap between consecutive {two}",
        "count": lambda one, two, n, gloss: f"{two}{gloss}",
        "count of one": lambda one, two, n, gloss: f"{one}{gloss}",
        "gaps": lambda one, two, n, gloss: f"{two}{gloss}",
        "answer": "the response",
        "in": lambda region: f"in {region}, ",
        "header": "Requirements:",
    },
    "zh": {
        "index": lambda noun, measure, n, gloss: f"第{n}{measure}{noun}",
        "last": lambda noun, measure, n, gloss: f"最后一{measure}{noun}",
        "all": lambda noun, measure, n, gloss: f"每{measure}{noun}",
        "before": lambda noun, measure, n, gloss: f"第{n}{measure}{noun}之前的内容",
        "after": lambda noun, measure, n, gloss: f"第{n}{measure}{noun}之后的内容",
        "between": lambda noun, measure, n, gloss: f"相邻{noun}之间的每段内容",
        "count": lambda noun, measure, n, gloss: f"{measure}{noun}{gloss}",
        "count of one": lambda noun, measure, n, gloss: f"{measure}{noun}{gloss}",
        "gaps": lambda noun, measure, n, gloss: f"{noun}{gloss}",
        "answer": "回答",
        "in": lambda region: f"在{region}中，",
        "header": "要求：",
    },
}


def _ordinal(n: int) -> str:
    if 10 <= n % 100 <= 20:
        suffix = "th"
    else:
        suffix = {1: "st", 2: "nd", 3: "rd"}.get(n % 10, "th")
    return f"{n}{suffix}"


def _phrase(name: str, step: ProcedureStep, language: str) -> str:
    """The phrase `name` of `_PHRASES` for one step, worded in `language`;
    an answer step is always the ``answer`` phrase, and index -1 ``last``."""
    phrases = _PHRASES[language]
    if step.level is Level.ANSWER:
        return phrases["answer"]
    n = step.predicate.n
    if n == -1:
        name = "last"
    one, two = _WORDS[language][step.level]
    if step.pattern is not None:
        one, two = one.replace("{pattern}", step.pattern), two.replace("{pattern}", step.pattern)
    return phrases[name](one, two, n, _GLOSSES[language].get(step.level, ""))


def _assemble(prefixes: list[str], core: str, language: str) -> str:
    frame = _PHRASES[language]["in"]
    if language != "en":
        return "".join(map(frame, prefixes)) + core
    # an English sentence starts with a capital, and a core after a prefix does not
    if prefixes and core[:1].isupper():
        core = core[0].lower() + core[1:]
    sentence = "".join(map(frame, prefixes)) + core
    return sentence[:1].upper() + sentence[1:]


def render_rule_sentence(rule: Rule, language: str, registry: dict[TemplateKey, str] | None = None) -> str:
    """One self-contained requirement sentence for a single rule."""
    require_language(language)
    reg = DEFAULT_TEMPLATES if registry is None else registry
    steps = rule.procedure
    terminal = steps[-1]
    kind = terminal.predicate.kind
    kind_name = VALUES[kind]
    key = (kind_name, VALUES[rule.relation], language)
    template = reg.get(key)
    if template is None:
        raise MissingTemplateError(*key)

    prefixes = [_phrase(VALUES[s.predicate.kind], s, language) for s in steps[:-1]]
    position = level = ""
    if kind is PredicateKind.COUNT:
        # the innermost container is the position being counted in
        position = prefixes.pop() if prefixes else _PHRASES[language]["answer"]
        one = rule.value == 1 and rule.relation is not Relation.NEQ
        level = _phrase("count of one" if one else "count", terminal, language)
    elif kind in (PredicateKind.INDEX, PredicateKind.ALL):
        position = _phrase(kind_name, terminal, language)
    elif kind in (PredicateKind.BEFORE, PredicateKind.AFTER):
        # the template frames the element; the position names it
        position = _phrase("index", terminal, language)
    else:  # BETWEEN
        level = _phrase("gaps", terminal, language)

    value = _escape_value(rule.value) if isinstance(rule.value, str) else str(rule.value)
    fields = {"n": str(rule.value), "value": value, "position": position, "level": level}
    core = template.format_map({name: fields[name] for name in _PLACEHOLDERS[kind_name]})
    return _assemble(prefixes, core, language)


def render_prompt(
    rules: list[Rule] | tuple[Rule, ...],
    language: str,
    seed_task: str,
    registry: dict[TemplateKey, str] | None = None,
) -> str:
    """Seed task followed by an explicitly numbered requirement list."""
    if not rules:
        raise ValueError("render_prompt needs at least one rule")
    sentences = [render_rule_sentence(r, language, registry) for r in rules]
    body = "\n".join(f"{i}. {s}" for i, s in enumerate(sentences, 1))
    return f"{seed_task}\n\n{_PHRASES[language]['header']}\n{body}"


def load_templates(path: str | Path) -> dict[TemplateKey, str]:
    """Overlay a JSON template file ({language: {predicate: {relation: text}}})
    over the defaults.

    Raises ValueError naming the entry when a level of the file is not an
    object, a language or predicate kind is unknown, a relation is not
    allowed for its kind, a template is not a string, or a template is not a
    format string over its kind's placeholders, and `records.DataError` (a
    ValueError) when the file does not decode to a JSON object.
    """
    registry = dict(DEFAULT_TEMPLATES)
    for language, by_kind in read_json(path).items():
        if language not in LANGUAGES:
            raise ValueError(f"template entry {language}: unknown language")
        for kind, by_relation in _entries(by_kind, f"template entry {language}"):
            if kind not in _PLACEHOLDERS:
                raise ValueError(f"template entry {language}.{kind}: unknown predicate kind")
            for relation, template in _entries(by_relation, f"template entry {language}.{kind}"):
                if relation not in ALLOWED_RELATIONS[PredicateKind(kind)]:
                    raise ValueError(f"template entry {language}.{kind}.{relation}: not a {kind} relation")
                _check_template(template, kind, f"template {language}.{kind}.{relation}")
                registry[(kind, relation, language)] = template
    return registry


def _entries(data: object, where: str):
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a JSON object, not {type(data).__name__}")
    return data.items()


def _check_template(template: object, kind: str, where: str) -> None:
    """Raise ValueError unless `template` is a string that formats with no
    placeholder but those `kind` fills."""
    if not isinstance(template, str):
        raise ValueError(f"{where} must be a string, not {type(template).__name__}")
    names = _PLACEHOLDERS[kind]
    try:
        template.format_map(dict.fromkeys(names, ""))
    except (LookupError, AttributeError, ValueError) as exc:
        allowed = ", ".join(f"{{{name}}}" for name in names)
        raise ValueError(f"{where}: {exc!r}; {kind} templates may use {allowed}") from None
