"""Seeded generator of answer-like responses of realistic length, en and zh.

Each response is drawn from its own ``random.Random`` keyed by the response
seed and the instruction id, so a response does not depend on which other
ids are generated or in what order.  Target lengths are uniform in
300..3,000 characters (mean near 1.7k); the text mixes the shapes real
model answers have: an opening line, headings, paragraphs, bullet and
numbered lists, ``**bold**`` spans, abbreviations, digits and a closing
line, so every segmentation level has work to do.
"""

from __future__ import annotations

import random
import statistics

MIN_CHARS = 300
MAX_CHARS = 3000

EN_WORDS = (
    "the", "model", "answer", "data", "result", "first", "second", "and", "or",
    "because", "however", "system", "users", "should", "can", "will", "simple",
    "rule", "text", "example", "important", "value", "process", "step", "each",
    "number", "report", "clear", "quickly", "carefully", "always", "never",
    "42", "3.14", "2024", "e.g.", "i.e.", "etc.", "Dr.", "Smith", "it's",
    "(see", "below)", "well-known", "data-set", "O'Neill", "running", "is",
    "are", "was", "of", "to", "in", "for", "with", "on", "this", "that",
)
EN_OPENERS = (
    "Sure! Here is a detailed answer.",
    "Certainly. Below is my response.",
    "Here's what you asked for:",
    "Great question!",
)
EN_CLOSERS = (
    "I hope this helps!",
    "Let me know if you need anything else.",
    "In short, that is the whole picture.",
)
EN_HEADINGS = ("Overview", "Key points", "Details", "Summary", "Next steps")
EN_ENDS = (".", ".", ".", "!", "?", "...")

ZH_CHUNKS = (
    "今天天气很好", "我们去公园散步", "数据显示", "第一点很重要", "模型其实很简单",
    "山水之间", "时间过得很快", "例如这样", "答案是42", "共有3行", "用户需要注意",
    "这个问题", "首先", "其次", "最后", "总的来说", "根据2024年的报告", "结果表明",
    "系统会自动处理", "请仔细阅读", "使用AI模型", "每一步都很关键",
)
ZH_OPENERS = ("好的，下面是详细的回答：", "当然可以！", "以下是我的回答。")
ZH_CLOSERS = ("希望对你有帮助！", "如有其他问题，请随时告诉我。", "以上就是全部内容。")
ZH_HEADINGS = ("概述", "要点", "详细说明", "总结", "下一步")
ZH_ENDS = ("。", "。", "。", "！", "？", "……")

BULLETS = ("- ", "* ", "+ ")


def _sentence(rng: random.Random, language: str) -> str:
    if language == "zh":
        body = "，".join(rng.choice(ZH_CHUNKS) for _ in range(rng.randint(1, 4)))
        if rng.random() < 0.1:
            body = "“" + body + "”"
        return body + rng.choice(ZH_ENDS)
    words = [rng.choice(EN_WORDS) for _ in range(rng.randint(4, 16))]
    if rng.random() < 0.3:
        k = rng.randrange(len(words))
        words[k] = words[k] + rng.choice((",", ";", ":"))
    if rng.random() < 0.15:
        k = rng.randrange(len(words))
        words[k] = "**" + words[k] + "**"
    words[0] = words[0][:1].upper() + words[0][1:]
    return " ".join(words) + rng.choice(EN_ENDS)


def _paragraph(rng: random.Random, language: str) -> str:
    joiner = "" if language == "zh" else " "
    return joiner.join(_sentence(rng, language) for _ in range(rng.randint(2, 5)))


def _listing(rng: random.Random, language: str) -> str:
    numbered = rng.random() < 0.4
    marker = rng.choice(BULLETS)
    items = []
    for i in range(1, rng.randint(3, 6) + 1):
        prefix = f"{i}. " if numbered else marker
        items.append(prefix + _sentence(rng, language))
    return "\n".join(items)


def _heading(rng: random.Random, language: str) -> str:
    title = rng.choice(ZH_HEADINGS if language == "zh" else EN_HEADINGS)
    return rng.choice(("## ", "**")) + title + ("**" if rng.random() < 0.5 else "")


def long_response(seed: int, key: str, language: str) -> str:
    """One answer-like text of 300..3,000 characters for ``key``."""
    rng = random.Random(f"{seed}:{key}")
    target = rng.randint(MIN_CHARS, MAX_CHARS - 100)
    zh = language == "zh"
    blocks = []
    if rng.random() < 0.7:
        blocks.append(rng.choice(ZH_OPENERS if zh else EN_OPENERS))
    size = sum(len(b) for b in blocks)
    while size < target:
        roll = rng.random()
        if roll < 0.15:
            block = _heading(rng, language) + "\n" + _paragraph(rng, language)
        elif roll < 0.45:
            block = _listing(rng, language)
        else:
            block = _paragraph(rng, language)
        blocks.append(block)
        size += len(block) + 2
    if rng.random() < 0.6:
        blocks.append(rng.choice(ZH_CLOSERS if zh else EN_CLOSERS))
    text = "\n\n".join(blocks)
    if len(text) > MAX_CHARS:
        text = text[:MAX_CHARS].rstrip()
    return text


def length_stats(texts: list[str]) -> dict[str, float]:
    """Length distribution of a response set, in characters."""
    lengths = sorted(len(t) for t in texts)
    return {
        "n": len(lengths),
        "min": lengths[0],
        "p50": statistics.median(lengths),
        "mean": round(statistics.fmean(lengths), 1),
        "max": lengths[-1],
    }
