#!/usr/bin/env python3
"""Build the benchmark-scale instruction datasets and report timing.

Emits one English file (321/372/550 by difficulty) and one Chinese file
(332/372/528), 2,475 instructions in total, then prints each file's
per-difficulty counts and sha256 and the wall-clock cost; the sha256 checks a
rebuilt file against the released one.  Seeds are fixed by default so reruns are
byte-identical; pass --seed-en/--seed-zh to sample a different dataset.
"""

from __future__ import annotations

import argparse
import hashlib
import time
from collections import Counter
from pathlib import Path

from lexcheck.generate import GenConfig, generate_dataset
from lexcheck.records import write_instructions

SHAPES = {
    "en": {"easy": 321, "medium": 372, "hard": 550},
    "zh": {"easy": 332, "medium": 372, "hard": 528},
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--out-dir", default="benchmark", help="output directory")
    parser.add_argument("--seed-en", type=int, default=104729)
    parser.add_argument("--seed-zh", type=int, default=1299709)
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = {"en": args.seed_en, "zh": args.seed_zh}

    total = 0
    start = time.perf_counter()
    for language, shape in SHAPES.items():
        config = GenConfig(seed=seeds[language], language=language, **shape)
        instructions = generate_dataset(config)
        path = out_dir / f"instructions_{language}.jsonl"
        write_instructions(path, instructions)
        counts = Counter(ins.difficulty for ins in instructions)
        breakdown = "/".join(str(counts[grade]) for grade in ("easy", "medium", "hard"))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{path}: {len(instructions)} instructions ({breakdown} easy/medium/hard) sha256 {digest}")
        total += len(instructions)
    elapsed = time.perf_counter() - start
    print(f"built {total} instructions in {elapsed:.2f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
