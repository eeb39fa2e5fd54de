#!/usr/bin/env python3
"""Print the sha256 of every `lexcheck score` report for one pair of files.

    python3 scripts/report_digests.py INSTRUCTIONS RESPONSES

Scores the responses against the instructions seven times, through the
same entry point as the command line: in each report format (structured,
table, csv), with the relaxed pass and with --strict-only, and once more as
a structured report with --jobs 2.  One line per report gives its settings
and the sha256 of its bytes, so two source trees that print the same lines
wrote the same reports.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

from lexcheck.cli import main as lexcheck
from lexcheck.report import REPORT_FORMATS

RUNS = [(fmt, strict, 1) for strict in (False, True) for fmt in REPORT_FORMATS] + [("structured", False, 2)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("instructions", help="instruction file (JSONL)")
    parser.add_argument("responses", help="response file (JSONL)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report"
        for fmt, strict, jobs in RUNS:
            argv = ["score", args.instructions, args.responses, "--format", fmt, "--jobs", str(jobs), "-o", str(out)]
            argv += ["--strict-only"] * strict
            status = lexcheck(argv)
            if status != 0:
                print(f"lexcheck {' '.join(argv)} exited {status}", file=sys.stderr)
                return status
            label = f"{fmt} {'strict-only' if strict else 'loose'} jobs={jobs}"
            print(f"{label}: {hashlib.sha256(out.read_bytes()).hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
