#!/usr/bin/env python3
"""Print the sha256 of every `lexcheck score` report for one pair of files,
of the `lexcheck report` merges of its structured reports, and of the
instruction file after a round trip.

    python3 scripts/report_digests.py INSTRUCTIONS RESPONSES

Scores the responses against the instructions eight times, through the
same entry point as the command line: in each report format (structured,
table, csv), with the relaxed pass and with --strict-only, all with
--jobs 1, and twice more as a structured report: with --jobs 2, and
without --jobs, which scores in one process per CPU.  Then merges the
loose and the strict-only structured report with `lexcheck report`, once
as a table and once as a structured report.  Last, reads the instructions with
`read_instructions` and writes them back with `write_instructions`.  One
line per output gives its settings and the sha256 of its bytes, so two
source trees that print the same lines wrote the same reports and merges,
and parse, check and grade the instructions alike.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

from lexcheck.cli import main as lexcheck
from lexcheck.records import read_instructions, write_instructions
from lexcheck.report import REPORT_FORMATS

# (format, strict-only, --jobs), where "default" leaves --jobs out
RUNS = [(fmt, strict, "1") for strict in (False, True) for fmt in REPORT_FORMATS]
RUNS += [("structured", False, "2"), ("structured", False, "default")]
MERGES = ("table", "structured")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("instructions", help="instruction file (JSONL)")
    parser.add_argument("responses", help="response file (JSONL)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        for fmt, strict, jobs in RUNS:
            out = Path(tmp) / f"{fmt}-{strict}-{jobs}"
            argv = ["score", args.instructions, args.responses, "--format", fmt, "-o", str(out)]
            argv += ["--strict-only"] * strict + ["--jobs", jobs] * (jobs != "default")
            status = _digest(f"{fmt} {'strict-only' if strict else 'loose'} jobs={jobs}", argv, out)
            if status != 0:
                return status
        structured = [str(Path(tmp) / f"structured-{strict}-1") for strict in (False, True)]
        for fmt in MERGES:
            out = Path(tmp) / f"merge-{fmt}"
            status = _digest(f"merge {fmt}", ["report", *structured, "--format", fmt, "-o", str(out)], out)
            if status != 0:
                return status
        out = Path(tmp) / "instructions.jsonl"
        write_instructions(out, read_instructions(args.instructions))
        print(f"instructions round trip: {hashlib.sha256(out.read_bytes()).hexdigest()}")
    return 0


def _digest(label: str, argv: list[str], out: Path) -> int:
    """Run one lexcheck command and print `label` with the sha256 of what
    it wrote to `out`; return its exit status."""
    status = lexcheck(argv)
    if status != 0:
        print(f"lexcheck {' '.join(argv)} exited {status}", file=sys.stderr)
    else:
        print(f"{label}: {hashlib.sha256(out.read_bytes()).hexdigest()}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
