"""Command-line interface.

Subcommands: verify, generate, render, collect, score, report.  Each command
runs straight through and lets a failure propagate; `main` alone turns it
into one `error: ` line on stderr and an exit code: 0 success, 1 a usage or
configuration error or an unwritable output, 2 a data error (an input file
that cannot be opened, decoded or validated, or a bad rule expression),
3 partial collection, 130 an interrupt (Ctrl-C).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from .collect import CollectResult, EndpointConfig, collect
from .dsl import ParseError, PatternError, ValidityError, parse_rule
from .engine import _verdict
from .generate import BucketError, GenConfig, LexiconError, generate_dataset
from .records import DataError, read_config, read_stdin, read_text, write_instructions
from .report import (
    REPORT_FORMATS,
    _cpus,
    load_report,
    merge,
    render_report,
    score,
)
from .rules import LANGUAGES
from .templates import TemplateKey, load_templates, render_prompt

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PARTIAL = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as shells report it


class _ConfigError(Exception):
    """A configuration input failed to load."""


def _err(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


@contextmanager
def _loading(what: str) -> Iterator[None]:
    """Turn a ValueError raised while loading a configuration input into a
    `_ConfigError` worded `<what>: <reason>`."""
    try:
        yield
    except ValueError as exc:
        raise _ConfigError(f"{what}: {exc}") from exc


def _overlay(path: str | None) -> dict[TemplateKey, str] | None:
    """The templates with the overlay at `path`, or None for the defaults."""
    if not path:
        return None
    with _loading("cannot load templates"):
        return load_templates(path)


def _write_output(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _positive_int(value: str) -> int:
    """argparse type for --jobs: an integer of at least 1."""
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {value!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {n}")
    return n


def cmd_verify(args: argparse.Namespace) -> int:
    rule = parse_rule(args.rule)
    verdict = _verdict((rule,), read_stdin(), args.lang, loose=not args.strict_only)
    print(f"strict: {'pass' if verdict.strict_pass else 'fail'}")
    if verdict.loose_pass is not None:
        print(f"loose: pass ({verdict.loose_variant})" if verdict.loose_pass else "loose: fail")
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    with _loading("cannot load generation config"):
        config = read_config(GenConfig, args.config, seed=args.seed, language=args.lang)
    instructions = generate_dataset(config, _overlay(args.templates))
    write_instructions(args.output, instructions)
    print(f"wrote {len(instructions)} instructions to {args.output}")
    return EXIT_OK


def cmd_render(args: argparse.Namespace) -> int:
    source = read_text(args.rules_file) if args.rules_file else read_stdin()
    # one rule per "\n"-ended line: str.splitlines would also cut at the
    # Unicode line separators a quoted value may hold (U+2028, U+0085, ...)
    lines = [line for line in source.split("\n") if line.strip()]
    if not lines:
        raise DataError("no rule expressions supplied")
    rules = [parse_rule(line) for line in lines]
    print(render_prompt(rules, args.lang, args.seed_task, _overlay(args.templates)))
    return EXIT_OK


def cmd_collect(args: argparse.Namespace) -> int:
    with _loading("endpoint config"):
        config = read_config(EndpointConfig, args.config, max_in_flight=args.jobs)
        config.credential()
    result: CollectResult = collect(args.instructions, config, args.output)
    print(
        f"collected {result.completed}/{result.requested} responses "
        f"({result.skipped} already present, {len(result.failed)} failed)"
    )
    if result.partial:
        _err(f"failed ids: {', '.join(result.failed)}")
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_score(args: argparse.Namespace) -> int:
    jobs = args.jobs or _cpus()  # one process per CPU unless --jobs says otherwise
    report = score(args.instructions, args.responses, jobs=jobs, loose=not args.strict_only)
    _write_output(render_report(report, args.format), args.output)
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    merged = merge([load_report(path) for path in args.reports])
    _write_output(render_report(merged, args.format), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexcheck",
        description="Verify, generate and score fine-grained lexical constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check one rule against text read from stdin")
    p.add_argument("rule", help="one-line rule expression")
    p.add_argument("--lang", choices=LANGUAGES, default="en")
    p.add_argument("--strict-only", action="store_true", help="skip the relaxed rewrites")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("generate", help="build an instruction dataset from a config file")
    p.add_argument("config", help="generation config (JSON)")
    p.add_argument("-o", "--output", required=True, help="instruction file to write (JSONL)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--lang", choices=LANGUAGES, help="override the config language")
    p.add_argument("--templates", help="template overlay file (JSON)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("render", help="render rule expressions into a prompt")
    p.add_argument("rules_file", nargs="?", help="file with one rule expression per line (default: stdin)")
    p.add_argument("--lang", choices=LANGUAGES, default="en")
    p.add_argument("--seed-task", default="Write a short answer to the task below.")
    p.add_argument("--templates", help="template overlay file (JSON)")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("collect", help="fetch responses from a chat-completions endpoint")
    p.add_argument("instructions", help="instruction file (JSONL)")
    p.add_argument("config", help="endpoint config (JSON)")
    p.add_argument("-o", "--output", required=True, help="response journal to append to (JSONL)")
    p.add_argument("--jobs", type=_positive_int, help="maximum requests in flight")
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser("score", help="score responses against instructions")
    p.add_argument("instructions", help="instruction file (JSONL)")
    p.add_argument("responses", help="response file (JSONL)")
    p.add_argument(
        "--jobs", type=_positive_int, help="scoring processes, this one included (default: one per CPU)"
    )
    p.add_argument("--strict-only", action="store_true", help="skip the relaxed pass")
    p.add_argument("--format", choices=REPORT_FORMATS, default="structured")
    p.add_argument("-o", "--output", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("report", help="render or merge structured report files")
    p.add_argument("reports", nargs="+", help="structured report files (JSON)")
    p.add_argument("--format", choices=REPORT_FORMATS, default="table")
    p.add_argument("-o", "--output", help="write the rendering here instead of stdout")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems and 0 for --help
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except (ParseError, PatternError, ValidityError) as exc:
        _err(f"bad rule expression: {exc}")
        return EXIT_DATA
    except DataError as exc:
        _err(str(exc))
        return EXIT_DATA
    except (_ConfigError, BucketError, LexiconError) as exc:
        _err(str(exc))
        return EXIT_USAGE
    except OSError as exc:  # an output that cannot be written
        _err(f"{exc.filename}: cannot write ({exc.strerror})" if exc.filename else str(exc))
        return EXIT_USAGE
    except KeyboardInterrupt:
        _err("interrupted")
        return EXIT_INTERRUPTED


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
