"""Timed passes of one workload's user journey, in a fresh process.

``run.py`` starts this after set-up::

    python3 bench/journey.py --workload NAME --work DIR --seconds S --trace 0|1

It reads ``DIR/manifest.json``, runs passes of the journey (each pass is
the manifest's ``lexcheck.cli.main`` calls) in one closed loop until
``S`` seconds of wall time have passed, and writes ``DIR/journey.json`` with
the time of every pass in reference seconds (``walls``, see ``speed.py``)
and in wall seconds (``raw_walls``), the process's peak RSS after the
untraced passes and, with ``--trace 1``, the per-layer figures of a second,
traced loop.  With ``--trace 1`` each loop gets ``S/2``.  The spans of the
traced loop are written to ``DIR/spans.tsv``; they include the speed
samples that land inside them (about 1 % of the time).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

import lexcheck.cli  # noqa: E402

from spans import Tracer, layer_metrics  # noqa: E402
from speed import SpeedClock  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


def run_passes(workload: Workload, work: Path, manifest: dict, seconds: float, prefix: str, main) -> dict:
    walls: list[float] = []
    raw_walls: list[float] = []
    samples: list[float] = []
    tags: list[str] = []
    bad_exits: list[str] = []
    while True:
        workload.before_pass(work, manifest)
        gc.collect()
        with SpeedClock() as clock:
            codes = [main(argv) for argv in manifest["passes"]]
        walls.append(clock.ref_s)
        raw_walls.append(clock.raw_s)
        samples.extend(clock.samples)
        tag = f"{prefix}{len(tags)}"
        tags.append(tag)
        workload.after_pass(work, manifest, tag)
        if codes != manifest["exit_codes"]:
            bad_exits.append(f"pass {tag} exited {codes}, expected {manifest['exit_codes']}")
        if sum(raw_walls) >= seconds:
            return {
                "walls": walls, "raw_walls": raw_walls, "samples": samples,
                "tags": tags, "bad_exits": bad_exits,
            }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    work = Path(args.work)
    manifest = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
    seconds = args.seconds / 2 if args.trace else args.seconds
    plain = run_passes(workload, work, manifest, seconds, "p", lexcheck.cli.main)
    result = {
        "manifest": manifest,
        "walls": plain["walls"],
        "raw_walls": plain["raw_walls"],
        "samples": plain["samples"],
        "tags": plain["tags"],
        "bad_exits": plain["bad_exits"],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(
                workload, work, manifest, seconds, "t", tracer.wrap(lexcheck.cli.main, "cli.main")
            )
        finally:
            tracer.uninstall()
        layers = layer_metrics(tracer.spans, len(traced["tags"]), manifest["rules"])
        layers.update(workload.trace_extras(work, manifest, traced["tags"]))
        layers["trace.overhead_ratio"] = statistics.median(traced["walls"]) / statistics.median(plain["walls"])
        tracer.write(str(work / "spans.tsv"))
        result["tags"] += traced["tags"]
        result["bad_exits"] += traced["bad_exits"]
        result["traced_walls"] = traced["walls"]
        result["layers"] = layers
    (work / "journey.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
