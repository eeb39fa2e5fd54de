"""lexcheck benchmark: four oracle-checked user journeys, run in-process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: score-short, score-long, generate-merge, collect (see
``workloads.py`` and ``METRICS.md``).  A run sets the workload up
``SETUP_REPEATS`` times from ``--seed`` (reporting the median set-up time),
runs the timed passes in a fresh process (``journey.py``), then checks
every pass's outputs with the correctness gates.  Times are in reference
seconds (``speed.py``): wall time scaled by the host speed sampled while the
work runs, so that the host's own speed changes cancel out; the plain wall
times are printed on the lines before the result.  It must be started from
the root of a lexcheck source tree; it reads and writes only there, under
``.bench_work/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (``setup_s``, ``wall_ref_s``,
``throughput_ref_per_s``, ``peak_rss_mb``); with ``--trace 1`` they are the
per-layer ones, measured in a separate traced loop.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]

SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0  # the whole run, set-up and gates included
GATE_RESERVE_S = 45.0  # kept back from the journey for the gates

END_TO_END_UNITS = {"setup_s": "s", "wall_ref_s": "s", "throughput_ref_per_s": "1/s", "peak_rss_mb": "MB"}


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio") or name == "rules.validations_per_rule":
        return "ratio"
    return "count"


def main() -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("src/lexcheck/cli.py", "tests/oracle.py", "tests/helpers.py"):
        if not (ROOT / needed).is_file():
            return fail(f"{needed} is missing: run from the root of a lexcheck source tree")
    import lexcheck

    if Path(lexcheck.__file__).resolve().parent != (ROOT / "src" / "lexcheck").resolve():
        return fail(f"imported lexcheck from {lexcheck.__file__}, not from this tree")
    from speed import NOMINAL_S, SpeedClock
    from workloads import WORKLOADS, child_env

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    print(
        f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
        f"loadavg={' '.join(f'{x:.2f}' for x in os.getloadavg())} "
        "(2-core box: multi-core scaling untested)"
    )
    run_dir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    state = None
    try:
        setup_times = []
        setup_raw = []
        for k in range(SETUP_REPEATS):
            if state is not None:
                workload.teardown(state)
                shutil.rmtree(work)
            work = run_dir / f"setup{k}"
            work.mkdir(parents=True)
            with SpeedClock() as clock:
                state = workload.setup(work, args.seed)
            setup_times.append(clock.ref_s)
            setup_raw.append(clock.raw_s)

        budget = RUN_LIMIT_S - GATE_RESERVE_S - (time.monotonic() - started)
        cmd = [
            sys.executable, str(BENCH / "journey.py"), "--workload", args.workload,
            "--work", str(work), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        with open(work / "journey.log", "w", encoding="utf-8") as log:
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=child_env())
            try:
                code = proc.wait(timeout=max(budget, 1.0))
            except subprocess.TimeoutExpired:
                return fail(f"journey did not finish within {budget:.0f}s")
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if code != 0:
            tail = (work / "journey.log").read_text(encoding="utf-8")[-2000:]
            return fail(f"journey exited {code}:\n{tail}")
        journey = json.loads((work / "journey.json").read_text(encoding="utf-8"))

        gate = workload.gate(work, state, journey)
        failed = gate.failed + len(journey["bad_exits"])
        messages = journey["bad_exits"] + gate.messages
        walls = journey["walls"]
        wall = statistics.median(walls)
        items = journey["manifest"]["items"]
        if "lengths" in state:
            print(f"responses: chars {json.dumps(state['lengths'])}")
        raw = journey["raw_walls"]
        print(
            f"passes: {len(walls)} untraced, wall_ref_s min/median/max "
            f"{min(walls):.4f}/{wall:.4f}/{max(walls):.4f}, wall seconds "
            f"{min(raw):.4f}/{statistics.median(raw):.4f}/{max(raw):.4f}; "
            f"setup_s {[round(t, 4) for t in setup_times]}, wall seconds {[round(t, 4) for t in setup_raw]}"
        )
        print(
            f"speed: {len(journey['samples'])} reference samples, median "
            f"{statistics.median(journey['samples']) * 1000:.3f} ms (nominal {NOMINAL_S * 1000:g} ms)"
        )
        for message in messages:
            print(f"gate FAILED: {message}")
        print(f"gates: {'pass' if not messages else 'FAIL'} ({gate.checked} items per check)")

        if args.trace:
            kept = ROOT / ".bench_work" / f"spans-{args.workload}.tsv"
            shutil.move(work / "spans.tsv", kept)
            print(f"spans: {kept.relative_to(ROOT)}")
            values = journey["layers"]
            metrics = {k: {"value": v, "unit": layer_units(k)} for k, v in sorted(values.items())}
        else:
            values = {
                "setup_s": statistics.median(setup_times),
                "wall_ref_s": wall,
                "throughput_ref_per_s": items / wall,
                "peak_rss_mb": journey["peak_rss_kb"] / 1024.0,
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        attempted = items * len(journey["tags"])
        print(json.dumps({
            "correct": not messages,
            "attempted": attempted,
            "failed": min(max(failed, 1), attempted) if messages else 0,
            "metrics": metrics,
        }))
        return 0
    finally:
        if state is not None:
            workload.teardown(state)
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
