"""Timing in reference seconds, so that the host's CPU speed cancels out.

On a 2-vCPU VM whose cores other tenants share, the same work takes from
1x to 2x its fastest time, switching within seconds, and the process's CPU
time moves with its wall time, so neither clock is steady.
:class:`SpeedClock` samples the speed while the timed work runs: a
``SIGALRM`` every ``INTERVAL_S`` runs a fixed piece of pure-Python
reference work (:func:`reference_work`, which does not use lexcheck) and
takes its thread CPU time (:func:`reference_sample`).  Each interval of the
work is scaled by ``NOMINAL_S / sample``, the speed measured right after
it; the samples' own time is left out.  The result is the time the work
would take on a host where one sample takes ``NOMINAL_S`` seconds
("reference seconds").

The raw wall time, less the samples, is kept too (``raw_s``).  The clock
acts on the main thread only and must not be nested.
"""

from __future__ import annotations

import re
import signal
import time
import unicodedata

NOMINAL_S = 0.001
INTERVAL_S = 0.2

_TEXT = (
    "Sure! Here is a detailed answer, e.g. for Dr. Smith: the model's 3 rules hold.\n"
    "- First, count the words; second, check the bullets (see below).\n"
    "今天天气很好，我们去公园散步。数据显示，第一点很重要！答案是42。\n"
    "## Summary\nIn short, that is the whole picture... I hope this helps?\n"
) * 3
_TOKENS = re.compile(r"\w+|[^\w\s]")
_ROUNDS = 6


def reference_work() -> int:
    """A fixed mix of regex, dict, str and unicodedata work (about 1 ms on a fast host)."""
    total = 0
    for _ in range(_ROUNDS):
        counts: dict[str, int] = {}
        for token in _TOKENS.findall(_TEXT):
            counts[token.lower()] = counts.get(token.lower(), 0) + 1
        total += sum(1 for ch in _TEXT if unicodedata.category(ch)[0] == "L")
        total += sum(len(line.split()) for line in _TEXT.splitlines() if line.strip())
        total += len(counts)
    return total


def reference_sample() -> float:
    """CPU seconds of one :func:`reference_work`, run warm: a first, untimed
    run refills the caches the program has just used.  Thread CPU time, so
    that waiting for the GIL while the program's own threads run is not
    counted."""
    reference_work()
    start = time.thread_time()
    reference_work()
    return time.thread_time() - start


class SpeedClock:
    """Context manager timing its body in reference seconds (``ref_s``)."""

    def __init__(self) -> None:
        self.ref_s = 0.0
        self.raw_s = 0.0
        self.samples: list[float] = []
        self._mark = 0.0
        self._previous = None

    def _account(self, now: float) -> None:
        sample = reference_sample()
        span = now - self._mark
        self.raw_s += span
        self.ref_s += span * NOMINAL_S / sample
        self.samples.append(sample)

    def _on_alarm(self, signum, frame) -> None:
        self._account(time.perf_counter())
        self._mark = time.perf_counter()

    def __enter__(self) -> "SpeedClock":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        now = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._account(now)
