"""Collecting model responses over a chat-completions style HTTP endpoint.

The output file doubles as the resume journal: records are appended as they
arrive, one write per line, and a rerun only requests the ids that are not
already present.  A last line cut off by a killed run is mended on resume.
Failures are retried with exponential backoff, then recorded without
stopping the run; the sidecar errors file is replaced at the end of a run,
so an interrupted run leaves the previous one's in place.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path

import requests

from .records import decode_json, read_instructions, read_responses
from .rules import Instruction

TRANSIENT_STATUS = frozenset({429, 500, 502, 503, 504})
MAX_ATTEMPTS = 3
_MEND_BLOCK = 1 << 16  # bytes read at a time when looking for a torn tail's start


class ConfigError(ValueError):
    """The endpoint configuration is unusable (a value out of range, no
    credential)."""


@dataclass
class EndpointConfig:
    base_url: str
    model: str
    credential_env: str
    temperature: float = 0.7
    top_p: float = 1.0
    max_tokens: int = 1024
    timeout_s: float = 60.0
    max_in_flight: int = 4
    retry_backoff_s: float = 0.5

    def __post_init__(self) -> None:
        for name in ("temperature", "top_p", "timeout_s", "retry_backoff_s"):
            value = getattr(self, name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, not {value}")
        for name in ("timeout_s", "max_tokens", "max_in_flight"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0, not {getattr(self, name)}")
        if self.retry_backoff_s < 0:
            raise ConfigError(f"retry_backoff_s must be >= 0, not {self.retry_backoff_s}")

    def credential(self) -> str:
        value = os.environ.get(self.credential_env, "")
        if not value:
            raise ConfigError(f"environment variable {self.credential_env} is empty or unset")
        return value


@dataclass
class CollectResult:
    requested: int
    completed: int
    skipped: int
    failed: tuple[str, ...]

    @property
    def partial(self) -> bool:
        return bool(self.failed)


def _post_once(config: EndpointConfig, key: str, prompt: str) -> str:
    url = config.base_url.rstrip("/") + "/chat/completions"
    payload = {
        "model": config.model,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": config.temperature,
        "top_p": config.top_p,
        "max_tokens": config.max_tokens,
    }
    response = requests.post(
        url,
        json=payload,
        headers={"Authorization": f"Bearer {key}"},
        timeout=config.timeout_s,
    )
    if response.status_code in TRANSIENT_STATUS:
        raise _Transient(f"HTTP {response.status_code}")
    if response.status_code != 200:
        raise _Permanent(f"HTTP {response.status_code}: {response.text[:200]}")
    try:
        content = response.json()["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise _Permanent(f"unexpected response body: {exc!r}") from exc
    if not isinstance(content, str):
        raise _Permanent("response content is not a string")
    return content


class _Transient(RuntimeError):
    pass


class _Permanent(RuntimeError):
    pass


def _request_with_retries(config: EndpointConfig, key: str, instruction: Instruction) -> tuple[str, float]:
    last_error: Exception | None = None
    for attempt in range(MAX_ATTEMPTS):
        started = time.monotonic()
        try:
            text = _post_once(config, key, instruction.prompt)
            return text, time.monotonic() - started
        except _Permanent:
            raise
        except (_Transient, requests.ConnectionError, requests.Timeout) as exc:
            last_error = exc
            if attempt < MAX_ATTEMPTS - 1:
                time.sleep(config.retry_backoff_s * (2**attempt))
    raise RuntimeError(f"gave up after {MAX_ATTEMPTS} attempts: {last_error}")


def _mend_journal(path: Path) -> None:
    """Finish or drop a last line that a killed run left without its newline.

    A tail that parses is a whole record and only gets its newline; any other
    tail is cut off, so its id is requested again.
    """
    with open(path, "rb+") as fh:
        size = fh.seek(0, os.SEEK_END)
        if size == 0:
            return
        fh.seek(size - 1)
        if fh.read(1) == b"\n":
            return
        # read backwards up to the last newline, so only the tail is held
        blocks: list[bytes] = []
        cut = size
        while cut > 0:
            start = max(0, cut - _MEND_BLOCK)
            fh.seek(start)
            block = fh.read(cut - start)
            newline = block.rfind(b"\n") + 1
            blocks.append(block[newline:])
            cut = start + newline
            if newline:
                break
        try:
            decode_json(b"".join(reversed(blocks)).decode("utf-8"))
        except ValueError:  # not UTF-8, or not JSON
            fh.truncate(cut)
        else:
            fh.seek(size)
            fh.write(b"\n")


def _write_errors(path: Path, errors: list[tuple[str, str]]) -> None:
    """Replace the sidecar at `path` with one (id, error) line per failure,
    sorted by id, in one rename; remove it when there are none."""
    if not errors:
        path.unlink(missing_ok=True)
        return
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        for id_, error in sorted(errors):
            fh.write(json.dumps({"id": id_, "error": error}, ensure_ascii=False) + "\n")
    os.replace(tmp, path)


def collect(
    instructions_path: str | Path,
    config: EndpointConfig,
    output_path: str | Path,
) -> CollectResult:
    """Request a response for every instruction that the journal lacks.

    At most ``config.max_in_flight`` requests are outstanding at once.  Each
    output record carries the measured request latency; failures go to
    ``<output>.errors.jsonl``, written when the run ends, and leave the run
    with a partial result.
    """
    key = config.credential()
    instructions = read_instructions(instructions_path)
    output_path = Path(output_path)
    output_path.touch()  # an unwritable journal fails here, before any request
    _mend_journal(output_path)
    done = set(read_responses(output_path))
    pending = [i for i in instructions if i.id not in done]

    write_lock = threading.Lock()
    errors: list[tuple[str, str]] = []

    def fetch(instruction: Instruction) -> None:
        try:
            text, latency = _request_with_retries(config, key, instruction)
        except (RuntimeError, requests.RequestException) as exc:
            with write_lock:
                errors.append((instruction.id, str(exc)))
            return
        record = {"id": instruction.id, "response": text, "latency_s": round(latency, 4)}
        with write_lock:
            with open(output_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")

    with ThreadPoolExecutor(max_workers=config.max_in_flight) as pool:
        futures = [pool.submit(fetch, instruction) for instruction in pending]
        for future in as_completed(futures):
            future.result()

    _write_errors(output_path.with_name(output_path.name + ".errors.jsonl"), errors)
    return CollectResult(
        requested=len(pending),
        completed=len(pending) - len(errors),
        skipped=len(done),
        failed=tuple(sorted(id_ for id_, _ in errors)),
    )
