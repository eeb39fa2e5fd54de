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
import urllib.request
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass
from http.client import HTTPException
from itertools import islice
from pathlib import Path
from urllib.error import HTTPError
from urllib.parse import urlsplit

import requests  # noqa: F401  (read only by bench/spans.py Tracer.install)

from . import __version__
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
        if not (self.base_url.isascii() and self.base_url.isprintable()) or " " in self.base_url:
            # http.client refuses to send such a URL
            raise ConfigError(f"base_url holds a space, control or non-ASCII character: {self.base_url!r}")
        try:
            url = urlsplit(self.base_url)
            url.port  # raises ValueError for a port that is not a number in range
        except ValueError as exc:
            raise ConfigError(f"base_url {self.base_url!r}: {exc}") from exc
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ConfigError(f"base_url must be an http:// or https:// URL with a host, not {self.base_url!r}")
        if "?" in self.base_url or "#" in self.base_url:
            # "/chat/completions" is appended to the whole string
            raise ConfigError(f"base_url must hold no query or fragment ('?' or '#'), not {self.base_url!r}")
        for name in ("temperature", "top_p", "timeout_s", "retry_backoff_s"):
            value = getattr(self, name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, not {value}")
        for name in ("timeout_s", "max_tokens", "max_in_flight"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0, not {getattr(self, name)}")
        if self.retry_backoff_s < 0:
            raise ConfigError(f"retry_backoff_s must be >= 0, not {self.retry_backoff_s}")
        # a socket timeout or a sleep longer than the platform's clock can
        # hold raises OverflowError; the longest sleep is the last backoff
        if self.timeout_s > threading.TIMEOUT_MAX:
            raise ConfigError(f"timeout_s must be <= {threading.TIMEOUT_MAX}, not {self.timeout_s}")
        if self.retry_backoff_s * 2 ** (MAX_ATTEMPTS - 2) > threading.TIMEOUT_MAX:
            limit = threading.TIMEOUT_MAX / 2 ** (MAX_ATTEMPTS - 2)
            raise ConfigError(f"retry_backoff_s must be <= {limit}, not {self.retry_backoff_s}")

    def credential(self) -> str:
        value = os.environ.get(self.credential_env, "")
        if not value:
            raise ConfigError(f"environment variable {self.credential_env} is empty or unset")
        if not (value.isascii() and value.isprintable()):  # it is sent in a header line
            raise ConfigError(f"environment variable {self.credential_env} holds a control or non-ASCII character")
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


def _post_once(opener: urllib.request.OpenerDirector, config: EndpointConfig, key: str, prompt: str) -> str:
    payload = {
        "model": config.model,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": config.temperature,
        "top_p": config.top_p,
        "max_tokens": config.max_tokens,
    }
    request = urllib.request.Request(
        config.base_url.rstrip("/") + "/chat/completions",
        data=json.dumps(payload).encode("utf-8"),
        headers={
            "Content-Type": "application/json",
            "Authorization": f"Bearer {key}",
            "User-Agent": f"lexcheck/{__version__}",
        },
    )
    try:
        with opener.open(request, timeout=config.timeout_s) as response:
            if response.status != 200:  # another 2xx: only 200 carries a completion
                raise _Permanent(f"HTTP {response.status}: {_excerpt(response)}")
            body = response.read()
    except HTTPError as exc:
        with exc:
            if exc.code in TRANSIENT_STATUS:
                raise _Transient(f"HTTP {exc.code}") from None
            raise _Permanent(f"HTTP {exc.code}: {_excerpt(exc)}") from None
    try:
        content = decode_json(body.decode("utf-8"))["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        raise _Permanent(f"unexpected response body: {exc!r}") from exc
    if not isinstance(content, str):
        raise _Permanent("response content is not a string")
    return content


def _excerpt(response) -> str:
    """The first 200 characters of a reply's body; 800 bytes hold them in UTF-8."""
    return response.read(800).decode("utf-8", "replace")[:200]


class _NoRedirect(urllib.request.HTTPRedirectHandler):
    """Follow no redirect, so a 3xx reply raises HTTPError and is permanent.

    urllib would re-send every header to the Location, the bearer token
    included, whatever host or scheme (``ftp:`` too) it names.
    """

    def redirect_request(self, req, fp, code, msg, headers, newurl):
        return None


class _Transient(RuntimeError):
    pass


class _Permanent(RuntimeError):
    pass


def _request_with_retries(
    opener: urllib.request.OpenerDirector, config: EndpointConfig, key: str, instruction: Instruction
) -> tuple[str, float]:
    last_error: Exception | None = None
    for attempt in range(MAX_ATTEMPTS):
        started = time.monotonic()
        try:
            text = _post_once(opener, config, key, instruction.prompt)
            return text, time.monotonic() - started
        # URLError and socket timeouts are OSErrors; a reply cut short or
        # without a status line raises an HTTPException
        except (_Transient, OSError, HTTPException) as exc:
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

    At most ``config.max_in_flight`` requests are submitted and not yet
    recorded at once, so an interrupt leaves no queue for workers.  Each
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

    opener = urllib.request.build_opener(_NoRedirect)  # reads the proxy variables once per run
    errors: list[tuple[str, str]] = []
    # worker threads only send requests; this thread records every outcome
    with open(output_path, "a", encoding="utf-8") as journal:
        pool = ThreadPoolExecutor(max_workers=config.max_in_flight)
        try:
            # the next request is submitted only once an outcome is recorded
            unsent = iter(pending)
            futures = {}

            def send(n: int) -> None:
                for i in islice(unsent, n):
                    futures[pool.submit(_request_with_retries, opener, config, key, i)] = i.id

            send(config.max_in_flight)
            while futures:
                for future in wait(futures, return_when=FIRST_COMPLETED).done:
                    id_ = futures.pop(future)  # a kept future would hold its response until the run ends
                    try:
                        text, latency = future.result()
                    except RuntimeError as exc:
                        errors.append((id_, str(exc)))
                    else:
                        record = {"id": id_, "response": text, "latency_s": round(latency, 4)}
                        journal.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
                        journal.flush()
                    send(1)
        finally:
            # an interrupt or a failed write cancels every request not yet sent
            pool.shutdown(cancel_futures=True)

    _write_errors(output_path.with_name(output_path.name + ".errors.jsonl"), errors)
    return CollectResult(
        requested=len(pending),
        completed=len(pending) - len(errors),
        skipped=len(done),
        failed=tuple(sorted(id_ for id_, _ in errors)),
    )
