"""Collecting model responses over a chat-completions style HTTP endpoint.

The output file doubles as the resume journal: records are appended as they
arrive, one write per line, and a rerun only requests the ids that are not
already present.  A last line cut off by a killed run is mended on resume.
Each request in flight holds one HTTP connection for its attempts and
hands it to the next request, so a run opens about as many connections as
it has requests in flight.  Failures are retried with exponential backoff,
then recorded without stopping the run; the sidecar errors file is
replaced at the end of a run, so an interrupted run leaves the previous
one's in place.
"""

from __future__ import annotations

import base64
import json
import math
import os
import socket
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass
from http.client import HTTPConnection, HTTPException, HTTPSConnection
from itertools import islice
from pathlib import Path
from typing import Callable
from urllib.parse import unquote, urlsplit
from urllib.request import getproxies, proxy_bypass

import requests  # noqa: F401  (read only by bench/spans.py Tracer.install)

from . import __version__
from .records import decode_json, read_instructions, read_responses
from .rules import Instruction

TRANSIENT_STATUS = frozenset({429, 500, 502, 503, 504})
MAX_ATTEMPTS = 3
_MEND_BLOCK = 1 << 16  # bytes read at a time when looking for a torn tail's start
_QUICKACK = getattr(socket, "TCP_QUICKACK", None)  # Linux only


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
        if "@" in url.netloc:
            # http.client would drop it unsent; the key comes from credential_env
            raise ConfigError("base_url must hold no user info ('user@' or 'user:password@' before the host)")
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


@dataclass(frozen=True)
class _Route:
    """How every attempt of one run reaches the endpoint."""

    connection: Callable[[], HTTPConnection]  # a new one, opened on its first request
    target: str  # the request line's target
    headers: dict[str, str]


def _route(config: EndpointConfig, key: str) -> _Route:
    """The route to `config`'s endpoint, through the proxy that the
    environment names for its scheme unless its host is exempt."""
    url = urlsplit(config.base_url)
    full = config.base_url.rstrip("/") + "/chat/completions"
    headers = {
        "Content-Type": "application/json",
        "Authorization": f"Bearer {key}",
        "User-Agent": f"lexcheck/{__version__}",
    }
    tls = url.scheme == "https"
    proxy = getproxies().get(url.scheme)
    if not proxy or proxy_bypass(url.netloc):
        kind = HTTPSConnection if tls else HTTPConnection
        return _Route(lambda: kind(url.netloc, timeout=config.timeout_s), urlsplit(full).path, headers)
    # a proxy is given as a URL or as a bare "[user:password@]host[:port]"
    proxy_url = urlsplit(proxy if "://" in proxy else "http://" + proxy)
    userinfo, _, hostport = proxy_url.netloc.rpartition("@")
    user, _, password = userinfo.partition(":")
    proxy_headers = {}
    if user and password:
        pair = f"{unquote(user)}:{unquote(password)}".encode("utf-8")
        proxy_headers["Proxy-Authorization"] = "Basic " + base64.b64encode(pair).decode("ascii")
    if tls:  # a CONNECT tunnel, so TLS runs from here to the endpoint's host

        def tunnel() -> HTTPConnection:
            connection = HTTPSConnection(hostport, timeout=config.timeout_s)
            connection.set_tunnel(url.netloc, headers=proxy_headers)
            return connection

        return _Route(tunnel, urlsplit(full).path, headers)
    kind = HTTPSConnection if proxy_url.scheme == "https" else HTTPConnection
    return _Route(lambda: kind(hostport, timeout=config.timeout_s), full, headers | proxy_headers)


def _post_once(connection: HTTPConnection, route: _Route, body: bytes) -> str:
    """One attempt.  The connection is closed, to be opened again by the
    next attempt, unless its reply was read to the end and keeps it open,
    so a late or unread reply is never read as a later request's."""
    try:
        connection.request("POST", route.target, body, route.headers)
        if _QUICKACK is not None:
            # ack the reply's first segment at once: a server that sends its
            # headers and body in two writes with Nagle on waits for that ack
            connection.sock.setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)
        with connection.getresponse() as response:
            status = response.status
            # an error reply is read as far as its excerpt: the first 200
            # characters, which 800 bytes hold in UTF-8
            data = response.read() if status == 200 else response.read(800)
            read_to_end = response.isclosed()
    except BaseException:  # a timeout too; re-raised
        connection.close()
        raise
    # http.client itself closes a connection whose reply ends it
    # (Connection: close, or HTTP/1.0 without keep-alive)
    if not read_to_end:
        connection.close()
    if status in TRANSIENT_STATUS:
        raise _Transient(f"HTTP {status}")
    if status != 200:  # another 2xx: only 200 carries a completion
        raise _Permanent(f"HTTP {status}: {data.decode('utf-8', 'replace')[:200]}")
    try:
        content = decode_json(data.decode("utf-8"))["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        raise _Permanent(f"unexpected response body: {exc!r}") from exc
    if not isinstance(content, str):
        raise _Permanent("response content is not a string")
    return content


class _Transient(RuntimeError):
    pass


class _Permanent(RuntimeError):
    pass


def _request_with_retries(
    idle: list[HTTPConnection], route: _Route, config: EndpointConfig, instruction: Instruction
) -> tuple[str, float]:
    """Send `instruction` over an idle connection of the run, or a new one,
    and hand the connection back for the next request."""
    payload = {
        "model": config.model,
        "messages": [{"role": "user", "content": instruction.prompt}],
        "temperature": config.temperature,
        "top_p": config.top_p,
        "max_tokens": config.max_tokens,
    }
    body = json.dumps(payload).encode("utf-8")
    last_error: Exception | None = None
    try:
        connection: HTTPConnection | None = idle.pop()
    except IndexError:
        connection = None
    try:
        for attempt in range(MAX_ATTEMPTS):
            started = time.monotonic()
            try:
                if connection is None:  # made in the attempt: a proxy's bad port fails it
                    connection = route.connection()
                text = _post_once(connection, route, body)
                return text, time.monotonic() - started
            # socket errors and timeouts are OSErrors; a reply cut short or
            # without a status line raises an HTTPException
            except (_Transient, OSError, HTTPException) as exc:
                last_error = exc
                if attempt < MAX_ATTEMPTS - 1:
                    time.sleep(config.retry_backoff_s * (2**attempt))
    finally:
        if connection is not None:
            idle.append(connection)
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

    route = _route(config, key)  # reads the proxy variables once per run
    errors: list[tuple[str, str]] = []
    # worker threads only send requests; this thread records every outcome
    # at most max_in_flight: a request holds one from its first attempt to its last
    idle: list[HTTPConnection] = []
    with open(output_path, "a", encoding="utf-8") as journal:
        pool = ThreadPoolExecutor(max_workers=config.max_in_flight)
        try:
            # the next request is submitted only once an outcome is recorded
            unsent = iter(pending)
            futures = {}

            def send(n: int) -> None:
                for i in islice(unsent, n):
                    futures[pool.submit(_request_with_retries, idle, route, config, i)] = i.id

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
            for connection in idle:  # every worker has handed its connection back
                connection.close()

    _write_errors(output_path.with_name(output_path.name + ".errors.jsonl"), errors)
    return CollectResult(
        requested=len(pending),
        completed=len(pending) - len(errors),
        skipped=len(done),
        failed=tuple(sorted(id_ for id_, _ in errors)),
    )
