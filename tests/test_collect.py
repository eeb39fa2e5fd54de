"""Response collection against a local chat-completions stub server."""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from helpers import build_instruction
from lexcheck import collect as collect_module
from lexcheck.collect import (
    MAX_ATTEMPTS,
    CollectResult,
    ConfigError,
    EndpointConfig,
    collect,
)
from lexcheck.dsl import parse_rule
from lexcheck.records import DataError, read_config, read_responses, write_instructions


class _StubHandler(BaseHTTPRequestHandler):
    """Behavior is driven by markers embedded in the prompt text."""

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length))
        prompt = payload["messages"][0]["content"]
        with self.server.lock:
            self.server.requests.append(
                {
                    "path": self.path,
                    "auth": self.headers.get("Authorization"),
                    "payload": payload,
                    "prompt": prompt,
                }
            )
            seen = self.server.counts.get(prompt, 0)
            self.server.counts[prompt] = seen + 1
        if "PERMFAIL" in prompt:
            self._reply(404, b"gone")
            return
        if "ALWAYS500" in prompt:
            self._reply(500, b"boom")
            return
        if "FLAKY" in prompt and seen < MAX_ATTEMPTS - 1:
            self._reply(500, b"boom")
            return
        body = json.dumps(
            {"choices": [{"message": {"content": f"echo:{prompt.splitlines()[0]}"}}]}
        ).encode("utf-8")
        self._reply(200, body, content_type="application/json")

    def _reply(self, status: int, body: bytes, content_type: str = "text/plain"):
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *_args):
        pass


@pytest.fixture()
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    server.lock = threading.Lock()
    server.requests = []
    server.counts = {}
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    thread.join(timeout=5)


@pytest.fixture()
def config(stub_server, monkeypatch):
    monkeypatch.setenv("LEX_STUB_KEY", "secret-token")
    return EndpointConfig(
        base_url=f"http://127.0.0.1:{stub_server.server_address[1]}/v1",
        model="stub-model",
        credential_env="LEX_STUB_KEY",
        timeout_s=5.0,
        max_in_flight=2,
        retry_backoff_s=0.01,
    )


def make_instructions(path, prompts):
    rules = (parse_rule("sentence# >= 0"),)
    instructions = [
        build_instruction(f"en-{k:04d}", "en", prompt, rules)
        for k, prompt in enumerate(prompts)
    ]
    write_instructions(path, instructions)
    return instructions


def read_endpoint(tmp_path, data: dict) -> EndpointConfig:
    path = tmp_path / "endpoint.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return read_config(EndpointConfig, path)


class TestEndpointConfig:
    def test_read_config_requires_core_keys(self, tmp_path):
        with pytest.raises(ValueError) as info:
            read_endpoint(tmp_path, {"base_url": "http://x"})
        assert str(info.value) == "missing required keys: ['credential_env', 'model']"

    def test_read_config_ignores_unknown_keys(self, tmp_path):
        config = read_endpoint(tmp_path, {"base_url": "http://x", "model": "m", "credential_env": "E", "other": 1})
        assert config.model == "m"

    def test_read_config_from_file(self, tmp_path):
        config = read_endpoint(tmp_path, {"base_url": "http://x", "model": "m", "credential_env": "E"})
        assert config.base_url == "http://x"
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        with pytest.raises(DataError) as info:
            read_config(EndpointConfig, bad)
        assert str(info.value) == f"{bad}: malformed JSON (Expecting property name enclosed in double quotes)"
        bad.write_bytes(b'{"base_url": "http://x", "model": "\xe9", "credential_env": "E"}')
        with pytest.raises(DataError) as info:
            read_config(EndpointConfig, bad)
        assert str(info.value) == f"{bad}: not valid UTF-8 (byte 35)"

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"retry_backoff_s": -0.5}, "retry_backoff_s must be >= 0"),
            ({"timeout_s": 0.0}, "timeout_s must be > 0"),
            ({"max_tokens": -1}, "max_tokens must be > 0"),
            ({"max_in_flight": 0}, "max_in_flight must be > 0"),
        ],
    )
    def test_values_range_checked(self, overrides, message):
        with pytest.raises(ConfigError, match=message):
            EndpointConfig(base_url="http://x", model="m", credential_env="E", **overrides)

    @pytest.mark.parametrize("name", ["temperature", "top_p", "timeout_s", "retry_backoff_s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite, not {value}"):
            EndpointConfig(base_url="http://x", model="m", credential_env="E", **{name: value})

    @pytest.mark.parametrize(
        "literal, message",
        [
            ("NaN", "non-finite number NaN"),
            ("Infinity", "non-finite number Infinity"),
            ("-Infinity", "non-finite number -Infinity"),
            ("1e999", "number 1e999 is beyond the float range"),
        ],
    )
    def test_non_finite_json_numbers_refused(self, tmp_path, literal, message):
        path = tmp_path / "endpoint.json"
        path.write_text(
            f'{{"base_url": "http://x", "model": "m", "credential_env": "E", "timeout_s": {literal}}}',
            encoding="utf-8",
        )
        with pytest.raises(DataError) as info:
            read_config(EndpointConfig, path)
        assert str(info.value) == f"{path}: {message}"

    def test_zero_backoff_allowed(self):
        config = EndpointConfig(base_url="http://x", model="m", credential_env="E", retry_backoff_s=0)
        assert config.retry_backoff_s == 0

    def test_credential_missing(self, monkeypatch):
        monkeypatch.delenv("LEX_NOPE", raising=False)
        config = EndpointConfig(base_url="http://x", model="m", credential_env="LEX_NOPE")
        with pytest.raises(ConfigError, match="LEX_NOPE"):
            config.credential()


class TestCollect:
    def test_collects_everything(self, stub_server, config, tmp_path):
        ins_path = tmp_path / "ins.jsonl"
        out_path = tmp_path / "out.jsonl"
        instructions = make_instructions(ins_path, ["Alpha task.", "Beta task.", "Gamma task."])
        result = collect(ins_path, config, out_path)
        assert result == CollectResult(requested=3, completed=3, skipped=0, failed=())
        assert not result.partial
        responses = read_responses(out_path)
        assert set(responses) == {i.id for i in instructions}
        assert responses["en-0000"] == "echo:Alpha task."
        for line in out_path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            assert record["latency_s"] >= 0.0

    def test_request_shape(self, stub_server, config, tmp_path):
        ins_path = tmp_path / "ins.jsonl"
        make_instructions(ins_path, ["Solo task."])
        collect(ins_path, config, tmp_path / "out.jsonl")
        [request] = stub_server.requests
        assert request["path"] == "/v1/chat/completions"
        assert request["auth"] == "Bearer secret-token"
        payload = request["payload"]
        assert payload["model"] == "stub-model"
        assert payload["messages"] == [{"role": "user", "content": "Solo task."}]
        assert {"temperature", "top_p", "max_tokens"} <= payload.keys()

    def test_resume_skips_completed(self, stub_server, config, tmp_path):
        ins_path = tmp_path / "ins.jsonl"
        out_path = tmp_path / "out.jsonl"
        make_instructions(ins_path, ["One.", "Two."])
        first = collect(ins_path, config, out_path)
        assert first.completed == 2
        again = collect(ins_path, config, out_path)
        assert again == CollectResult(requested=0, completed=0, skipped=2, failed=())
        assert len(out_path.read_text(encoding="utf-8").splitlines()) == 2

    def test_permanent_failure_goes_to_sidecar(self, stub_server, config, tmp_path):
        ins_path = tmp_path / "ins.jsonl"
        out_path = tmp_path / "out.jsonl"
        make_instructions(ins_path, ["Fine.", "PERMFAIL now."])
        result = collect(ins_path, config, out_path)
        assert result.partial
        assert result.completed == 1
        assert result.failed == ("en-0001",)
        assert set(read_responses(out_path)) == {"en-0000"}
        errors_path = tmp_path / "out.jsonl.errors.jsonl"
        [error] = [json.loads(l) for l in errors_path.read_text().splitlines()]
        assert error["id"] == "en-0001"
        assert "404" in error["error"]
        # a permanent failure is not retried
        assert stub_server.counts["PERMFAIL now."] == 1

    def test_sidecar_recreated_per_run(self, stub_server, config, tmp_path):
        ins_path = tmp_path / "ins.jsonl"
        out_path = tmp_path / "out.jsonl"
        make_instructions(ins_path, ["PERMFAIL again."])
        collect(ins_path, config, out_path)
        collect(ins_path, config, out_path)
        errors_path = tmp_path / "out.jsonl.errors.jsonl"
        assert len(errors_path.read_text().splitlines()) == 1

    def test_sidecar_sorted_by_id(self, stub_server, config, tmp_path):
        ins_path = tmp_path / "ins.jsonl"
        out_path = tmp_path / "out.jsonl"
        make_instructions(ins_path, [f"PERMFAIL {k}." for k in range(6)] + ["Fine."])
        result = collect(ins_path, config, out_path)
        errors_path = tmp_path / "out.jsonl.errors.jsonl"
        ids = [json.loads(line)["id"] for line in errors_path.read_text().splitlines()]
        assert ids == sorted(ids) == list(result.failed) == [f"en-{k:04d}" for k in range(6)]

    def test_sidecar_removed_after_a_clean_run(self, stub_server, config, tmp_path):
        ins_path = tmp_path / "ins.jsonl"
        out_path = tmp_path / "out.jsonl"
        make_instructions(ins_path, ["Fine.", "PERMFAIL once."])
        collect(ins_path, config, out_path)
        errors_path = tmp_path / "out.jsonl.errors.jsonl"
        assert errors_path.exists()
        make_instructions(ins_path, ["Fine.", "Fine now."])
        assert not collect(ins_path, config, out_path).partial
        assert not errors_path.exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_interrupted_run_keeps_the_old_sidecar(self, stub_server, config, tmp_path, monkeypatch):
        ins_path = tmp_path / "ins.jsonl"
        out_path = tmp_path / "out.jsonl"
        make_instructions(ins_path, ["One.", "Two."])
        errors_path = tmp_path / "out.jsonl.errors.jsonl"
        old = '{"id": "en-0001", "error": "HTTP 404: gone"}\n'.encode("utf-8")
        errors_path.write_bytes(old)

        def interrupted(*_args):
            raise KeyboardInterrupt

        monkeypatch.setattr(collect_module, "_request_with_retries", interrupted)
        with pytest.raises(KeyboardInterrupt):
            collect(ins_path, config, out_path)
        assert errors_path.read_bytes() == old

    def test_transient_errors_retried_to_success(self, stub_server, config, tmp_path):
        ins_path = tmp_path / "ins.jsonl"
        out_path = tmp_path / "out.jsonl"
        make_instructions(ins_path, ["FLAKY service."])
        result = collect(ins_path, config, out_path)
        assert result.completed == 1 and not result.partial
        assert stub_server.counts["FLAKY service."] == MAX_ATTEMPTS
        assert read_responses(out_path)["en-0000"] == "echo:FLAKY service."

    def test_transient_errors_exhaust_attempts(self, stub_server, config, tmp_path):
        ins_path = tmp_path / "ins.jsonl"
        out_path = tmp_path / "out.jsonl"
        make_instructions(ins_path, ["ALWAYS500 here."])
        result = collect(ins_path, config, out_path)
        assert result.failed == ("en-0000",)
        assert stub_server.counts["ALWAYS500 here."] == MAX_ATTEMPTS
        errors_path = tmp_path / "out.jsonl.errors.jsonl"
        assert "gave up" in errors_path.read_text()

    def test_output_created_even_when_nothing_pending(self, stub_server, config, tmp_path):
        ins_path = tmp_path / "ins.jsonl"
        out_path = tmp_path / "out.jsonl"
        write_instructions(ins_path, [])
        result = collect(ins_path, config, out_path)
        assert result == CollectResult(requested=0, completed=0, skipped=0, failed=())
        assert out_path.exists()

    def test_missing_credential_checked_before_requests(self, stub_server, config, tmp_path, monkeypatch):
        monkeypatch.delenv("LEX_STUB_KEY")
        ins_path = tmp_path / "ins.jsonl"
        make_instructions(ins_path, ["Task."])
        with pytest.raises(ConfigError):
            collect(ins_path, config, tmp_path / "out.jsonl")
        assert stub_server.requests == []

    def test_connection_error_is_transient(self, config, tmp_path, monkeypatch):
        monkeypatch.setenv("LEX_STUB_KEY", "secret-token")
        dead = EndpointConfig(
            base_url="http://127.0.0.1:1/v1",
            model="m",
            credential_env="LEX_STUB_KEY",
            timeout_s=0.2,
            retry_backoff_s=0.01,
        )
        ins_path = tmp_path / "ins.jsonl"
        make_instructions(ins_path, ["Unreachable."])
        result = collect(ins_path, dead, tmp_path / "out.jsonl")
        assert result.failed == ("en-0000",)


class TestTornJournal:
    """A collector killed mid-write leaves a last line without its newline."""

    def _journal(self, path, text):
        path.write_bytes(text.encode("utf-8"))

    def test_unparsable_tail_is_dropped_and_requested_again(self, stub_server, config, tmp_path):
        ins_path = tmp_path / "ins.jsonl"
        out_path = tmp_path / "out.jsonl"
        make_instructions(ins_path, ["One.", "Two.", "Three."])
        whole = json.dumps({"id": "en-0000", "response": "kept"}) + "\n"
        self._journal(out_path, whole + '{"id": "en-0001", "resp')
        result = collect(ins_path, config, out_path)
        assert result == CollectResult(requested=2, completed=2, skipped=1, failed=())
        assert read_responses(out_path) == {
            "en-0000": "kept",
            "en-0001": "echo:Two.",
            "en-0002": "echo:Three.",
        }
        assert out_path.read_text(encoding="utf-8").startswith(whole)
        assert stub_server.counts["Two."] == 1

    def test_parsable_tail_gets_its_newline(self, stub_server, config, tmp_path):
        ins_path = tmp_path / "ins.jsonl"
        out_path = tmp_path / "out.jsonl"
        make_instructions(ins_path, ["One.", "Two."])
        tail = json.dumps({"id": "en-0000", "response": "kept"})
        self._journal(out_path, tail)
        result = collect(ins_path, config, out_path)
        assert result == CollectResult(requested=1, completed=1, skipped=1, failed=())
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == tail
        assert read_responses(out_path) == {"en-0000": "kept", "en-0001": "echo:Two."}
        assert "One." not in stub_server.counts

    def test_torn_line_mid_file_still_fails(self, stub_server, config, tmp_path):
        ins_path = tmp_path / "ins.jsonl"
        out_path = tmp_path / "out.jsonl"
        make_instructions(ins_path, ["One.", "Two."])
        whole = json.dumps({"id": "en-0001", "response": "kept"}) + "\n"
        self._journal(out_path, '{"id": "en-0000", "resp\n' + whole)
        with pytest.raises(DataError, match=r"out\.jsonl:1: malformed JSON"):
            collect(ins_path, config, out_path)
        assert stub_server.requests == []

    def test_scoring_does_not_mend(self, tmp_path):
        out_path = tmp_path / "out.jsonl"
        self._journal(out_path, '{"id": "en-0000", "resp')
        with pytest.raises(DataError, match=r"out\.jsonl:1: malformed JSON"):
            read_responses(out_path)
        assert out_path.read_text(encoding="utf-8") == '{"id": "en-0000", "resp'


class TestMendJournal:
    """The torn-tail mend reads only the tail, block by block from the end."""

    WHOLE = json.dumps({"id": "en-0000", "response": "kept"}) + "\n"

    def mend(self, path, data: bytes) -> bytes:
        path.write_bytes(data)
        collect_module._mend_journal(path)
        return path.read_bytes()

    def test_unparsable_tail_longer_than_a_block_is_cut(self, tmp_path):
        tail = '{"id": "en-0001", "response": "' + "x" * (3 * collect_module._MEND_BLOCK)
        whole = self.WHOLE.encode()
        assert self.mend(tmp_path / "out.jsonl", whole + tail.encode()) == whole

    def test_parsable_tail_longer_than_a_block_gets_its_newline(self, tmp_path):
        tail = json.dumps({"id": "en-0001", "response": "y" * (2 * collect_module._MEND_BLOCK + 7)})
        data = (self.WHOLE + tail).encode()
        assert self.mend(tmp_path / "out.jsonl", data) == data + b"\n"

    def test_tail_starting_on_a_block_boundary(self, tmp_path):
        block = collect_module._MEND_BLOCK
        first = json.dumps({"id": "en-0000", "response": "z" * block})
        first = first[: block - 3] + '"}\n'  # the newline is the last byte of a block
        tail = '{"id": "en-0001", "resp' + "w" * block
        assert self.mend(tmp_path / "out.jsonl", (first + tail).encode()) == first.encode()

    def test_tail_nested_too_deeply_is_cut(self, tmp_path):
        whole = self.WHOLE.encode()
        assert self.mend(tmp_path / "out.jsonl", whole + b"[" * 100_000) == whole

    def test_single_line_without_newline(self, tmp_path):
        line = json.dumps({"id": "en-0000", "response": "kept"}).encode()
        assert self.mend(tmp_path / "a.jsonl", line) == line + b"\n"
        assert self.mend(tmp_path / "b.jsonl", line[:-1]) == b""

    def test_whole_and_empty_journals_are_left_alone(self, tmp_path):
        assert self.mend(tmp_path / "a.jsonl", self.WHOLE.encode()) == self.WHOLE.encode()
        assert self.mend(tmp_path / "b.jsonl", b"") == b""

    def test_memory_is_bounded_by_the_tail(self, tmp_path):
        import tracemalloc

        path = tmp_path / "out.jsonl"
        line = json.dumps({"id": "en-0000", "response": "r" * 1000}) + "\n"
        with open(path, "w", encoding="utf-8") as fh:
            for _ in range(20_500):  # over 20 MB of whole lines
                fh.write(line)
            fh.write('{"id": "en-0001", "resp')
        size = path.stat().st_size
        assert size > 20_000_000
        tracemalloc.start()
        try:
            collect_module._mend_journal(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size == size - len('{"id": "en-0001", "resp')
        assert peak < 4 * collect_module._MEND_BLOCK
