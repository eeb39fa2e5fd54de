"""Chat-completions stub server for the ``collect`` workload.

Run as its own process::

    python3 bench/stub.py --instructions FILE --seed N --port-file PATH

It binds an ephemeral port on 127.0.0.1, writes the port number to
``--port-file`` once it is listening, and serves until terminated.

``POST /chat/completions`` maps the prompt back to its instruction id (via
the instruction file) and answers at once with the seeded long-form reply
for that id.  Faults are seeded per id (see :func:`fault_of`): a transient
id gets one 503 and then succeeds, a permanent id always gets 404.  The
server counts API connections and attempts per id; ``GET /stats`` returns
the counts and resets them.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from textgen import long_response

TRANSIENT_SHARE = 0.05
PERMANENT_SHARE = 0.01


def fault_of(seed: int, instruction_id: str) -> str | None:
    """'permanent', 'transient' or None for one id under one seed."""
    roll = random.Random(f"fault:{seed}:{instruction_id}").random()
    if roll < PERMANENT_SHARE:
        return "permanent"
    if roll < PERMANENT_SHARE + TRANSIENT_SHARE:
        return "transient"
    return None


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # lets a client keep connections alive

    def setup(self) -> None:
        super().setup()
        self.counted = False

    def do_POST(self) -> None:
        server = self.server
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length))
        prompt = payload["messages"][0]["content"]
        instruction_id, language = server.by_prompt[prompt]
        with server.lock:
            if not self.counted:
                self.counted = True
                server.connections += 1
            seen = server.attempts.get(instruction_id, 0)
            server.attempts[instruction_id] = seen + 1
        fault = fault_of(server.seed, instruction_id)
        if fault == "permanent":
            self._reply(404, b"no such model output")
        elif fault == "transient" and seen == 0:
            self._reply(503, b"busy")
        else:
            text = long_response(server.seed, instruction_id, language)
            body = {"choices": [{"message": {"role": "assistant", "content": text}}]}
            self._reply(200, json.dumps(body).encode("utf-8"), "application/json")

    def do_GET(self) -> None:
        server = self.server
        with server.lock:
            stats = {"connections": server.connections, "attempts": server.attempts}
            server.connections = 0
            server.attempts = {}
        self._reply(200, json.dumps(stats).encode("utf-8"), "application/json")

    def _reply(self, status: int, body: bytes, content_type: str = "text/plain") -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *_args) -> None:
        pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--instructions", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--port-file", required=True)
    args = parser.parse_args()

    by_prompt: dict[str, tuple[str, str]] = {}
    for line in Path(args.instructions).read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record["prompt"] in by_prompt:
            print(f"stub: prompt of {record['id']} is not unique", file=sys.stderr)
            return 1
        by_prompt[record["prompt"]] = (record["id"], record["language"])

    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.daemon_threads = True
    server.lock = threading.Lock()
    server.seed = args.seed
    server.by_prompt = by_prompt
    server.connections = 0
    server.attempts = {}
    port_file = Path(args.port_file)
    tmp = port_file.with_suffix(".tmp")
    tmp.write_text(str(server.server_address[1]), encoding="utf-8")
    tmp.replace(port_file)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
