"""Stub OpenAI-compatible chat-completions endpoint for the `reformer` workload.

Serves POST /v1/chat/completions with a fixed service time (SERVICE_S) and a
reply that is a pure function of the request messages, and GET /stats with
the number of completions served. It speaks HTTP/1.1, so a client that keeps
its connection open (a `requests.Session`) reuses it across calls. Run as a
script it binds 127.0.0.1 on a free port, prints the port on the first line
of stdout, and serves until terminated:

    python3 bench/stub.py
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_WORD_RE = re.compile(r"[a-z]+")
# About one reply in EMPTY_EVERY is empty, so the generator's re-ask and identity
# fallback paths run on every seed.
EMPTY_EVERY = 20
EXPANSION_WORDS = 3
SERVICE_S = 0.020


def reply_for(messages: list[dict]) -> str:
    """Deterministic reformulation: the query plus words picked from its passages."""
    joined = "\n".join(f"{m['role']}:{m['content']}" for m in messages)
    digest = hashlib.sha256(joined.encode("utf-8")).digest()
    if digest[0] % EMPTY_EVERY == 0:
        return ""
    user = next((m["content"] for m in reversed(messages) if m["role"] == "user"), "")
    lines = user.splitlines()
    query = next((ln[len("Query: "):] for ln in reversed(lines) if ln.startswith("Query: ")), "")
    words = [w for ln in lines if ln.startswith("- ") for w in _WORD_RE.findall(ln)]
    if not words:
        return query
    picks = [words[digest[1 + i] * len(words) // 256] for i in range(EXPANSION_WORDS)]
    return " ".join([query, *picks]).strip()


def completion_body(messages: list[dict], content: str) -> dict:
    prompt_tokens = sum(len(m["content"].split()) for m in messages)
    return {
        "object": "chat.completion",
        "choices": [
            {
                "index": 0,
                "message": {"role": "assistant", "content": content},
                "finish_reason": "stop",
            }
        ],
        "usage": {"prompt_tokens": prompt_tokens, "completion_tokens": len(content.split())},
    }


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address, service_s: float = SERVICE_S):
        super().__init__(address, _Handler)
        self.service_s = service_s
        self.served = 0
        self.lock = threading.Lock()


class _Handler(BaseHTTPRequestHandler):
    server: StubServer
    protocol_version = "HTTP/1.1"

    def do_POST(self):
        # Read the whole body first: on a kept-alive connection, unread bytes
        # would be taken for the next request.
        data = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.path != "/v1/chat/completions":
            self._send(404, {"error": "not found"})
            return
        try:
            messages = json.loads(data)["messages"]
            content = reply_for(messages)
        except (ValueError, KeyError, TypeError) as exc:
            self._send(400, {"error": str(exc)})
            return
        time.sleep(self.server.service_s)
        with self.server.lock:
            self.server.served += 1
        self._send(200, completion_body(messages, content))

    def do_GET(self):
        if self.path != "/stats":
            self._send(404, {"error": "not found"})
            return
        with self.server.lock:
            served = self.server.served
        self._send(200, {"served": served})

    def _send(self, status: int, payload: dict) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format, *args):
        pass


def main() -> int:
    with StubServer(("127.0.0.1", 0)) as server:
        print(server.server_address[1], flush=True)
        server.serve_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main())
