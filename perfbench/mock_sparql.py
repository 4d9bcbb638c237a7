"""Stdlib SPARQL endpoint for the crawl phase, run in its own process.

It answers the three query shapes ``kgned.sparql`` sends (hop 1, hop 2
and the label lookup) from tables written by ``gen.mock_tables``, and
answers HTTP 500 to every query that names one of the ``fail`` IRIs.

    python3 perfbench/mock_sparql.py --tables tables.json

prints ``PORT <n>`` once it listens on 127.0.0.1 and serves until it is
terminated.  ``GET /stats`` returns the query and failure counts.
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import sys
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_IRI = re.compile(r"<([^>]*)>")
_LIMIT = re.compile(r"LIMIT\s+(\d+)")


def answer(tables: dict, query: str) -> list[dict] | None:
    """Result bindings for ``query``, or None when it must fail with 500."""
    if any(f"<{iri}>" in query for iri in tables["fail"]):
        return None
    if "VALUES ?subject" in query:
        values = query.split("VALUES ?subject", 1)[1].split("}", 1)[0]
        rows = []
        for iri in _IRI.findall(values):
            for kind, text in tables["labels"].get(iri, ()):
                rows.append({"subject": {"type": "uri", "value": iri},
                             "kind": {"type": "literal", "value": kind},
                             "text": {"type": "literal", "value": text}})
        return rows
    seed = _IRI.search(query).group(1).rsplit("/", 1)[-1]
    table = tables["hop2"] if "?mid" in query else tables["hop1"]
    rows = table.get(seed, [])
    limit = _LIMIT.search(query)
    return rows[: int(limit.group(1))] if limit else rows


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        server = self.server
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length).decode("utf-8")
        query = urllib.parse.parse_qs(body).get("query", [""])[0]
        bindings = answer(server.tables, query)
        with server.lock:
            server.stats["queries"] += 1
            server.stats["failures"] += bindings is None
        if bindings is None:
            self.send_response(500)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        self._reply(json.dumps({"results": {"bindings": bindings}}).encode("utf-8"),
                    "application/sparql-results+json")

    def do_GET(self):
        with self.server.lock:
            payload = json.dumps(self.server.stats).encode("utf-8")
        self._reply(payload, "application/json")

    def _reply(self, payload: bytes, content_type: str):
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


def make_server(tables: dict) -> ThreadingHTTPServer:
    """A server bound to a free localhost port; call ``serve_forever``."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.daemon_threads = True
    server.tables = {**tables, "fail": frozenset(tables["fail"])}
    server.stats = {"queries": 0, "failures": 0}
    server.lock = threading.Lock()
    return server


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tables", required=True, help="JSON from gen.mock_tables")
    args = parser.parse_args(argv)
    with open(args.tables, encoding="utf-8") as fh:
        server = make_server(json.load(fh))
    # SIGTERM ends serve_forever through the normal interpreter exit path.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
