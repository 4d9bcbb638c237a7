"""Shared fixtures: the highway disambiguation pair used across the suite,
and a mock SPARQL endpoint for everything that would otherwise need a
network.

Q1967298 and Q1967342 share the label "National Highway" and differ only
in their description triples, which is the smallest store exercising the
whole context pipeline.
"""

import json
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from kgned.kg import store_from_rows
from kgned.sparql import ENTITY_PREFIX, local_id

HIGHWAY_TRIPLES = [
    # Q1967298: three 1-hop rows (description, label, date modified) and
    # two 2-hop rows.
    ("Q1967298", "description", "highway system in Australia", 1, True),
    ("Q1967298", "label", "National Highway", 1, True),
    ("Q1967298", "dateModified", "31 May 2019", 1, True),
    ("Q1967298", "country", "Q408", 2, False),
    ("Q1967298", "partOf", "Q83620", 2, False),
    ("Q1967342", "description", "highway network in India", 1, True),
    ("Q1967342", "label", "National Highway", 1, True),
]

HIGHWAY_LABELS = [
    ("Q1967298", "label", "National Highway"),
    ("Q1967298", "description", "highway system in Australia"),
    ("Q1967342", "label", "National Highway"),
    ("Q1967342", "description", "highway network in India"),
    ("dateModified", "label", "date modified"),
    ("country", "label", "country"),
    ("partOf", "label", "part of"),
    ("Q408", "label", "Australia"),
    ("Q83620", "label", "road network"),
]


@pytest.fixture
def highway_store():
    return store_from_rows(HIGHWAY_TRIPLES, HIGHWAY_LABELS)


@pytest.fixture
def highway_vocab(highway_store):
    from kgned.context import verbalize
    from kgned.tokenizer import build_vocab

    lines = ["The National Highway connects Sydney and Canberra.",
             "national highway"]
    for triple in highway_store.all_triples():
        lines.append(verbalize(highway_store, triple).text)
    return build_vocab(lines)


# -- mock SPARQL endpoint ------------------------------------------------

DESCRIPTION_URI = "http://schema.org/description"
RDFS_LABEL_URI = "http://www.w3.org/2000/01/rdf-schema#label"
DATE_MODIFIED_URI = "http://schema.org/dateModified"


def entity_binding(qid):
    return {"type": "uri", "value": ENTITY_PREFIX + qid}


def uri_binding(uri):
    return {"type": "uri", "value": uri}


def literal_binding(text):
    return {"type": "literal", "value": text}


def triple_binding(relation, tail):
    return {"relation": relation, "tail": tail}


class _MockHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        mock = self.server.mock
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length).decode("utf-8")
        query = urllib.parse.parse_qs(body).get("query", [""])[0]
        with mock.lock:
            mock.queries.append(query)
            if mock.drop_remaining > 0:
                mock.drop_remaining -= 1
                self.connection.close()
                return
        if mock.behavior == "http-error" or any(e in query for e in mock.fail_entities):
            self.send_response(500)
            self.end_headers()
            return
        if mock.behavior == "not-json":
            self._reply(b"<html>down for maintenance</html>")
            return
        if mock.behavior == "bad-shape":
            self._reply(json.dumps({"head": {}}).encode("utf-8"))
            return
        bindings = self._dispatch(mock, query)
        self._reply(json.dumps({"results": {"bindings": bindings}}).encode("utf-8"))

    def _dispatch(self, mock, query):
        if "VALUES ?subject" in query:
            rows = []
            for uri, entries in mock.labels.items():
                if f"<{uri}>" not in query:
                    continue
                for kind, text in entries:
                    rows.append({"subject": {"type": "uri", "value": uri},
                                 "kind": literal_binding(kind),
                                 "text": literal_binding(text)})
            return rows
        seed = local_id(query.split("<", 1)[1].split(">", 1)[0])
        table = mock.hop2 if "?mid" in query else mock.hop1
        return table.get(seed, [])

    def _reply(self, payload):
        self.send_response(200)
        self.send_header("Content-Type", "application/sparql-results+json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


class MockEndpoint:
    """In-process SPARQL endpoint answering the three query shapes the
    client sends (hop 1, hop 2, label lookup) from in-memory tables.  Can
    be told to misbehave so the error taxonomy is reachable offline."""

    def __init__(self):
        self.hop1 = {}
        self.hop2 = {}
        self.labels = {}
        self.queries = []
        self.behavior = None
        self.fail_entities = set()
        self.drop_remaining = 0
        self.lock = threading.Lock()
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _MockHandler)
        self._server.mock = self
        # A short shutdown poll keeps teardown fast; the default is 0.5 s.
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        kwargs={"poll_interval": 0.05}, daemon=True)
        self._thread.start()
        self.url = f"http://127.0.0.1:{self._server.server_address[1]}/sparql"

    def stop(self):
        self._server.shutdown()
        self._server.server_close()

    def seed_highway(self):
        self.hop1["Q1967298"] = [
            triple_binding(uri_binding(DESCRIPTION_URI),
                           literal_binding("highway system in Australia")),
            triple_binding(uri_binding(RDFS_LABEL_URI),
                           literal_binding("National Highway")),
            triple_binding(uri_binding(DATE_MODIFIED_URI),
                           literal_binding("31 May 2019")),
        ]
        self.labels[ENTITY_PREFIX + "Q1967298"] = [("label", "National Highway")]
        self.labels[DESCRIPTION_URI] = [("label", "description")]
        self.labels[RDFS_LABEL_URI] = [("label", "label")]
        self.labels[DATE_MODIFIED_URI] = [("label", "date modified")]


@pytest.fixture
def mock():
    endpoint = MockEndpoint()
    yield endpoint
    endpoint.stop()
