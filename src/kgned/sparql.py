"""SPARQL endpoint client with a local TSV cache.

Fetches the triples around an entity (hop 1, optionally hop 2) plus the
labels of everything mentioned, and merges them into the cache files that
:func:`kgned.kg.load_store` reads.  Triple order is whatever the endpoint
returned, frozen into the cache at fetch time, because downstream ranking
depends on it.

Hop-2 triples are stored as (seed entity, second-step relation, final
tail); the intermediate entity is elided.

Error taxonomy:

* :class:`FetchError` for network-level failures (worth retrying),
* :class:`EndpointError` for non-success HTTP statuses,
* :class:`ProtocolError` for responses that are not valid SPARQL JSON
  results.
"""

from __future__ import annotations

import fcntl
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import requests

from .kg import (HOP_ONE, HOP_ONE_TWO, KIND_ALIAS, KIND_DESCRIPTION, KIND_LABEL,
                 LabelRecord, Triple, TripleStore, check_hops, load_store, save_store)

ENTITY_PREFIX = "http://www.wikidata.org/entity/"

TRIPLES_FILE = "triples.tsv"
LABELS_FILE = "labels.tsv"
MANIFEST_FILE = "fetched.tsv"

# Query templates (also documented in the README).  {uri} is the full IRI
# of the seed entity; {limit} is the server-side row bound, of which the
# client keeps at most `cap` per hop level.
QUERY_HOP_ONE = """\
SELECT ?relation ?tail WHERE {{
  <{uri}> ?relation ?tail .
}}
LIMIT {limit}"""

QUERY_HOP_TWO = """\
SELECT ?relation ?tail WHERE {{
  <{uri}> ?first ?mid .
  ?mid ?relation ?tail .
  FILTER isIRI(?mid)
}}
LIMIT {limit}"""

QUERY_LABELS = """\
SELECT ?subject ?kind ?text WHERE {{
  VALUES ?subject {{ {values} }}
  {{ ?subject <http://www.w3.org/2000/01/rdf-schema#label> ?text .
     BIND("label" AS ?kind) }}
  UNION
  {{ ?subject <http://www.w3.org/2004/02/skos/core#altLabel> ?text .
     BIND("alias" AS ?kind) }}
  UNION
  {{ ?subject <http://schema.org/description> ?text .
     BIND("description" AS ?kind) }}
  FILTER (lang(?text) = "" || langMatches(lang(?text), "en"))
}}"""


class FetchError(RuntimeError):
    """Network-level failure; the request may succeed on retry."""


class EndpointError(RuntimeError):
    """The endpoint answered with a non-success HTTP status."""


class ProtocolError(RuntimeError):
    """The endpoint answered with something other than SPARQL JSON results."""


def local_id(uri: str) -> str:
    """Local name of an IRI: the part after the last '#' or '/'."""
    if "#" in uri:
        return uri.rsplit("#", 1)[1]
    return uri.rsplit("/", 1)[-1]


def run_query(endpoint: str, query: str, timeout: float = 30.0,
              session=None, retries: int = 0) -> list[dict]:
    """POST one query, return the result bindings list."""
    http = session if session is not None else requests
    attempt = 0
    while True:
        try:
            response = http.post(
                endpoint,
                data={"query": query},
                headers={"Accept": "application/sparql-results+json"},
                timeout=timeout,
            )
            break
        except requests.RequestException as exc:
            attempt += 1
            if attempt > retries:
                raise FetchError(f"query to {endpoint} failed: {exc}") from exc
    if not 200 <= response.status_code < 300:
        raise EndpointError(f"{endpoint} returned HTTP {response.status_code}")
    try:
        payload = response.json()
    except ValueError as exc:
        raise ProtocolError(f"{endpoint}: response is not JSON") from exc
    try:
        bindings = payload["results"]["bindings"]
    except (KeyError, TypeError) as exc:
        raise ProtocolError(f"{endpoint}: missing results.bindings") from exc
    if not isinstance(bindings, list):
        raise ProtocolError(f"{endpoint}: results.bindings is not a list")
    return bindings


def _term(binding: dict, name: str):
    """(value, is_literal, uri) for one variable, or None for bnodes/absent."""
    cell = binding.get(name)
    if not isinstance(cell, dict) or "value" not in cell or "type" not in cell:
        raise ProtocolError(f"malformed binding for ?{name}: {cell!r}")
    kind = cell["type"]
    value = cell["value"]
    if kind == "uri":
        return local_id(value), False, value
    if kind in ("literal", "typed-literal"):
        return value, True, None
    return None  # blank nodes carry no usable context


@dataclass
class FetchResult:
    entity: str
    hops: str
    triples: list[Triple]
    labels: list[LabelRecord]
    from_cache: bool


def cache_files(cache_dir) -> tuple[Path, Path]:
    root = Path(cache_dir)
    return root / TRIPLES_FILE, root / LABELS_FILE


def fetched(cache_dir) -> set[tuple[str, str]]:
    """(entity, hops) pairs already recorded in the cache manifest."""
    manifest = Path(cache_dir) / MANIFEST_FILE
    done = set()
    if manifest.exists():
        for line in manifest.read_text(encoding="utf-8").splitlines():
            if line:
                entity, _, hops = line.partition("\t")
                done.add((entity, hops))
    return done


@contextmanager
def _cache_lock(cache_dir):
    # Serializes cache writes across threads and processes.
    with open(Path(cache_dir) / ".lock", "w") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fh, fcntl.LOCK_UN)


def _load_cache(cache_dir) -> TripleStore:
    triples_path, labels_path = cache_files(cache_dir)
    if triples_path.exists() and labels_path.exists():
        return load_store(str(triples_path), str(labels_path))
    return TripleStore()


def _merge(store: TripleStore, entity: str, hops: str,
           rows: list[tuple[str, str, int, bool]],
           labels: list[LabelRecord]) -> None:
    store.drop_head(entity, 1)
    if hops == HOP_ONE_TWO:
        store.drop_head(entity, 2)
    for record in labels:
        store.drop_labels(record.subject)
    for relation, tail, hop, is_literal in rows:
        store.add_triple(entity, relation, tail, hop, is_literal)
    for record in labels:
        store.add_label(record.subject, record.kind, record.text)


def fetch_remote(endpoint: str, entity: str, hops: str = HOP_ONE, cap: int = 50,
                 cache_dir=None, store: TripleStore | None = None,
                 timeout: float = 30.0, session=None, retries: int = 0,
                 force: bool = False) -> FetchResult:
    """Fetch one entity's neighborhood and labels.

    With a ``cache_dir`` the results are merged into the cache TSVs under
    a lock, and a manifest line marks the entity as done even when the
    endpoint returned nothing, so a re-run skips it.  Fetching the same
    entity twice never duplicates cache rows.  ``cap`` bounds the kept
    triples per hop level, client side.
    """
    check_hops(hops)
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)
        if not force and (entity, hops) in fetched(cache_dir):
            cached = _load_cache(cache_dir)
            triples = cached.neighbors(entity, hops)
            labels = _stored_labels(cached, entity, triples)
            if store is not None:
                _merge(store, entity, hops,
                       [(t.relation, t.tail, t.hop, t.is_literal) for t in triples], labels)
            return FetchResult(entity, hops, triples, labels, from_cache=True)

    uri = ENTITY_PREFIX + entity
    rows: list[tuple[str, str, int, bool]] = []
    label_uris: dict[str, str] = {entity: uri}
    hop_queries = [(1, QUERY_HOP_ONE)]
    if hops == HOP_ONE_TWO:
        hop_queries.append((2, QUERY_HOP_TWO))
    for hop, template in hop_queries:
        query = template.format(uri=uri, limit=max(cap * 4, cap))
        kept = 0
        for binding in run_query(endpoint, query, timeout=timeout,
                                 session=session, retries=retries):
            if kept >= cap:
                break
            relation_term = _term(binding, "relation")
            tail_term = _term(binding, "tail")
            if relation_term is None or tail_term is None:
                continue
            relation, _, relation_uri = relation_term
            tail, tail_is_literal, tail_uri = tail_term
            rows.append((relation, tail, hop, tail_is_literal))
            kept += 1
            if relation_uri:
                label_uris.setdefault(relation, relation_uri)
            if tail_uri:
                label_uris.setdefault(tail, tail_uri)

    labels = _fetch_labels(endpoint, label_uris, timeout=timeout,
                           session=session, retries=retries)

    scratch = TripleStore()
    _merge(scratch, entity, hops, rows, labels)
    triples = scratch.neighbors(entity, hops)
    # What was kept, not what was received: the same records a warm fetch returns.
    kept_labels = _stored_labels(scratch, entity, triples)

    if cache_dir is not None:
        with _cache_lock(cache_dir):
            cache_store = _load_cache(cache_dir)
            _merge(cache_store, entity, hops, rows, labels)
            triples_path, labels_path = cache_files(cache_dir)
            save_store(cache_store, str(triples_path), str(labels_path))
            manifest = Path(cache_dir) / MANIFEST_FILE
            done = fetched(cache_dir)
            if (entity, hops) not in done:
                with open(manifest, "a", encoding="utf-8") as fh:
                    fh.write(f"{entity}\t{hops}\n")
    if store is not None:
        _merge(store, entity, hops, rows, labels)
    return FetchResult(entity, hops, triples, kept_labels, from_cache=False)


def _stored_labels(store: TripleStore, entity: str, triples: list[Triple]) -> list[LabelRecord]:
    """The stored label records of ``entity``, then of each triple's head,
    relation and entity tail, in first-mention order."""
    subjects = dict.fromkeys([entity] + [s for t in triples for s in _subjects_of(t)])
    return [r for subject in subjects for r in store.stored_labels(subject)]


def _subjects_of(triple: Triple) -> list[str]:
    subjects = [triple.head, triple.relation]
    if not triple.is_literal:
        subjects.append(triple.tail)
    return subjects


_KIND_MAP = {"label": KIND_LABEL, "alias": KIND_ALIAS, "description": KIND_DESCRIPTION}
_LABEL_CHUNK = 50


def _fetch_labels(endpoint: str, label_uris: dict[str, str], timeout, session,
                  retries) -> list[LabelRecord]:
    records: list[LabelRecord] = []
    uris = list(label_uris.values())
    for start in range(0, len(uris), _LABEL_CHUNK):
        chunk = uris[start:start + _LABEL_CHUNK]
        values = " ".join(f"<{u}>" for u in chunk)
        query = QUERY_LABELS.format(values=values)
        for binding in run_query(endpoint, query, timeout=timeout,
                                 session=session, retries=retries):
            subject_term = _term(binding, "subject")
            kind_term = _term(binding, "kind")
            text_term = _term(binding, "text")
            if subject_term is None or kind_term is None or text_term is None:
                continue
            kind = _KIND_MAP.get(kind_term[0])
            if kind is None:
                raise ProtocolError(f"unknown label kind {kind_term[0]!r}")
            text = text_term[0].replace("\t", " ").replace("\n", " ").replace("\r", " ")
            records.append(LabelRecord(subject_term[0], kind, text))
    return records


def fetch_many(endpoint: str, entities: list[str], hops: str = HOP_ONE,
               cap: int = 50, cache_dir=None, timeout: float = 30.0,
               session=None, retries: int = 0, max_workers: int = 4,
               force: bool = False) -> dict[str, FetchResult | Exception]:
    """Fetch several entities with bounded parallelism.

    Returns per-entity results; failures are captured as exception values
    instead of aborting the batch, so one dead entity does not waste the
    rest of a long crawl.
    """
    results: dict[str, FetchResult | Exception] = {}
    if not entities:
        return results

    def worker(entity: str):
        try:
            return fetch_remote(endpoint, entity, hops=hops, cap=cap,
                                cache_dir=cache_dir, timeout=timeout,
                                session=session, retries=retries, force=force)
        except Exception as exc:  # noqa: BLE001 - reported per entity
            return exc

    with ThreadPoolExecutor(max_workers=max(1, max_workers)) as pool:
        for entity, outcome in zip(entities, pool.map(worker, entities)):
            results[entity] = outcome
    return results
