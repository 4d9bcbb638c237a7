"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q -p no:cacheprovider
"""

import json
import re
import sys
import threading
import urllib.request
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT / "perfbench"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import gen  # noqa: E402
import mock_sparql  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# -- generators are pure functions of the seed -----------------------------


def test_world_is_a_pure_function_of_the_seed(tmp_path):
    a, b, c = gen.world(3, 120, hop2=True), gen.world(3, 120, hop2=True), gen.world(4, 120)
    assert a == b
    assert a.hop1 != c.hop1
    gen.write_kg(a, tmp_path / "a")
    gen.write_kg(b, tmp_path / "b")
    for name in ("triples.tsv", "labels.tsv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_world_shape():
    w = gen.world(1, 400, hop2=True)
    assert len(w.entities) == 400
    assert all(2 <= len(group) <= 5 for group in w.groups)
    sizes = [len(rows) for rows in w.hop1.values()]
    assert min(sizes) >= 1 and max(sizes) <= 60
    for rows in list(w.hop1.values()) + list(w.hop2.values()):
        assert len({(r, t) for r, t, _ in rows}) == len(rows)


def test_mentions_requests_and_faults_are_pure():
    w = gen.world(2, 200)
    assert gen.mentions(w, 5, 30, 1) == gen.mentions(w, 5, 30, 1)
    assert gen.mentions(w, 5, 30, 1) != gen.mentions(w, 6, 30, 1)
    entities = list(w.entities)
    assert gen.requests(entities, 5, 300, 0.8) == gen.requests(entities, 5, 300, 0.8)
    assert gen.requests(entities, 5, 300, 0.0) != gen.requests(entities, 6, 300, 0.0)
    assert gen.failing_entities(w, 5, 0.05) == gen.failing_entities(w, 5, 0.05)
    records = [(e.id, e.label, e.topic) for e in entities]
    each = gen.mentions_per_entity(records, 9, 2, 1)
    assert each == gen.mentions_per_entity(records, 9, 2, 1)
    assert each != gen.mentions_per_entity(records, 10, 2, 1)
    assert sorted(row.gold for row in each) == sorted(2 * [e.id for e in entities])
    for row in gen.mentions(w, 5, 30, 1):
        assert row.sentence[row.start:row.start + len(row.surface)] == row.surface
        assert row.gold in row.candidates


def test_mock_tables_are_pure():
    w = gen.world(8, 60, hop2=True)
    fail = gen.failing_entities(w, 8, 0.05)
    assert json.dumps(gen.mock_tables(w, fail)) == json.dumps(gen.mock_tables(w, fail))


# -- metric names ---------------------------------------------------------


def test_metric_names_are_well_formed():
    names = list(run.E2E_UNITS) + list(tracing.LAYER_UNITS) + list(run.PROPERTY_UNITS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_benchmark_json_lists_what_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    layers = {**tracing.LAYER_UNITS, **run.PROPERTY_UNITS}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(metric["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])


# -- self time --------------------------------------------------------------


def span(start, end, parent=None, span_id=0):
    return tracing.Span(span_id, parent, "s", 0, start, end)


def test_self_time_without_children_is_the_duration():
    assert tracing.self_time(span(1.0, 3.5), []) == pytest.approx(2.5)


def test_self_time_subtracts_nested_children():
    parent = span(0.0, 10.0)
    children = [span(1.0, 3.0), span(4.0, 4.5), span(6.0, 9.0)]
    assert tracing.self_time(parent, children) == pytest.approx(10.0 - 2.0 - 0.5 - 3.0)


def test_self_time_counts_overlapping_children_once():
    # Children on other threads may overlap each other.
    parent = span(0.0, 10.0)
    children = [span(1.0, 5.0), span(2.0, 6.0), span(5.5, 7.0)]
    assert tracing.self_time(parent, children) == pytest.approx(10.0 - 6.0)


def test_self_time_clips_children_to_the_parent():
    parent = span(2.0, 6.0)
    children = [span(1.0, 3.0), span(5.0, 9.0), span(7.0, 8.0)]
    assert tracing.self_time(parent, children) == pytest.approx(4.0 - 1.0 - 1.0)


def test_tracer_links_nested_calls_and_restores_attributes():
    import kgned.kg as kg

    original = kg.__dict__["load_store"]
    tracer = tracing.Tracer()
    inner = tracer.span("inner", lambda: 1)
    outer = tracer.span("outer", lambda: inner() + 1)
    assert outer() == 2
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent is None
    with tracing.installed(tracer):
        assert kg.__dict__["load_store"] is not original
    assert kg.__dict__["load_store"] is original


def test_layer_metrics_cover_every_name_on_an_empty_trace():
    values = tracing.layer_metrics(tracing.Tracer())
    assert set(values) == set(tracing.LAYER_UNITS)


# -- the mock endpoint -----------------------------------------------------


@pytest.fixture
def endpoint():
    w = gen.world(11, 40, hop2=True)
    fail = gen.failing_entities(w, 11, 0.1)
    server = mock_sparql.make_server(gen.mock_tables(w, fail))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield w, fail, f"http://127.0.0.1:{server.server_address[1]}/sparql"
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def test_mock_answers_the_three_query_shapes(endpoint):
    from kgned import sparql

    w, fail, url = endpoint
    entity = next(e.id for e in w.entities if e.id not in fail)
    uri = gen.ENTITY_PREFIX + entity
    hop1 = sparql.run_query(url, sparql.QUERY_HOP_ONE.format(uri=uri, limit=80))
    hop2 = sparql.run_query(url, sparql.QUERY_HOP_TWO.format(uri=uri, limit=80))
    assert [sparql.local_id(b["relation"]["value"]) for b in hop1] == [
        r for r, _, _ in w.hop1[entity]]
    assert len(hop2) == len(w.hop2[entity])
    short = sparql.run_query(url, sparql.QUERY_HOP_ONE.format(uri=uri, limit=1))
    assert len(short) == 1
    values = f"<{uri}> <{gen.PROP_PREFIX}P0>"
    labels = sparql.run_query(url, sparql.QUERY_LABELS.format(values=values))
    got = {(sparql.local_id(b["subject"]["value"]), b["kind"]["value"], b["text"]["value"])
           for b in labels}
    want = {(s, k, t) for s in (entity, "P0") for k, t in w.labels[s]}
    assert got == want


def test_mock_fails_injected_entities_with_http_500(endpoint):
    from kgned import sparql

    w, fail, url = endpoint
    bad = sorted(fail)[0]
    with pytest.raises(sparql.EndpointError, match="HTTP 500"):
        sparql.run_query(url, sparql.QUERY_HOP_ONE.format(uri=gen.ENTITY_PREFIX + bad, limit=80))
    stats = json.load(urllib.request.urlopen(url.replace("/sparql", "/stats"), timeout=10))
    assert stats == {"queries": 1, "failures": 1}


def test_crawl_of_the_mock_matches_the_expected_cache(endpoint, tmp_path):
    from kgned import sparql

    w, fail, url = endpoint
    ids = [e.id for e in w.entities]
    results = sparql.fetch_many(url, ids, hops="1&2", cap=run.CRAWL_CAP,
                                cache_dir=str(tmp_path), max_workers=2)
    assert {e for e, r in results.items() if isinstance(r, Exception)} == set(fail)
    got_triples, got_labels = run.read_cache(tmp_path)
    want_triples, want_labels = run.expected_cache(w, fail, run.CRAWL_CAP)
    assert sorted(got_triples.items()) == sorted(want_triples.items())
    assert sorted(got_labels.items()) == sorted(want_labels.items())
