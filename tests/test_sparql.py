"""Endpoint client against the mock SPARQL server from conftest."""

import pytest

from conftest import (
    entity_binding,
    literal_binding,
    triple_binding,
    uri_binding,
)
from kgned.context import verbalize
from kgned.kg import TripleStore, load_store, save_store
from kgned.sparql import (
    ENTITY_PREFIX,
    EndpointError,
    FetchError,
    ProtocolError,
    cache_files,
    fetch_many,
    fetch_remote,
    fetched,
    local_id,
    run_query,
)


def _prop(pid):
    return uri_binding(f"http://p.example/{pid}")


# -- uri handling --------------------------------------------------------


def test_local_id_forms():
    assert local_id("http://www.wikidata.org/entity/Q42") == "Q42"
    assert local_id("http://www.w3.org/2000/01/rdf-schema#label") == "label"
    assert local_id("http://schema.org/description") == "description"
    assert local_id("opaque") == "opaque"


# -- happy path ----------------------------------------------------------


def test_fetch_keeps_endpoint_row_order_and_verbalizes(mock, tmp_path):
    mock.seed_highway()
    result = fetch_remote(mock.url, "Q1967298", cache_dir=str(tmp_path))
    assert not result.from_cache
    assert [t.relation for t in result.triples] == ["description", "label", "dateModified"]
    assert [t.rank for t in result.triples] == [0, 1, 2]
    assert all(t.is_literal for t in result.triples)

    triples_path, labels_path = cache_files(str(tmp_path))
    store = load_store(str(triples_path), str(labels_path))
    texts = [verbalize(store, t).text for t in store.neighbors("Q1967298")]
    assert texts == [
        "National Highway description highway system in Australia",
        "National Highway label National Highway",
        "National Highway date modified 31 May 2019",
    ]


def test_cap_limits_to_a_prefix(mock, tmp_path):
    mock.hop1["Q5"] = [triple_binding(_prop(f"P{i}"), literal_binding(f"t{i}"))
                       for i in range(10)]
    result = fetch_remote(mock.url, "Q5", cap=3, cache_dir=str(tmp_path))
    assert [t.tail for t in result.triples] == ["t0", "t1", "t2"]
    with pytest.raises(ValueError):
        fetch_remote(mock.url, "Q5", cap=0)


def test_blank_nodes_are_skipped_without_spending_cap(mock):
    mock.hop1["Q6"] = [
        triple_binding(_prop("P1"), {"type": "bnode", "value": "b0"}),
        triple_binding(_prop("P2"), literal_binding("kept one")),
        triple_binding(_prop("P3"), literal_binding("kept two")),
    ]
    result = fetch_remote(mock.url, "Q6", cap=2)
    assert [t.tail for t in result.triples] == ["kept one", "kept two"]


def test_hop_two_triples_elide_the_intermediate_entity(mock):
    mock.hop1["Q7"] = [triple_binding(_prop("P361"), entity_binding("Q83620"))]
    mock.hop2["Q7"] = [triple_binding(_prop("P17"), entity_binding("Q408"))]
    mock.labels[ENTITY_PREFIX + "Q408"] = [("label", "Australia")]
    result = fetch_remote(mock.url, "Q7", hops="1&2")
    hop2 = [t for t in result.triples if t.hop == 2]
    assert len(hop2) == 1
    assert hop2[0].head == "Q7"
    assert hop2[0].tail == "Q408"
    assert not hop2[0].is_literal
    by_subject = {r.subject: r.text for r in result.labels}
    assert by_subject.get("Q408") == "Australia"


# -- caching -------------------------------------------------------------


def test_empty_result_is_recorded_and_skipped_next_time(mock, tmp_path):
    cache = str(tmp_path)
    first = fetch_remote(mock.url, "Q404", cache_dir=cache)
    assert first.triples == []
    assert ("Q404", "1") in fetched(cache)
    asked_before = len(mock.queries)
    second = fetch_remote(mock.url, "Q404", cache_dir=cache)
    assert second.from_cache
    assert len(mock.queries) == asked_before


def test_cache_files_round_trip_byte_identical(mock, tmp_path):
    mock.seed_highway()
    cache = tmp_path / "cache"
    fetch_remote(mock.url, "Q1967298", cache_dir=str(cache))
    triples_path, labels_path = cache_files(str(cache))
    store = load_store(str(triples_path), str(labels_path))
    copy = tmp_path / "copy"
    copy.mkdir()
    save_store(store, str(copy / "triples.tsv"), str(copy / "labels.tsv"))
    assert (copy / "triples.tsv").read_bytes() == triples_path.read_bytes()
    assert (copy / "labels.tsv").read_bytes() == labels_path.read_bytes()


def test_force_refetch_does_not_duplicate_rows(mock, tmp_path):
    mock.seed_highway()
    cache = str(tmp_path)
    fetch_remote(mock.url, "Q1967298", cache_dir=cache)
    fetch_remote(mock.url, "Q1967298", cache_dir=cache, force=True)
    triples_path, labels_path = cache_files(cache)
    store = load_store(str(triples_path), str(labels_path))
    assert len(store.neighbors("Q1967298")) == 3
    manifest = (tmp_path / "fetched.tsv").read_text(encoding="utf-8")
    assert manifest.count("Q1967298") == 1


def test_cached_fetch_fills_a_caller_store(mock, tmp_path):
    mock.seed_highway()
    cache = str(tmp_path)
    fetch_remote(mock.url, "Q1967298", cache_dir=cache)
    store = TripleStore()
    result = fetch_remote(mock.url, "Q1967298", cache_dir=cache, store=store)
    assert result.from_cache
    assert len(store.neighbors("Q1967298")) == 3
    assert store.primary_label("Q1967298") == "National Highway"


def test_warm_fetch_returns_and_merges_the_same_labels_as_cold(mock, tmp_path):
    # Only Q1 has a label: the relation and the tail must not gain
    # synthetic raw-id labels on the warm path.
    mock.hop1["Q1"] = [triple_binding(_prop("P31"), entity_binding("Q99"))]
    mock.labels[ENTITY_PREFIX + "Q1"] = [("label", "first entity")]
    cache = str(tmp_path)
    cold_store, warm_store = TripleStore(), TripleStore()
    cold = fetch_remote(mock.url, "Q1", cache_dir=cache, store=cold_store)
    warm = fetch_remote(mock.url, "Q1", cache_dir=cache, store=warm_store)
    assert not cold.from_cache and warm.from_cache
    assert [r.text for r in cold.labels] == ["first entity"]
    assert warm.labels == cold.labels
    assert list(warm_store.all_label_records()) == list(cold_store.all_label_records())
    assert warm_store.stored_labels("P31") == []


def test_cold_fetch_returns_the_labels_it_keeps(mock, tmp_path):
    # The endpoint repeats itself: two primary labels and one alias twice.
    mock.hop1["Q1"] = [triple_binding(_prop("P31"), entity_binding("Q99"))]
    mock.labels[ENTITY_PREFIX + "Q1"] = [("label", "first"), ("label", "second"),
                                         ("alias", "a"), ("alias", "a")]
    cache = str(tmp_path)
    _, labels_path = cache_files(cache)
    cold = fetch_remote(mock.url, "Q1", cache_dir=cache)
    cached_bytes = labels_path.read_bytes()
    warm = fetch_remote(mock.url, "Q1", cache_dir=cache)
    assert not cold.from_cache and warm.from_cache
    assert [(r.kind, r.text) for r in cold.labels] == [("label", "first"), ("alias", "a")]
    assert warm.labels == cold.labels
    assert cached_bytes == b"Q1\tlabel\tfirst\nQ1\talias\ta\n"
    assert labels_path.read_bytes() == cached_bytes


# -- failure taxonomy ----------------------------------------------------


def test_http_error_status_raises_endpoint_error(mock):
    mock.behavior = "http-error"
    with pytest.raises(EndpointError, match="500"):
        fetch_remote(mock.url, "Q1")


def test_non_json_response_raises_protocol_error(mock):
    mock.behavior = "not-json"
    with pytest.raises(ProtocolError, match="not JSON"):
        fetch_remote(mock.url, "Q1")


def test_missing_bindings_raises_protocol_error(mock):
    mock.behavior = "bad-shape"
    with pytest.raises(ProtocolError, match="bindings"):
        fetch_remote(mock.url, "Q1")


def test_malformed_binding_cell_raises_protocol_error(mock):
    mock.hop1["Q8"] = [{"relation": {"oops": True}, "tail": literal_binding("x")}]
    with pytest.raises(ProtocolError, match="relation"):
        fetch_remote(mock.url, "Q8")


def test_unreachable_endpoint_raises_fetch_error():
    with pytest.raises(FetchError):
        fetch_remote("http://127.0.0.1:1/sparql", "Q1", timeout=0.5)


def test_retries_recover_from_dropped_connections(mock):
    mock.hop1["Q9"] = [triple_binding(_prop("P1"), literal_binding("value"))]
    mock.drop_remaining = 1
    result = fetch_remote(mock.url, "Q9", retries=2)
    assert [t.tail for t in result.triples] == ["value"]


def test_run_query_without_retries_propagates_drop(mock):
    mock.drop_remaining = 5
    with pytest.raises(FetchError):
        run_query(mock.url, "SELECT * WHERE { ?s ?p ?o }", timeout=2.0)


# -- batch fetch ---------------------------------------------------------


def test_fetch_many_isolates_per_entity_failures(mock, tmp_path):
    mock.hop1["Q10"] = [triple_binding(_prop("P1"), literal_binding("ok"))]
    mock.fail_entities = {"Q666"}
    results = fetch_many(mock.url, ["Q10", "Q666"], cache_dir=str(tmp_path))
    assert [t.tail for t in results["Q10"].triples] == ["ok"]
    assert isinstance(results["Q666"], EndpointError)


def test_fetch_many_empty_input():
    assert fetch_many("http://127.0.0.1:1/sparql", []) == {}


def test_fetch_many_parallel_batch_lands_in_one_cache(mock, tmp_path):
    for i in range(6):
        mock.hop1[f"Q{i}"] = [triple_binding(_prop("P1"), literal_binding(f"t{i}"))]
    results = fetch_many(mock.url, [f"Q{i}" for i in range(6)],
                         cache_dir=str(tmp_path), max_workers=4)
    assert all(not isinstance(r, Exception) for r in results.values())
    triples_path, labels_path = cache_files(str(tmp_path))
    store = load_store(str(triples_path), str(labels_path))
    for i in range(6):
        assert [t.tail for t in store.neighbors(f"Q{i}")] == [f"t{i}"]
    assert len(fetched(str(tmp_path))) == 6
