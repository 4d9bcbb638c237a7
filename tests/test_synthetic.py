"""Synthetic ambiguous-mention corpus generator."""

import pytest

from kgned.context import verbalize
from kgned.data import vocab_lines
from kgned.synthetic import (
    SEED_ENTITIES,
    SEED_LABEL,
    TEMPLATES,
    CorpusSpec,
    build_corpus,
    write_corpus,
)


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(CorpusSpec(n_labels=50, seed=7))


def _groups(corpus):
    by_label = {}
    for record in corpus.entities:
        by_label.setdefault(record.label, []).append(record)
    return by_label


def test_corpus_sizes(corpus):
    assert len(corpus.labels) == 50
    for members in _groups(corpus).values():
        assert 2 <= len(members) <= 4
    assert len(corpus.train) == 50 * 4
    assert len(corpus.eval) == 50 * 2
    assert len(corpus.train) + len(corpus.eval) >= 200


def test_seed_entity_pair_is_present(corpus):
    group = _groups(corpus)[SEED_LABEL]
    assert {(r.entity, r.topic) for r in group} == set(SEED_ENTITIES)


def test_mention_ids_unique_and_gold_among_candidates(corpus):
    ids = [e.id for e in corpus.train + corpus.eval]
    assert len(ids) == len(set(ids))
    for example in corpus.train + corpus.eval:
        assert example.gold in example.candidates
        assert set(example.negatives) == set(example.candidates) - {example.gold}


def test_sentence_contains_surface_at_span_and_gold_topic(corpus):
    by_entity = {r.entity: r for r in corpus.entities}
    for example in corpus.train + corpus.eval:
        assert example.sentence[example.start:example.end] == example.surface
        assert by_entity[example.gold].topic in example.sentence


def test_group_members_differ_only_in_description(corpus):
    for members in _groups(corpus).values():
        rendered = []
        for record in members:
            triples = corpus.store.neighbors(record.entity, "1")
            by_relation = {t.relation: t.tail for t in triples}
            rendered.append(by_relation)
        descriptions = {r["description"] for r in rendered}
        assert len(descriptions) == len(members)
        for key in ("label", "dateModified"):
            assert len({r[key] for r in rendered}) == 1


def test_description_names_the_entity_topic(corpus):
    for record in corpus.entities:
        triples = corpus.store.neighbors(record.entity, "1")
        description = next(t.tail for t in triples if t.relation == "description")
        assert record.topic in description
        assert record.noun in description


def test_hop_two_distractors_name_sibling_topics(corpus):
    groups = _groups(corpus)
    for members in groups.values():
        topics = {r.topic for r in members}
        for record in members:
            hop2 = [t for t in corpus.store.neighbors(record.entity, "1&2")
                    if t.hop == 2]
            assert hop2, "every entity carries hop-2 context"
            related = [t.tail for t in hop2 if t.relation == "relatedTopic"]
            for tail in related:
                named = tail.removeprefix("travel guide for ")
                assert named in topics and named != record.topic


def test_sentences_follow_the_templates(corpus):
    for example in corpus.train[:30]:
        assert any(
            example.sentence == t.format(label=example.surface, topic=topic)
            for t in TEMPLATES
            for topic in (r.topic for r in corpus.entities if r.entity == example.gold)
        )


def test_vocab_lines_cover_every_verbalization(corpus):
    lines = vocab_lines(corpus.train + corpus.eval, corpus.store)
    assert corpus.train[0].sentence in lines
    sample = corpus.entities[0]
    sample_triple = corpus.store.neighbors(sample.entity, "1&2")[0]
    assert verbalize(corpus.store, sample_triple).text in lines


def test_build_corpus_deterministic_per_seed():
    a = build_corpus(CorpusSpec(n_labels=8, seed=3))
    b = build_corpus(CorpusSpec(n_labels=8, seed=3))
    assert [e.to_json() for e in a.train] == [e.to_json() for e in b.train]
    assert a.entities == b.entities
    c = build_corpus(CorpusSpec(n_labels=8, seed=4))
    assert [e.to_json() for e in a.train] != [e.to_json() for e in c.train]


def test_write_corpus_emits_byte_identical_layouts(tmp_path):
    spec = CorpusSpec(n_labels=6, seed=11)
    first = write_corpus(build_corpus(spec), tmp_path / "one")
    second = write_corpus(build_corpus(spec), tmp_path / "two")
    for key in ("triples", "labels", "train", "eval"):
        assert first[key].read_bytes() == second[key].read_bytes()


def test_spec_validation():
    with pytest.raises(ValueError):
        CorpusSpec(n_labels=0)
    with pytest.raises(ValueError):
        CorpusSpec(mentions_per_label=4, eval_per_label=4)
    with pytest.raises(ValueError):
        CorpusSpec(eval_per_label=0)
