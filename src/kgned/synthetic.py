"""Synthetic ambiguous-mention corpus for end-to-end checks.

Every generated label ("national highway", "central museum", ...) is
shared by two to four entities that differ in exactly one place: the
topic word inside their description triple.  Sentences mention the label
and drop the gold entity's topic word somewhere nearby, so a model that
reads KG context can resolve the mention and a model without context
cannot do better than picking some fixed candidate.

Each entity also carries hop-2 distractor triples whose topic words
belong to its sibling entities.  Pulling those into the context injects
contradictory signals, which is the behavior the 2-hop ablation is meant
to surface.

The first label group is the highway pair Q1967298 (australia) and
Q1967342 (india), the fixture used throughout the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import MentionExample, save_jsonl
from .kg import TripleStore, save_store

TOPICS = ("australia", "india", "canada", "brazil", "japan", "norway",
          "kenya", "chile")

NOUNS = ("highway", "river", "museum", "festival", "railway", "stadium",
         "library", "harbour", "orchestra", "observatory", "garden", "bridge",
         "market", "cathedral", "airport", "canal", "fortress", "theatre",
         "academy", "monument")

ADJECTIVES = ("national", "central", "royal", "grand", "eastern", "western",
              "northern", "southern", "imperial", "metropolitan", "coastal",
              "historic", "united", "regional", "provincial")

TEMPLATES = (
    "The {label} is a well known attraction in {topic}.",
    "Many travelers visit the {label} during a tour of {topic}.",
    "Officials in {topic} announced upgrades to the {label}.",
    "The {label} appears on every map of {topic}.",
    "Local news from {topic} mentioned the {label} again.",
    "A guidebook about {topic} recommends the {label}.",
)

SEED_LABEL = "national highway"
SEED_ENTITIES = (("Q1967298", "australia"), ("Q1967342", "india"))


@dataclass(frozen=True)
class CorpusSpec:
    n_labels: int = 50
    mentions_per_label: int = 6
    eval_per_label: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.n_labels < 1:
            raise ValueError("n_labels must be >= 1")
        if not 0 < self.eval_per_label < self.mentions_per_label:
            raise ValueError("eval_per_label must leave at least one training mention")


@dataclass(frozen=True)
class EntityRecord:
    entity: str
    label: str
    noun: str
    topic: str


@dataclass
class Corpus:
    store: TripleStore
    entities: list[EntityRecord]
    train: list[MentionExample]
    eval: list[MentionExample]

    @property
    def labels(self) -> list[str]:
        seen: dict[str, None] = {}
        for record in self.entities:
            seen.setdefault(record.label, None)
        return list(seen)


def _label_pool(n_labels: int, rng) -> list[tuple[str, str]]:
    combos = [(f"{adj} {noun}", noun) for adj in ADJECTIVES for noun in NOUNS
              if f"{adj} {noun}" != SEED_LABEL]
    order = rng.permutation(len(combos))
    pool = [(SEED_LABEL, "highway")]
    pool.extend(combos[i] for i in order[:n_labels - 1])
    return pool


def _describe(noun: str, topic: str) -> str:
    return f"{noun} system in {topic}"


def _add_entity_triples(store: TripleStore, record: EntityRecord,
                        sibling_topics: list[str]) -> None:
    store.add_triple(record.entity, "description",
                     _describe(record.noun, record.topic), 1, True)
    store.add_triple(record.entity, "label", record.label, 1, True)
    store.add_triple(record.entity, "dateModified", "31 may 2019", 1, True)
    for topic in sibling_topics[:2]:
        store.add_triple(record.entity, "relatedTopic",
                         f"travel guide for {topic}", 2, True)
    store.add_triple(record.entity, "seeAlso",
                     f"directory of {record.noun} sites", 2, True)
    store.add_label(record.entity, "label", record.label)


def build_corpus(spec: CorpusSpec = CorpusSpec()) -> Corpus:
    rng = np.random.default_rng(spec.seed)
    store = TripleStore()
    entities: list[EntityRecord] = []
    groups: list[list[EntityRecord]] = []

    for label_idx, (label, noun) in enumerate(_label_pool(spec.n_labels, rng)):
        if label == SEED_LABEL:
            members = [EntityRecord(e, label, noun, t) for e, t in SEED_ENTITIES]
        else:
            k = int(rng.integers(2, 5))
            topics = [TOPICS[i] for i in rng.choice(len(TOPICS), size=k, replace=False)]
            members = [
                EntityRecord(f"Q{90000 + 10 * label_idx + j}", label, noun, topic)
                for j, topic in enumerate(topics)
            ]
        for record in members:
            siblings = [m.topic for m in members if m.topic != record.topic]
            _add_entity_triples(store, record, siblings)
        entities.extend(members)
        groups.append(members)

    train: list[MentionExample] = []
    eval_split: list[MentionExample] = []
    mention_no = 0
    for label_idx, members in enumerate(groups):
        label = members[0].label
        candidates = tuple(m.entity for m in members)
        for j in range(spec.mentions_per_label):
            gold = members[int(rng.integers(0, len(members)))]
            template = TEMPLATES[(label_idx + j) % len(TEMPLATES)]
            sentence = template.format(label=label, topic=gold.topic)
            start = sentence.index(label)
            example = MentionExample(
                id=f"m{mention_no:04d}",
                sentence=sentence,
                surface=label,
                start=start,
                end=start + len(label),
                gold=gold.entity,
                candidates=candidates,
                negatives=tuple(e for e in candidates if e != gold.entity),
            )
            mention_no += 1
            if j < spec.mentions_per_label - spec.eval_per_label:
                train.append(example)
            else:
                eval_split.append(example)
    return Corpus(store=store, entities=entities, train=train, eval=eval_split)


def write_corpus(corpus: Corpus, out_dir) -> dict[str, Path]:
    """Materialize the corpus as the on-disk layout the CLI consumes."""
    root = Path(out_dir)
    kg_dir = root / "kg"
    kg_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "triples": kg_dir / "triples.tsv",
        "labels": kg_dir / "labels.tsv",
        "train": root / "train.jsonl",
        "eval": root / "eval.jsonl",
    }
    save_store(corpus.store, str(paths["triples"]), str(paths["labels"]))
    save_jsonl(corpus.train, str(paths["train"]))
    save_jsonl(corpus.eval, str(paths["eval"]))
    return paths
