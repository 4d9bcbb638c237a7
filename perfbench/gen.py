"""Seeded input generators for the three workloads.

Every function here is a pure function of its arguments: the same seed
gives the same rows, byte for byte.  Nothing imports ``kgned``; the
program only ever sees the files that :func:`write_kg` and
:func:`write_mentions` produce.

* ``mentions_per_entity`` draws a fresh eval split over the acceptance
  gate's criterion-1 corpus (50 ambiguous labels, corpus seed 7) and the
  train and eval splits of the crawled KG.
* ``world`` is a KG of entities whose labels are shared by 2 to 4
  entities, with heavy-tailed neighbourhood sizes and mostly literal
  tails.  ``kb-serve`` loads a 10k-entity world from TSV; the crawl phase
  of every workload serves a small world from the mock endpoint.
* ``requests`` draws serving mentions, on ``kb-serve`` with a Zipf-like
  skew over entities, so some requests repeat an entity and most do not.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

ENTITY_PREFIX = "http://www.wikidata.org/entity/"
PROP_PREFIX = "http://p.example/"

TOPICS = ("australia", "india", "canada", "brazil", "japan", "norway", "kenya",
          "chile", "peru", "egypt", "ghana", "nepal", "spain", "italy", "france",
          "mexico", "poland", "sweden", "turkey", "vietnam", "iceland", "morocco",
          "greece", "ireland")

ADJECTIVES = ("national", "central", "royal", "grand", "eastern", "western",
              "northern", "southern", "imperial", "metropolitan", "coastal",
              "historic", "united", "regional", "provincial", "old", "new")

NOUNS = ("highway", "river", "museum", "festival", "railway", "stadium",
         "library", "harbour", "orchestra", "observatory", "garden", "bridge",
         "market", "cathedral", "airport", "canal", "fortress", "theatre",
         "academy", "monument")

PLACES = ("ash", "birch", "cedar", "dune", "elm", "fern", "glen", "heath",
          "isle", "juniper", "kestrel", "larch", "moss", "north", "oak", "pine",
          "quarry", "reed", "stone", "thorn", "upton", "vale", "willow", "yarrow")

RELATIONS = ("located in", "part of", "date founded", "operator", "architect",
             "named after", "official website", "population", "length",
             "elevation", "inception", "owned by", "country", "instance of",
             "capacity", "heritage status", "maintained by", "date opened",
             "replaces", "follows", "has part", "significant event",
             "coordinate location", "street address", "award received",
             "collection", "visitors per year", "area", "budget", "founder",
             "occupant", "sponsor", "twinned with", "genre", "material used",
             "style", "closing date", "record held", "motto", "patron")

MONTHS = ("january", "february", "march", "april", "may", "june", "july",
          "august", "september", "october", "november", "december")

SERVE_TEMPLATES = (
    "The {label} is a well known attraction in {topic}.",
    "Many travelers visit the {label} during a tour of {topic}.",
    "Officials in {topic} announced upgrades to the {label}.",
    "The {label} appears on every map of {topic}.",
    "Local news from {topic} mentioned the {label} again.",
    "A guidebook about {topic} recommends the {label}.",
)

# Neighbourhood sizes per hop run from 1 to this many triples.
MAX_ROWS = 60

# The criterion-1 corpus: this many labels, generated from this corpus seed.
ABLATION_LABELS = 50
ABLATION_CORPUS_SEED = 7


@dataclass(frozen=True)
class Entity:
    id: str
    label: str
    topic: str
    group: int


@dataclass(frozen=True)
class World:
    """A generated KG.

    ``hop1``/``hop2`` map a head to its ``(relation, tail, is_literal)``
    rows in rank order; ``labels`` maps a subject to its ``(kind, text)``
    records in file order.  ``groups[g]`` lists the entity ids sharing
    one label.
    """

    entities: tuple[Entity, ...]
    groups: tuple[tuple[str, ...], ...]
    hop1: dict
    hop2: dict
    labels: dict

    def by_id(self) -> dict[str, Entity]:
        return {e.id: e for e in self.entities}


@dataclass(frozen=True)
class MentionRow:
    """One mention, in the dataset JSONL schema the CLI reads."""

    id: str
    sentence: str
    surface: str
    start: int
    gold: str
    candidates: tuple[str, ...]

    def to_json(self) -> dict:
        return {"id": self.id, "sentence": self.sentence, "surface": self.surface,
                "span": [self.start, self.start + len(self.surface)],
                "gold": self.gold, "candidates": list(self.candidates),
                "negatives": [c for c in self.candidates if c != self.gold]}


def _literal(rng) -> str:
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return (f"{int(rng.integers(1, 29))} {MONTHS[int(rng.integers(0, 12))]} "
                f"{int(rng.integers(1800, 2021))}")
    if kind == 1:
        return str(int(rng.integers(1, 100000)))
    words = rng.choice(len(PLACES), size=int(rng.integers(1, 4)), replace=False)
    return " ".join(PLACES[int(i)] for i in words) + " " + NOUNS[int(rng.integers(0, len(NOUNS)))]


def _neighbourhood(rng, n_rows: int, tail_pool: list[str]):
    """``n_rows`` distinct (relation, tail, is_literal) rows, 60% literal."""
    rows, seen = [], set()
    while len(rows) < n_rows:
        relation = f"P{int(rng.integers(0, len(RELATIONS))) + 1}"
        if rng.random() < 0.6:
            tail, literal = _literal(rng), True
        else:
            tail, literal = tail_pool[int(rng.integers(0, len(tail_pool)))], False
        if (relation, tail) in seen:
            continue
        seen.add((relation, tail))
        rows.append((relation, tail, literal))
    return rows


def _heavy_tail_sizes(rng, n: int, high: int) -> np.ndarray:
    """``n`` log-normal sizes (median 5, clipped to 1..``high``) in seeded order.

    The sizes are the distribution's ``n`` evenly spaced quantiles, so every
    seed gets the same multiset and only which entity gets which size
    changes: a seed cannot make the whole KG larger or smaller.
    """
    z = np.array([NormalDist().inv_cdf((i + 0.5) / n) for i in range(n)])
    sizes = np.clip(np.rint(np.exp(1.6 + 0.9 * z)), 1, high).astype(int)
    return sizes[rng.permutation(n)]


def world(seed: int, n_entities: int, hop2: bool = False) -> World:
    """A KG of ``n_entities`` labelled entities in groups of 2 to 4.

    Each entity's first hop-1 row is a description literal naming its
    topic, so context can tell group members apart; then come a
    heavy-tailed number of further rows (1 to ``MAX_ROWS`` in total).
    Entity-valued tails point at a separate pool of tail entities, which
    carry labels but are never heads.  With ``hop2`` every entity also
    gets a heavy-tailed hop-2 neighbourhood.
    """
    rng = np.random.default_rng([seed, n_entities, 1])
    combos = [(a, n, p) for a in ADJECTIVES for n in NOUNS for p in PLACES]
    order = rng.permutation(len(combos))
    entities: list[Entity] = []
    groups: list[tuple[str, ...]] = []
    labels: dict[str, list[tuple[str, str]]] = {}
    hop1_rows: dict[str, list] = {}
    while len(entities) < n_entities:
        g = len(groups)
        if g >= len(combos):
            raise ValueError(f"too many entities for the label pool: {n_entities}")
        adj, noun, place = combos[int(order[g])]
        label = f"{adj} {noun} of {place}"
        size = min(int(rng.integers(2, 5)), n_entities - len(entities))
        if n_entities - len(entities) - size == 1:
            size += 1  # never leave a label with a single entity
        topics = rng.choice(len(TOPICS), size=size, replace=False)
        members = []
        for j in range(size):
            entity = Entity(f"Q{100000 + len(entities)}", label, TOPICS[int(topics[j])], g)
            entities.append(entity)
            members.append(entity.id)
            hop1_rows[entity.id] = [("P0", f"{noun} in {entity.topic}", True)]
            records = [("label", label)]
            if rng.random() < 0.3:
                records.append(("alias", f"{noun} of {place}"))
            if rng.random() < 0.5:
                records.append(("description", f"{noun} in {entity.topic}"))
            labels[entity.id] = records
        groups.append(tuple(members))

    n_tails = max(8, n_entities // 4)
    tail_pool = [f"Q{500000 + i}" for i in range(n_tails)]
    for i, tail in enumerate(tail_pool):
        labels[tail] = [("label", f"{PLACES[i % len(PLACES)]} "
                                  f"{NOUNS[(i // len(PLACES)) % len(NOUNS)]} {i}")]
    for r, text in enumerate(RELATIONS):
        labels[f"P{r + 1}"] = [("label", text)]
    labels["P0"] = [("label", "description")]

    hop2_rows: dict[str, list] = {}
    sizes1 = _heavy_tail_sizes(rng, len(entities), MAX_ROWS)
    sizes2 = _heavy_tail_sizes(rng, len(entities), MAX_ROWS)
    for entity, size1, size2 in zip(entities, sizes1, sizes2):
        hop1_rows[entity.id].extend(_neighbourhood(rng, int(size1) - 1, tail_pool))
        if hop2:
            hop2_rows[entity.id] = _neighbourhood(rng, int(size2), tail_pool)
    return World(tuple(entities), tuple(groups), hop1_rows, hop2_rows,
                 {k: tuple(v) for k, v in labels.items()})


def mention_for(entity: Entity, candidates, template_no: int, mention_id: str) -> MentionRow:
    template = SERVE_TEMPLATES[template_no % len(SERVE_TEMPLATES)]
    sentence = template.format(label=entity.label, topic=entity.topic)
    return MentionRow(mention_id, sentence, entity.label, sentence.index(entity.label),
                      entity.id, tuple(candidates))


def mentions(w: World, seed: int, n: int, salt: int) -> list[MentionRow]:
    """``n`` mentions whose candidates are the gold's label group.

    Mention ``i`` draws its group among those with ``2 + i % 3`` members
    (the few of 5 count as 4) and its gold uniformly within the group, so
    every seed asks for the same mix of 2-, 3- and 4-way choices.
    """
    rng = np.random.default_rng([seed, salt, 2])
    by_size: dict[int, list[tuple[str, ...]]] = {}
    for group in w.groups:
        by_size.setdefault(min(len(group), 4), []).append(group)
    entities = w.by_id()
    out = []
    for i in range(n):
        groups = by_size[2 + i % 3]
        group = groups[int(rng.integers(0, len(groups)))]
        entity = entities[group[int(rng.integers(0, len(group)))]]
        out.append(mention_for(entity, group, int(rng.integers(0, 6)), f"m{salt}-{i:05d}"))
    return out


@dataclass(frozen=True)
class Request:
    mention: MentionRow
    mode: str  # "exact" or "contains"


def requests(entities: list[Entity], seed: int, n: int, zipf_a: float) -> list[Request]:
    """Serving requests over ``entities``; entity ``k`` of a seeded order is
    drawn with weight ``k ** -zipf_a`` (0 draws uniformly); 20% of the
    requests look their candidates up by ``contains``.

    Candidates are left empty: the serving client looks them up itself.
    """
    rng = np.random.default_rng([seed, len(entities), 3])
    order = rng.permutation(len(entities))
    ranks = np.arange(1, len(entities) + 1, dtype=np.float64)
    weights = ranks ** -zipf_a
    weights /= weights.sum()
    picks = rng.choice(len(entities), size=n, p=weights)
    out = []
    for i, rank in enumerate(picks):
        entity = entities[int(order[int(rank)])]
        mode = "contains" if rng.random() < 0.2 else "exact"
        out.append(Request(mention_for(entity, (), int(rng.integers(0, 6)), f"r{i:05d}"),
                           mode))
    return out


def repeat_share(reqs: list[Request]) -> float:
    """Share of requests whose gold entity an earlier request already named."""
    seen, repeats = set(), 0
    for req in reqs:
        repeats += req.mention.gold in seen
        seen.add(req.mention.gold)
    return repeats / len(reqs)


def failing_entities(w: World, seed: int, share: float) -> frozenset[str]:
    """The fixed, seeded subset of heads the mock endpoint answers with HTTP 500."""
    rng = np.random.default_rng([seed, len(w.entities), 4])
    count = max(1, round(share * len(w.entities)))
    picked = rng.choice(len(w.entities), size=count, replace=False)
    return frozenset(w.entities[int(i)].id for i in picked)


# -- the ablation corpus -------------------------------------------------


def mentions_per_entity(entities, seed: int, per_entity: int, salt: int) -> list[MentionRow]:
    """Every entity as the gold of ``per_entity`` mentions.

    ``entities`` are ``(entity id, label, topic)``; entities sharing a
    label are each other's candidates.  Each mention gets a different
    seeded template, so the seed changes the sentences but not how often
    each entity is asked for, and a small KG gives the same mix for every
    seed.
    """
    rng = np.random.default_rng([seed, salt, 5])
    groups: dict[str, list[str]] = {}
    for entity, label, _ in entities:
        groups.setdefault(label, []).append(entity)
    out = []
    for entity, label, topic in entities:
        templates = rng.choice(len(SERVE_TEMPLATES), size=per_entity, replace=False)
        for j, t in enumerate(templates):
            sentence = SERVE_TEMPLATES[int(t)].format(label=label, topic=topic)
            out.append(MentionRow(f"m{salt}-{entity}-{j}", sentence, label, sentence.index(label),
                                  entity, tuple(groups[label])))
    return out


# -- files the program reads ---------------------------------------------


def write_kg(w: World, kg_dir: Path) -> dict[str, Path]:
    """``triples.tsv`` and ``labels.tsv`` in the store's TSV formats."""
    kg_dir.mkdir(parents=True, exist_ok=True)
    triples = kg_dir / "triples.tsv"
    labels = kg_dir / "labels.tsv"
    with open(triples, "w", encoding="utf-8", newline="") as fh:
        for head in (e.id for e in w.entities):
            for hop, table in ((1, w.hop1), (2, w.hop2)):
                for relation, tail, literal in table.get(head, ()):
                    fh.write(f"{head}\t{relation}\t{tail}\t{hop}\t{int(literal)}\n")
    with open(labels, "w", encoding="utf-8", newline="") as fh:
        for subject, records in w.labels.items():
            for kind, text in records:
                fh.write(f"{subject}\t{kind}\t{text}\n")
    return {"triples": triples, "labels": labels}


def write_mentions(rows: list[MentionRow], path: Path) -> Path:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for row in rows:
            fh.write(json.dumps(row.to_json(), ensure_ascii=False) + "\n")
    return path


def mock_tables(w: World, fail: frozenset[str]) -> dict:
    """The mock endpoint's tables as SPARQL JSON bindings."""

    def term(value, literal, prefix=ENTITY_PREFIX):
        if literal:
            return {"type": "literal", "value": value}
        return {"type": "uri", "value": prefix + value}

    def rows(table):
        return {head: [{"relation": term(r, False, PROP_PREFIX), "tail": term(t, lit)}
                       for r, t, lit in entries] for head, entries in table.items()}

    labels = {}
    for subject, records in w.labels.items():
        prefix = PROP_PREFIX if subject.startswith("P") else ENTITY_PREFIX
        labels[prefix + subject] = [list(r) for r in records]
    return {"hop1": rows(w.hop1), "hop2": rows(w.hop2), "labels": labels,
            "fail": sorted(ENTITY_PREFIX + e for e in fail)}
