"""Candidate generation: from a surface form to the entities it may mean.

The index maps every normalized label and alias to its entity ids.
``exact`` lookup answers "which entities are called precisely this",
``contains`` casts a wider net for partial surfaces.  Normalization is
deliberately mild (lowercase, collapse whitespace), so "NATIONAL
Highway" and "national   highway" hit the same key.
"""

from kgned.candidates import build_index, lookup
from kgned.kg import TripleStore

store = TripleStore()
for entity, kind, text in [
    ("Q1967298", "label", "National Highway"),
    ("Q1967298", "alias", "Australian National Highway"),
    ("Q1967342", "label", "National Highway"),
    ("Q1967342", "alias", "NH network of India"),
    ("Q408", "label", "Australia"),
    ("Q408", "description", "country in Oceania"),  # descriptions are not indexed
]:
    store.add_label(entity, kind, text)

index = build_index(store)
print(f"{len(index)} keys in the index: {sorted(index.keys())}")

for surface in ("National Highway", "NATIONAL   highway", "Australia", "Oceania"):
    found = lookup(index, surface, mode="exact")
    print(f"exact   {surface!r:>24} -> {found.entities}")

for surface in ("national", "highway", "network"):
    found = lookup(index, surface, mode="contains")
    print(f"contains{surface!r:>24} -> {found.entities}")
