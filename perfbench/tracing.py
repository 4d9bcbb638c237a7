"""Spans around the calls into each ``kgned`` module, recorded from outside.

:func:`installed` replaces module and class attributes (for example
``kgned.sparql.save_store`` or ``Classifier._forward``) with wrappers
that time each call and attach a few counts, and puts the originals back
on exit.  Nothing under ``src/`` is edited: a wrapper sits exactly where
the calling module looks the name up, so the span measures that layer
boundary.  Spans stay in memory until :meth:`Tracer.write`.

A span's self time is its duration minus the part of its interval that
its child spans cover (:func:`self_time`).
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_time(span: Span, children) -> float:
    """``span``'s duration minus the union of its children's intervals,
    each clipped to the span (children on other threads may overlap)."""
    pieces = sorted((max(c.start, span.start), min(c.end, span.end)) for c in children)
    covered, reach = 0.0, span.start
    for start, end in pieces:
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return span.duration - covered


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, attrs=None):
        """Wrap ``fn`` so every call records a span; ``attrs(args, kwargs,
        result)`` adds counts.  A call that raises records ``error``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, parent, name, threading.get_ident(),
                                       start, end, {"error": type(exc).__name__}))
                raise
            end = time.perf_counter()
            stack.pop()
            extra = attrs(args, kwargs, result) if attrs else {}
            self.spans.append(Span(span_id, parent, name, threading.get_ident(),
                                   start, end, extra))
            return result

        return wrapper

    def counter(self, name: str, fn):
        """Wrap ``fn`` so calls are only counted: for hot, tiny functions."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "parent": s.parent, "name": s.name,
                                     "thread": s.thread, "start": s.start, "end": s.end,
                                     **s.attrs}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


# -- what gets wrapped -----------------------------------------------------


def _forward_attrs(args, kwargs, result):
    _, tok, _, mask = args[:4]
    train = kwargs.get("train", args[4] if len(args) > 4 else False)
    return {"train": bool(train), "rows": int(tok.shape[0]),
            "real": int(mask.sum()), "cells": int(mask.size)}


def _context_attrs(args, kwargs, bundle):
    return {"full": len(bundle.full), "kept": len(bundle.kept)}


def _assemble_attrs(args, kwargs, inp):
    return {"length": int(inp.length)}


def _lookup_attrs(args, kwargs, result):
    return {"mode": kwargs.get("mode", args[2] if len(args) > 2 else "exact")}


def _save_attrs(args, kwargs, result):
    store = args[0]
    return {"rows": len(store) + sum(1 for _ in store.all_label_records())}


def _targets():
    """(span name, owner, attribute, attrs) for every wrapped boundary."""
    from kgned import assembly, candidates, cli, context, data, kg, model, sparql, tokenizer

    spans = [
        ("model.forward", model.Classifier, "_forward", _forward_attrs),
        ("model.backward", model.Classifier, "_backward", None),
        ("model.train", model, "train", None),
        ("model.train", cli, "train", None),
        ("model.predict", model, "predict", None),
        ("model.predict", cli, "predict", None),
        ("model.checkpoint_io", model, "save_checkpoint", None),
        ("model.checkpoint_io", model, "load_checkpoint", None),
        ("model.checkpoint_io", cli, "save_checkpoint", None),
        ("model.checkpoint_io", cli, "load_checkpoint", None),
        ("data.encode", data.EncodingPipeline, "encode_pair", None),
        ("context.build_context", data, "build_context", _context_attrs),
        ("assembly.assemble", data, "assemble", _assemble_attrs),
        ("candidates.build_index", candidates, "build_index", None),
        ("candidates.build_index", cli, "build_index", None),
        ("candidates.lookup", candidates, "lookup", _lookup_attrs),
        ("kg.load_store", kg, "load_store", None),
        ("kg.load_store", cli, "load_store", None),
        ("sparql.load_store", sparql, "load_store", None),
        ("sparql.save_store", sparql, "save_store", _save_attrs),
        ("tokenizer.build_vocab", tokenizer, "build_vocab", None),
        ("tokenizer.build_vocab", cli, "build_vocab", None),
        ("sparql.run_query", sparql, "run_query", None),
        ("sparql.fetch_entity", sparql, "fetch_remote", None),
    ]
    counters = [
        ("tokenizer.tokenize", tokenizer, "tokenize"),
        ("tokenizer.tokenize", context, "tokenize"),
        ("tokenizer.tokenize", assembly, "tokenize"),
        ("context.verbalize", context, "verbalize"),
        ("sparql.fetched", sparql, "fetched"),
    ]
    return spans, counters


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block."""
    spans, counters = _targets()
    saved = []
    try:
        for name, owner, attr, attrs in spans:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.span(name, original, attrs))
        for name, owner, attr in counters:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.counter(name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- per-layer metrics -----------------------------------------------------


def percentile(values, q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


# name -> unit for every metric :func:`layer_metrics` returns.
LAYER_UNITS = {
    "model.forward_train_s": "s",
    "model.backward_s": "s",
    "model.update_s": "s",
    "model.steps": "count",
    "model.pad_share": "fraction",
    "model.forward_infer_s": "s",
    "model.infer_rows_per_call": "rows",
    "model.predict_ms_p50": "ms",
    "model.checkpoint_io_s": "s",
    "data.encode_s": "s",
    "context.build_context_calls": "count",
    "context.verbalize_calls": "count",
    "context.triples_dropped_share": "fraction",
    "assembly.assemble_s": "s",
    "assembly.input_len_p50": "tokens",
    "assembly.input_len_max": "tokens",
    "tokenizer.tokenize_calls": "count",
    "tokenizer.build_vocab_s": "s",
    "candidates.build_index_s": "s",
    "candidates.lookup_exact_us": "us",
    "candidates.lookup_contains_us": "us",
    "kg.load_store_s": "s",
    "kg.load_store_calls": "count",
    "kg.save_store_calls": "count",
    "kg.rows_written": "count",
    "sparql.queries": "count",
    "sparql.query_failures": "count",
    "sparql.run_query_ms_p50": "ms",
    "sparql.manifest_reads": "count",
    "sparql.fetch_entity_ms_p50": "ms",
    "sparql.fetch_entity_ms_p99": "ms",
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in tracer.spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def total(name, keep=lambda s: True):
        return sum(s.duration for s in by_name[name] if keep(s))

    forwards = by_name["model.forward"]
    infer = [s for s in forwards if not s.attrs.get("train", False) and "rows" in s.attrs]
    cells = sum(s.attrs.get("cells", 0) for s in forwards)
    real = sum(s.attrs.get("real", 0) for s in forwards)
    contexts = [s for s in by_name["context.build_context"] if "full" in s.attrs]
    full = sum(s.attrs["full"] for s in contexts)
    kept = sum(s.attrs["kept"] for s in contexts)
    lengths = [s.attrs["length"] for s in by_name["assembly.assemble"] if "length" in s.attrs]
    lookup_us = {"exact": [], "contains": []}
    for s in by_name["candidates.lookup"]:
        lookup_us[s.attrs.get("mode", "exact")].append(s.duration * 1e6)
    predict_ms = [s.duration * 1e3 for s in by_name["model.predict"]]
    fetches = [s.duration * 1e3 for s in by_name["sparql.fetch_entity"]]
    queries = by_name["sparql.run_query"]

    values = {
        "model.forward_train_s": total("model.forward", lambda s: s.attrs.get("train", False)),
        "model.backward_s": total("model.backward"),
        "model.update_s": sum(self_time(s, children[s.id]) for s in by_name["model.train"]),
        "model.steps": len(by_name["model.backward"]),
        "model.pad_share": 1.0 - real / cells if cells else 0.0,
        "model.forward_infer_s": sum(s.duration for s in infer),
        "model.infer_rows_per_call": (statistics.fmean(s.attrs["rows"] for s in infer)
                                      if infer else 0.0),
        "model.predict_ms_p50": percentile(predict_ms, 0.5),
        "model.checkpoint_io_s": total("model.checkpoint_io"),
        "data.encode_s": total("data.encode"),
        "context.build_context_calls": len(by_name["context.build_context"]),
        "context.verbalize_calls": tracer.counts["context.verbalize"],
        "context.triples_dropped_share": (full - kept) / full if full else 0.0,
        "assembly.assemble_s": total("assembly.assemble"),
        "assembly.input_len_p50": percentile(lengths, 0.5),
        "assembly.input_len_max": max(lengths, default=0),
        "tokenizer.tokenize_calls": tracer.counts["tokenizer.tokenize"],
        "tokenizer.build_vocab_s": total("tokenizer.build_vocab"),
        "candidates.build_index_s": total("candidates.build_index"),
        "candidates.lookup_exact_us": percentile(lookup_us["exact"], 0.5),
        "candidates.lookup_contains_us": percentile(lookup_us["contains"], 0.5),
        "kg.load_store_s": total("kg.load_store") + total("sparql.load_store"),
        "kg.load_store_calls": len(by_name["sparql.load_store"]),
        "kg.save_store_calls": len(by_name["sparql.save_store"]),
        "kg.rows_written": sum(s.attrs.get("rows", 0) for s in by_name["sparql.save_store"]),
        "sparql.queries": len(queries),
        "sparql.query_failures": sum(1 for s in queries if "error" in s.attrs),
        "sparql.run_query_ms_p50": percentile([s.duration * 1e3 for s in queries], 0.5),
        "sparql.manifest_reads": tracer.counts["sparql.fetched"],
        "sparql.fetch_entity_ms_p50": percentile(fetches, 0.5),
        "sparql.fetch_entity_ms_p99": percentile(fetches, 0.99),
    }
    assert set(values) == set(LAYER_UNITS)
    return values
