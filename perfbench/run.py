#!/usr/bin/env python3
"""The kgned benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload ablation --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; ``src/kgned`` is imported from there.
Every workload is one user session through the program's public entry
points, in this order:

1. set-up (repeated; ``setup_s`` is the median): start the mock SPARQL
   endpoint, load the KG, build the vocab and the label index, encode the
   train pairs;
2. crawl: a cold ``fetch_many`` into an empty cache, then a warm re-run;
3. train; 4. ``kgned eval --protocol argmax`` through ``cli.main``;
5. serve: one closed-loop client resolving mentions one at a time with
   ``lookup`` then ``predict``, until ``--seconds`` of measured time have
   passed (at least 1,000 requests).

After the first crawl and the training, more crawls, the eval chunks and
slices of the serving run interleaved, and the training runs once more at
the end, so that a slow spell of the host does not land on one metric.
The workloads differ in their inputs and in which phase carries the
weight; ``perfbench/README.md`` says why each exists.  With ``--trace 1``
the same session runs with wrappers around every module boundary
(``tracing.py``) and the result holds the per-layer metrics instead.

Every run prints each metric by name with its unit, the machine, the
measured workload properties and every output check, then one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  It exits 1 when an
output check fails and 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import gen
import tracing
from tracing import percentile

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"

E2E_UNITS = {
    "setup_s": "s",
    "train_pairs_per_s": "pairs/s",
    "train_final_loss": "bce",
    "eval_mentions_per_s": "mentions/s",
    "inkb_accuracy": "fraction",
    "resolve_ms_p50": "ms",
    "resolve_ms_p99": "ms",
    "fetch_cold_entities_per_s": "entities/s",
    "fetch_warm_entities_per_s": "entities/s",
    "failed_share": "fraction",
    "peak_rss_mb": "MB",
}

# Per-layer metrics that describe the workload rather than one module.
PROPERTY_UNITS = {
    "serve.repeat_share": "fraction",
    "kg.triples_per_entity_p50": "triples",
    "kg.triples_per_entity_max": "triples",
    "sparql.queries_per_entity": "queries",
    "trace.overhead_share": "fraction",
}

# The acceptance gate's model and optimiser settings.
MODEL_CFG = {"d_model": 32, "n_layers": 2, "n_heads": 2, "ffn_dim": 64, "dropout": 0.0}
TRAIN_ARGS = ["--batch-size", "32", "--seed", "11", "--lr", "3e-3"]
MIN_REQUESTS = 1000
CRAWL_CAP = 20
FAIL_SHARE = 0.05


def median(values) -> float:
    return float(statistics.median(values))


class Run:
    """What one benchmark run has done so far: operations, checks, numbers."""

    def __init__(self, seed: int, seconds: float, work: Path):
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.attempted = 0
        self.failed = 0            # operations that failed, injected faults included
        self.unexpected = 0        # failures no fault injection explains
        # check name -> [times passed, times run, detail of the first failure or last pass]
        self.checks: dict[str, list] = {}
        self.metrics: dict[str, float] = {}
        self.props: dict[str, object] = {}
        self.measure_start = 0.0
        self._endpoints: list[Endpoint] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        passed, total, kept = self.checks.get(name, (0, 0, ""))
        # Keep the detail of the first failure; otherwise the latest one.
        self.checks[name] = [passed + bool(ok), total + 1, kept if passed < total else detail]
        return ok

    @property
    def correct(self) -> bool:
        return all(passed == total for passed, total, _ in self.checks.values())

    def op(self, ok: bool, injected: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.unexpected += not injected

    def cli(self, argv: list[str]) -> tuple[int, float]:
        """``kgned <argv>`` in-process; returns (exit code, wall seconds)."""
        from kgned import cli

        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc = cli.main(argv)
        wall = time.perf_counter() - start
        self.op(rc == 0)
        self.check(f"kgned {argv[0]} exits 0", rc == 0,
                   "" if rc == 0 else f"exit {rc}: {out.getvalue()[-300:]}")
        return rc, wall

    def endpoint(self, tables: Path) -> "Endpoint":
        ep = Endpoint(tables)
        self._endpoints.append(ep)
        return ep

    def stop_endpoints(self) -> None:
        while self._endpoints:
            self._endpoints.pop().stop()

    def remaining(self) -> float:
        return self.seconds - (time.perf_counter() - self.measure_start)


class Endpoint:
    """The mock SPARQL endpoint in its own process."""

    def __init__(self, tables: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "mock_sparql.py"), "--tables", str(tables)],
            stdout=subprocess.PIPE, text=True, cwd=str(ROOT))
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.stop()
            raise RuntimeError(f"mock endpoint did not start: {line!r}")
        self.base = f"http://127.0.0.1:{int(line.split()[1])}"
        self.url = self.base + "/sparql"

    def stats(self) -> dict:
        with urllib.request.urlopen(self.base + "/stats", timeout=10) as resp:
            return json.load(resp)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# -- phases ----------------------------------------------------------------


def vocab_lines(examples, store) -> list[str]:
    """The texts ``kgned train`` builds its vocab from."""
    from kgned import context

    lines = [text for ex in examples for text in (ex.sentence, ex.surface)]
    lines.extend(context.verbalize(store, t).text for t in store.all_triples())
    return lines


def timed_setup(run: Run, reps: int, setup):
    """Run ``setup`` ``reps`` times; keep the last state, report the median."""
    walls, state = [], None
    for _ in range(reps):
        run.stop_endpoints()
        start = time.perf_counter()
        state = setup()
        walls.append(time.perf_counter() - start)
    run.metrics["setup_s"] = median(walls)
    run.props["setup_s_each"] = walls
    return state


def write_tables(run: Run, w, fail) -> Path:
    path = run.work / "tables.json"
    path.write_text(json.dumps(gen.mock_tables(w, fail)), encoding="utf-8")
    return path


def expected_cache(w, fail, cap: int):
    """Triples per (head, hop) and label records per subject that a correct
    crawl of every entity leaves in the cache."""
    triples, subjects = {}, set()
    for e in w.entities:
        if e.id in fail:
            continue
        subjects.add(e.id)
        for hop, table in ((1, w.hop1), (2, w.hop2)):
            rows = table.get(e.id, [])[:cap]
            if rows:
                triples[(e.id, hop)] = [(r, t, lit) for r, t, lit in rows]
            for r, t, lit in rows:
                subjects.add(r)
                if not lit:
                    subjects.add(t)
    labels = {s: list(w.labels[s]) for s in subjects if s in w.labels}
    return triples, labels


def read_cache(cache: Path):
    triples, labels = {}, {}
    for line in (cache / "triples.tsv").read_text(encoding="utf-8").splitlines():
        head, relation, tail, hop, lit = line.split("\t")
        triples.setdefault((head, int(hop)), []).append((relation, tail, lit == "1"))
    for line in (cache / "labels.tsv").read_text(encoding="utf-8").splitlines():
        subject, kind, text = line.split("\t")
        labels.setdefault(subject, []).append((kind, text))
    return triples, labels


class Crawler:
    """Cold then warm ``fetch_many`` of every entity of ``w``; one ``step``
    is one repetition into a fresh cache directory."""

    def __init__(self, run: Run, ep: Endpoint, w, fail):
        self.run, self.ep, self.fail = run, ep, fail
        self.ids = [e.id for e in w.entities]
        self.workers = min(4, os.cpu_count() or 1)
        self.cold, self.warm, self.queries, self.unlabeled = [], [], [], 0
        self.want = expected_cache(w, fail, CRAWL_CAP)

    def fetch(self, cache: Path) -> tuple[float, dict]:
        from kgned import sparql

        start = time.perf_counter()
        outcomes = sparql.fetch_many(self.ep.url, self.ids, hops="1&2", cap=CRAWL_CAP,
                                     cache_dir=str(cache), max_workers=self.workers)
        return time.perf_counter() - start, outcomes

    def step(self) -> Path:
        run = self.run
        cache = run.work / f"cache{len(self.cold)}"
        shutil.rmtree(cache, ignore_errors=True)
        before = self.ep.stats()["queries"]
        took, first = self.fetch(cache)
        self.cold.append(took)
        self.queries.append((self.ep.stats()["queries"] - before) / len(self.ids))
        took, second = self.fetch(cache)
        self.warm.append(took)

        for outcomes, pass_name in ((first, "cold"), (second, "warm")):
            wrong = []
            for entity in self.ids:
                outcome = outcomes[entity]
                failed = isinstance(outcome, Exception)
                run.op(not failed, injected=failed and entity in self.fail)
                if failed != (entity in self.fail):
                    wrong.append(entity)
                elif pass_name == "warm" and not failed:
                    if not outcome.from_cache:
                        wrong.append(entity)
                    self.unlabeled += not outcome.labels
            run.check(f"crawl {pass_name} outcomes", not wrong,
                      f"unexpected outcome for {wrong[:5]}" if wrong else
                      f"{len(self.fail)} injected failures, rest ok")
        got_triples, got_labels = read_cache(cache)
        want_triples, want_labels = self.want
        run.check("crawl cache triples equal the endpoint's tables",
                  sorted(got_triples.items()) == sorted(want_triples.items()),
                  f"{len(got_triples)} (head, hop) groups, want {len(want_triples)}")
        run.check("crawl cache labels equal the endpoint's tables",
                  sorted(got_labels.items()) == sorted(want_labels.items()),
                  f"{len(got_labels)} subjects, want {len(want_labels)}")
        return cache

    def finish(self) -> None:
        self.run.metrics["fetch_cold_entities_per_s"] = len(self.ids) / median(self.cold)
        self.run.metrics["fetch_warm_entities_per_s"] = len(self.ids) / median(self.warm)
        self.run.props.update({
            "crawl.entities": len(self.ids), "crawl.workers": self.workers,
            "crawl.cold_s_each": self.cold, "crawl.warm_s_each": self.warm,
            "sparql.queries_per_entity": median(self.queries),
            # Warm results come back without labels (a known gap); counted, not gated.
            "crawl.warm_results_without_labels": self.unlabeled,
        })


def cli_train(run: Run, data: Path, kg_dir: Path, out: Path, n_pairs: int, epochs: int,
              extra: list[str]) -> tuple[float, list[float], bytes]:
    """One ``kgned train``; returns (wall, loss history, history file bytes)."""
    cfg = run.work / "model.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in MODEL_CFG.items()), encoding="utf-8")
    history = out.with_suffix(".history.json")
    _, wall = run.cli(["train", "--data", str(data), "--kg", str(kg_dir), "--out", str(out),
                       "--history", str(history), "--epochs", str(epochs),
                       "--model-cfg", str(cfg), *TRAIN_ARGS, *extra])
    run.props.setdefault("train.runs", []).append(
        {"checkpoint": out.name, "pairs": n_pairs, "epochs": epochs, "wall_s": wall})
    blob = history.read_bytes() if history.exists() else b""
    losses = json.loads(blob)["history"] if blob else [float("nan")]
    return wall, losses, blob


def cli_eval(run: Run, data: Path, kg_dir: Path, ckpt: Path, tag: str) -> tuple[float, bytes]:
    """One ``kgned eval --protocol argmax``; returns (wall, report bytes)."""
    report = run.work / f"{ckpt.stem}.{tag}.json"
    _, wall = run.cli(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                       "--kg", str(kg_dir), "--protocol", "argmax", "--report", str(report)])
    return wall, report.read_bytes() if report.exists() else b""


class Evaluator:
    """``kgned eval --protocol argmax`` of every checkpoint, one chunk of the
    eval split per round, so that eval time is spread over the run.  The
    accuracy pools the chunks."""

    def __init__(self, run: Run, rows, kg_dir: Path, checkpoints: list[Path]):
        self.run, self.kg_dir, self.checkpoints = run, kg_dir, checkpoints
        self.chunks = [gen.write_mentions(rows[r::ROUNDS], run.work / f"eval{r}.jsonl")
                       for r in range(ROUNDS)]
        self.sizes = [len(rows[r::ROUNDS]) for r in range(ROUNDS)]
        self.round, self.wall, self.mentions = 0, 0.0, 0
        self.correct = {c.stem: 0.0 for c in checkpoints}
        self.inkb = {c.stem: 0 for c in checkpoints}
        self.first: dict[str, bytes] = {}  # report of the first chunk per checkpoint

    def step(self) -> None:
        for ckpt in self.checkpoints:
            took, blob = cli_eval(self.run, self.chunks[self.round], self.kg_dir, ckpt,
                                  f"round{self.round}")
            self.wall += took
            self.mentions += self.sizes[self.round]
            metrics = json.loads(blob or b"{}").get("metrics", {})
            self.correct[ckpt.stem] += metrics.get("inkb_accuracy", 0.0) * metrics.get("n_inkb", 0)
            self.inkb[ckpt.stem] += metrics.get("n_inkb", 0)
            self.first.setdefault(ckpt.stem, blob)
        self.round += 1

    def accuracy(self, stem: str) -> float:
        return self.correct[stem] / self.inkb[stem] if self.inkb[stem] else 0.0

    def rerun(self, ckpt: Path, stem: str) -> bool:
        """Evaluate the first chunk again with ``ckpt``: is the report
        byte-identical to the first round's report for ``stem``?"""
        _, blob = cli_eval(self.run, self.chunks[0], self.kg_dir, ckpt, "rerun")
        return bool(blob) and blob == self.first[stem]

    def finish(self) -> None:
        self.run.metrics["eval_mentions_per_s"] = self.mentions / self.wall


class Server:
    """Closed-loop client: one mention at a time, ``Mention.make``, ``lookup``
    then ``predict``, as ``kgned disambiguate`` does after loading."""

    def __init__(self, run: Run, store, index, checkpoint: Path, reqs,
                 min_requests: int = MIN_REQUESTS):
        from kgned import data, model

        self.run, self.index, self.reqs = run, index, reqs
        self.min_requests = min_requests
        self.bundle = model.load_checkpoint(str(checkpoint))
        self.pipeline = data.EncodingPipeline(vocab=self.bundle.vocab, ctx=self.bundle.ctx,
                                              store=store)
        self.outcomes: list[tuple[float, bool, bool]] = []
        self.slices: list[list[float]] = []  # latencies of each stretch of serving

    def resolve(self, req) -> tuple[float, bool, bool]:
        """(seconds, answer is a lookup candidate and so is gold, answer is gold)."""
        from kgned import assembly, candidates, model

        m = req.mention
        start = time.perf_counter()
        mention = assembly.Mention.make(m.sentence, m.start, m.start + len(m.surface))
        cands = candidates.lookup(self.index, m.surface, mode=req.mode)
        answer = model.predict(self.bundle.model, mention, list(cands.entities), self.pipeline)
        took = time.perf_counter() - start
        return (took, answer.chosen in cands.entities and m.gold in cands.entities,
                answer.chosen == m.gold)

    def step(self, n: int) -> None:
        """The next ``n`` requests, as one slice."""
        done = len(self.outcomes)
        batch = [self.resolve(req) for req in self.reqs[done:done + n]]
        self.outcomes.extend(batch)
        self.slices.append([took for took, _, _ in batch])

    def finish(self) -> float:
        """Serve a last slice until the measured time is up and
        ``min_requests`` are done; record the metrics and return the accuracy.

        Each latency percentile is the median over the slices of the
        slice's percentile, so that a slow spell of the host during one
        slice moves it no more than it moves the median slice."""
        run = self.run
        last = []
        while (len(self.outcomes) < self.min_requests or run.remaining() > 0) and \
                len(self.outcomes) < len(self.reqs):
            self.outcomes.append(self.resolve(self.reqs[len(self.outcomes)]))
            last.append(self.outcomes[-1][0])
        if last:
            self.slices.append(last)
        for _, ok, _ in self.outcomes:
            run.op(ok)
        bad = [r.mention.id for r, (_, ok, _) in zip(self.reqs, self.outcomes) if not ok]
        run.check("every resolved entity is one of its lookup candidates", not bad,
                  f"{len(bad)} bad of {len(self.outcomes)}: {bad[:5]}")
        for name, q in (("resolve_ms_p50", 0.5), ("resolve_ms_p99", 0.99)):
            run.metrics[name] = median([percentile(sl, q) for sl in self.slices]) * 1e3
        served = self.reqs[:len(self.outcomes)]
        run.props["serve.requests"] = len(served)
        run.props["serve.contains_share"] = sum(r.mode == "contains" for r in served) / len(served)
        run.props["serve.repeat_share"] = gen.repeat_share(served)
        run.props["serve.accuracy"] = sum(hit for _, _, hit in self.outcomes) / len(served)
        return run.props["serve.accuracy"]

    def replay(self, n: int) -> float:
        """Resolve the first ``n`` requests again; returns the wall time."""
        start = time.perf_counter()
        for req in self.reqs[:n]:
            self.resolve(req)
        return time.perf_counter() - start


def encode_pairs(pipeline, examples) -> list:
    from kgned import data

    return [(pipeline.encode_pair(p.example.to_mention(), p.candidate), p.label)
            for p in data.to_pairs(examples)]


def length_stats(batch) -> dict:
    lengths = [inp.length for inp, _ in batch]
    return {q: percentile(lengths, v) for q, v in (("p10", 0.1), ("p50", 0.5), ("p90", 0.9))} | {
        "max": max(lengths)}


def triples_per_entity(run: Run, sizes) -> None:
    run.props["kg.triples_per_entity_p50"] = percentile(sizes, 0.5)
    run.props["kg.triples_per_entity_p90"] = percentile(sizes, 0.9)
    run.props["kg.triples_per_entity_max"] = max(sizes)


# -- workloads -------------------------------------------------------------

ROUNDS = 4
# Requests skew towards popular entities only on the 10k-entity KG; on the
# small KGs a skew would let a handful of entities set the latency.
KB_ZIPF = 0.8
ABLATION_EPOCHS = 10
ABLATION_EVAL_PER_ENTITY = 2
ABLATION_VARIANTS = (("none", ["--max-triples", "0", "--ctx-hops", "1"]),
                     ("hop1", ["--max-triples", "15", "--ctx-hops", "1"]),
                     ("hop12", ["--max-triples", "15", "--ctx-hops", "12"]))


def side_crawl_inputs(run: Run):
    """The small crawl every non-crawl workload runs beside its main phase."""
    w = gen.world(run.seed, 50, hop2=True)
    fail = gen.failing_entities(w, run.seed, FAIL_SHARE)
    return w, fail, write_tables(run, w, fail)


def interleave(crawler: Crawler, crawl_rounds, evaluator: Evaluator, server: Server) -> None:
    """``ROUNDS`` rounds of a crawl repetition (in ``crawl_rounds`` only), an
    eval chunk and a slice of the serving requests.  Spreading each phase
    over the run keeps a slow spell of the machine from landing on one
    metric alone."""
    for r in range(ROUNDS):
        if r in crawl_rounds:
            crawler.step()
        evaluator.step()
        server.step(server.min_requests // (ROUNDS + 1))
    crawler.finish()
    evaluator.finish()


def ablation(run: Run):
    """Criterion-1 corpus; train and argmax-eval the three context variants."""
    from kgned import candidates, context, data, kg, tokenizer
    from kgned.synthetic import CorpusSpec, build_corpus, write_corpus

    corpus = build_corpus(CorpusSpec(n_labels=gen.ABLATION_LABELS,
                                     seed=gen.ABLATION_CORPUS_SEED))
    paths = write_corpus(corpus, run.work / "corpus")
    records = [(e.entity, e.label, e.topic) for e in corpus.entities]
    eval_rows = gen.mentions_per_entity(records, run.seed, ABLATION_EVAL_PER_ENTITY, 2)
    kg_dir = paths["triples"].parent
    side, fail, tables = side_crawl_inputs(run)
    reqs = gen.requests([gen.Entity(e, label, topic, 0) for e, label, topic in records],
                        run.seed, 5 * MIN_REQUESTS, zipf_a=0.0)
    triples_per_entity(run, [len(corpus.store.neighbors(e, "1&2")) for e, _, _ in records])

    def setup():
        ep = run.endpoint(tables)
        store = kg.load_store(str(paths["triples"]), str(paths["labels"]))
        examples = data.load_jsonl(str(paths["train"]))
        vocab = tokenizer.build_vocab(vocab_lines(examples, store))
        index = candidates.build_index(store)
        encoded = {}
        for name, (max_triples, hops) in (("none", (0, "1")), ("hop1", (15, "1")),
                                          ("hop12", (15, "1&2"))):
            ctx = context.ContextConfig(hops=hops, max_triples=max_triples, max_seq_len=96)
            pipeline = data.EncodingPipeline(vocab=vocab, ctx=ctx, store=store)
            encoded[name] = encode_pairs(pipeline, examples)
        return ep, store, index, encoded

    ep, store, index, encoded = timed_setup(run, 3, setup)
    run.props["input_len"] = {name: length_stats(b) for name, b in encoded.items()}
    n_pairs = len(encoded["none"])

    run.measure_start = time.perf_counter()
    crawler = Crawler(run, ep, side, fail)
    crawler.step()
    walls, losses, histories = [], {}, {}

    def train(name, flags):
        wall, losses[name], histories[name] = cli_train(
            run, paths["train"], kg_dir, run.work / f"{name}.npz", n_pairs, ABLATION_EPOCHS,
            ["--max-seq-len", "96", *flags])
        walls.append(wall)

    for name, flags in ABLATION_VARIANTS:
        train(name, flags)
    evaluator = Evaluator(run, eval_rows, kg_dir,
                          [run.work / f"{name}.npz" for name, _ in ABLATION_VARIANTS])
    # Requests are cheap here, so more of them keep the p99 steady.
    server = Server(run, store, index, run.work / "hop1.npz", reqs, 3 * MIN_REQUESTS)
    interleave(crawler, (0, 2), evaluator, server)
    # The rerun comes last, so training time is measured in two places.
    train("none-rerun", ABLATION_VARIANTS[0][1])
    run.check("rerun of a variant writes a byte-identical history",
              histories["none"] == histories["none-rerun"] and bool(histories["none"]))
    run.metrics["train_pairs_per_s"] = n_pairs * ABLATION_EPOCHS * len(walls) / sum(walls)
    run.metrics["train_final_loss"] = losses["hop1"][-1]
    run.check("rerun of a variant writes a byte-identical eval report",
              evaluator.rerun(run.work / "none-rerun.npz", "none"))
    accuracy = {name: evaluator.accuracy(name) for name, _ in ABLATION_VARIANTS}
    run.props["ablation.inkb_accuracy"] = accuracy
    run.metrics["inkb_accuracy"] = accuracy["hop1"]
    server.finish()
    return server


KB_ENTITIES = 10_000
KB_TRAIN_MENTIONS = 150
KB_EVAL_MENTIONS = 400
KB_EPOCHS = 2


def kb_serve(run: Run):
    """A 10k-entity KG from TSV; short training, then closed-loop serving."""
    from kgned import candidates, context, data, kg, model, tokenizer

    w = gen.world(run.seed, KB_ENTITIES)
    files = gen.write_kg(w, run.work / "kg")
    train_path = gen.write_mentions(gen.mentions(w, run.seed, KB_TRAIN_MENTIONS, 1),
                                    run.work / "train.jsonl")
    eval_rows = gen.mentions(w, run.seed, KB_EVAL_MENTIONS, 2)
    reqs = gen.requests(list(w.entities), run.seed, 5 * MIN_REQUESTS, zipf_a=KB_ZIPF)
    side, fail, tables = side_crawl_inputs(run)
    triples_per_entity(run, [len(rows) for rows in w.hop1.values()])

    def setup():
        ep = run.endpoint(tables)
        store = kg.load_store(str(files["triples"]), str(files["labels"]))
        examples = data.load_jsonl(str(train_path))
        vocab = tokenizer.build_vocab(vocab_lines(examples, store))
        index = candidates.build_index(store)
        ctx = context.ContextConfig(hops="1", max_triples=15, max_seq_len=128)
        pipeline = data.EncodingPipeline(vocab=vocab, ctx=ctx, store=store)
        return ep, store, vocab, ctx, index, encode_pairs(pipeline, examples)

    ep, store, vocab, ctx, index, batch = timed_setup(run, 3, setup)
    run.props["input_len"] = length_stats(batch)

    run.measure_start = time.perf_counter()
    crawler = Crawler(run, ep, side, fail)
    crawler.step()
    walls, histories = [], []

    def train():
        clf = model.Classifier(model.ModelConfig(vocab_size=vocab.size,
                                                 n_segments=ctx.n_segments,
                                                 max_seq_len=ctx.max_seq_len, **MODEL_CFG),
                               seed=11)
        start = time.perf_counter()
        result = model.train(clf, batch, model.TrainConfig(learning_rate=3e-3, batch_size=32,
                                                           epochs=KB_EPOCHS, seed=11))
        walls.append(time.perf_counter() - start)
        histories.append(result.history)
        run.op(True)
        return clf

    checkpoint = run.work / "kb.npz"
    model.save_checkpoint(str(checkpoint), train(), vocab=vocab, ctx=ctx)
    evaluator = Evaluator(run, eval_rows, run.work / "kg", [checkpoint])
    server = Server(run, store, index, checkpoint, reqs)
    interleave(crawler, (0, 2), evaluator, server)
    # The rerun comes last, so training time is measured in two places.
    train()
    run.check("rerun of training gives the same loss history", histories[0] == histories[1])
    run.check("eval report is byte-identical on rerun", evaluator.rerun(checkpoint, "kb"))
    run.metrics["train_pairs_per_s"] = len(batch) * KB_EPOCHS * len(walls) / sum(walls)
    run.metrics["train_final_loss"] = histories[0][-1]
    run.metrics["inkb_accuracy"] = evaluator.accuracy("kb")
    server.finish()
    return server


CRAWL_ENTITIES = 180
CRAWL_EPOCHS = 1


def crawl(run: Run):
    """Cold and warm crawl of 200 entities; then train and serve on the cache."""
    from kgned import candidates, kg

    w = gen.world(run.seed, CRAWL_ENTITIES, hop2=True)
    fail = gen.failing_entities(w, run.seed, FAIL_SHARE)
    tables = write_tables(run, w, fail)
    served = [e for e in w.entities if e.id not in fail]
    records = [(e.id, e.label, e.topic) for e in served]
    train_rows = gen.mentions_per_entity(records, run.seed, 1, 1)
    train_path = gen.write_mentions(train_rows, run.work / "train.jsonl")
    eval_rows = gen.mentions_per_entity(records, run.seed, 1, 2)
    reqs = gen.requests(served, run.seed, 5 * MIN_REQUESTS, zipf_a=0.0)
    triples_per_entity(run, [len(w.hop1[e.id][:CRAWL_CAP]) + len(w.hop2[e.id][:CRAWL_CAP])
                             for e in w.entities])

    ep = timed_setup(run, 5, lambda: run.endpoint(tables))
    run.measure_start = time.perf_counter()
    crawler = Crawler(run, ep, w, fail)
    cache = crawler.step()

    n_pairs = sum(len(r.candidates) for r in train_rows)
    checkpoint = run.work / "crawl.npz"
    wall, losses, history = cli_train(run, train_path, cache, checkpoint, n_pairs,
                                      CRAWL_EPOCHS, ["--max-seq-len", "128"])

    store = kg.load_store(str(cache / "triples.tsv"), str(cache / "labels.tsv"))
    index = candidates.build_index(store)
    evaluator = Evaluator(run, eval_rows, cache, [checkpoint])
    server = Server(run, store, index, checkpoint, reqs)
    interleave(crawler, (2,), evaluator, server)
    # The rerun comes last, so training time is measured in two places.
    rerun_wall, _, rerun = cli_train(run, train_path, cache, run.work / "crawl-rerun.npz",
                                     n_pairs, CRAWL_EPOCHS, ["--max-seq-len", "128"])
    run.check("rerun of training writes a byte-identical history",
              history == rerun and bool(history))
    run.metrics["train_pairs_per_s"] = 2 * n_pairs * CRAWL_EPOCHS / (wall + rerun_wall)
    run.metrics["train_final_loss"] = losses[-1]
    run.check("eval report is byte-identical on rerun", evaluator.rerun(checkpoint, "crawl"))
    run.metrics["inkb_accuracy"] = evaluator.accuracy("crawl")
    server.finish()
    return server


WORKLOADS = {"ablation": ablation, "kb-serve": kb_serve, "crawl": crawl}


# -- machine and output ----------------------------------------------------


def machine() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kgned").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = "none"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or "none"
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k, "unset") for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "platform": platform.platform(),
    }


def run_workload(args) -> tuple[Run, dict[str, tuple[float, str]]]:
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(args.seed, args.seconds, work)
    tracer = tracing.Tracer() if args.trace else None
    try:
        with tracing.installed(tracer) if tracer else contextlib.nullcontext():
            server = WORKLOADS[args.workload](run)
    finally:
        run.stop_endpoints()
    run.metrics["failed_share"] = run.failed / run.attempted
    run.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if not tracer:
        return run, {name: (run.metrics[name], unit) for name, unit in E2E_UNITS.items()}

    # Tracing overhead: the first serving requests again, untraced then traced.
    n = min(150, run.props["serve.requests"])
    untraced = server.replay(n)
    with tracing.installed(tracing.Tracer()):
        traced = server.replay(n)
    run.props["trace.overhead_share"] = traced / untraced - 1.0
    run.props["trace.overhead_s"] = {"requests": n, "untraced": untraced, "traced": traced}
    tracer.write(work / "trace.jsonl")
    layers = tracing.layer_metrics(tracer)
    out = {name: (layers[name], unit) for name, unit in tracing.LAYER_UNITS.items()}
    out.update({name: (run.props[name], unit) for name, unit in PROPERTY_UNITS.items()})
    return run, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kgned benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time the serving client runs to (at least "
                             f"{MIN_REQUESTS} requests)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kgned" / "__init__.py").is_file():
        print(f"error: no kgned sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))

    info = machine()
    for key, value in info.items():
        print(f"machine {key}: {value}")
    run, metrics = run_workload(args)
    for key, value in sorted(run.props.items()):
        print(f"property {key}: {value}")
    for name, (passed, total, detail) in run.checks.items():
        print(f"check {'ok  ' if passed == total else 'FAIL'} {name}: {passed}/{total}"
              + (f" ({detail})" if detail else ""))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    correct = run.correct
    result = {"correct": correct, "attempted": run.attempted, "failed": run.unexpected,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    (run.work / "result.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "machine": info, "properties": run.props, "checks": run.checks,
                    **result}, indent=1, default=str), encoding="utf-8")
    # Keep only the record of the run; its inputs and caches are rebuilt each time.
    for path in run.work.iterdir():
        if path.is_dir():
            shutil.rmtree(path)
        elif path.name not in ("result.json", "trace.jsonl"):
            path.unlink()
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
