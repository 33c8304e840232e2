"""The benchmark's workloads: inputs made from the seed, set-up, and passes.

Every workload drives arcmatch through the library calls its CLI makes:
`train` (load_pairs, random_embeddings, sample_negatives, encode_triples,
make_eval_instances, encode_instances, sgd_step, save_checkpoint), and
`eval` / `score` (load_checkpoint, load_embeddings, encode_sentence per
sentence, p_at_1). Public entry points are called through their modules
so that the tracer's wrappers see them.

A pass is a fixed amount of work: for a train workload, PASS_BATCHES
rounds from the same initial state, each one SGD batch per model and then
a slice of the test pairs scored by each model; for arc2-rank, ranking
every test query among 1 true and EVAL_NEGATIVES random candidates, then
scoring every test pair. Training is deterministic, so every pass must
reproduce the first pass's losses and scores bit for bit; a difference
counts as a failed op.
"""

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import calibration
from arcmatch import checkpoint, data, embeddings, metrics, training
from arcmatch.arc1 import build_arc1
from arcmatch.arc2 import build_arc2
from arcmatch.baselines import build_senmlp, build_senna, build_wordembed
from arcmatch.errors import ArcMatchError
from arcmatch.models import clone_params, restore_params
from arcmatch.tensor import make_rng

# README configuration and the synthetic corpus of `arcmatch gen-synth
# --pairs 2000 --vocab-size 400 --topics 10`, split 80/10/10.
EMBED_DIM = 16
MAX_LEN = 12
CORPUS = dict(n_pairs=2000, vocab_size=400, len_range=(7, 12), n_topics=10)
SPLIT = (80, 10, 10)
TRAIN_NEGATIVES = 10
EVAL_NEGATIVES = 9
SGD = training.TrainConfig(learning_rate=0.4, batch_size=64,
                           finetune_embeddings=True)
PASS_BATCHES = 24   # SGD batches per model per pass
LOSS_TAIL = 16      # final_loss is the mean hinge of a pass's last batches
ORACLE_PAIRS = 3    # test pairs re-scored by the loop oracles per model
ORACLE_TOL = 1e-9
RANK_SCORE_SLICE = 20  # test pairs per timed slice on arc2-rank

MODELS = {
    "arc2": lambda rng: build_arc2(EMBED_DIM, MAX_LEN, rng, window1=3, maps1=32,
                                   twod_layers=((2, 32), (2, 64)), hidden=(64,)),
    "arc1": lambda rng: build_arc1(EMBED_DIM, MAX_LEN, rng, windows=(3, 2),
                                   feature_maps=(16, 16), hidden=(64,)),
    "wordembed": lambda rng: build_wordembed(EMBED_DIM, rng, hidden=(64,)),
    "senmlp": lambda rng: build_senmlp(EMBED_DIM, MAX_LEN, rng, hidden=(64,)),
    "senna": lambda rng: build_senna(EMBED_DIM, MAX_LEN, rng, window=3, maps=16,
                                     hidden=(64,)),
}

TRAIN_WORKLOADS = {"train": ("arc2", "arc1", "wordembed", "senmlp", "senna")}
WORKLOADS = (*TRAIN_WORKLOADS, "arc2-rank")


@dataclass
class ModelPass:
    """One model's results in one pass, kept for the bitwise checks."""

    kind: str
    sgd_s: float = 0.0                                # time in sgd_step
    losses: list = field(default_factory=list)        # per SGD batch
    eval_scores: list = field(default_factory=list)   # per ranking candidate
    eval_loss: float = math.nan
    scores: list = field(default_factory=list)        # per test pair

    @property
    def final_loss(self) -> float:
        if self.losses:
            return float(np.mean(self.losses[-LOSS_TAIL:]))
        return self.eval_loss

    @property
    def loss_terms(self) -> int:
        """How many triple hinges final_loss averages."""
        if self.losses:
            return min(len(self.losses), LOSS_TAIL) * SGD.batch_size
        return len(self.eval_scores) * EVAL_NEGATIVES // (EVAL_NEGATIVES + 1)


@dataclass
class Pass:
    """Timings of one pass as (items, seconds, reference tick seconds)."""

    models: list
    rounds: list = field(default_factory=list)   # one SGD batch per model, or
                                                 # one ranking instance
    slices: list = field(default_factory=list)   # one slice of scored pairs
    traced: bool = False

    @property
    def rate(self) -> float:
        return rate(self.rounds)


def rate(samples) -> float:
    """Items per second over (items, seconds, ...) samples."""
    return sum(s[0] for s in samples) / sum(s[1] for s in samples)


@dataclass
class Ops:
    """Attempted and failed operations, with the first failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def add(self, ok: bool, what: str, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            self.note(what)

    def note(self, what: str) -> None:
        if len(self.messages) < 20:
            self.messages.append(what)


def derive_seeds(seed: int) -> list:
    """Independent integer seeds for each random input, all from --seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(6)]


def prepare(workload: str, seed: int, work: str) -> dict:
    """Write the input files, as gen-synth and train would; not timed."""
    seeds = derive_seeds(seed)
    corpus, tokens = data.gen_synthetic_corpus(CORPUS["n_pairs"], CORPUS["vocab_size"],
                                               CORPUS["len_range"], CORPUS["n_topics"],
                                               make_rng(seeds[0]))
    n = len(corpus.pairs)
    n_val, n_test = n * SPLIT[1] // 100, n * SPLIT[2] // 100
    n_train = n - n_val - n_test
    paths = {name: os.path.join(work, name + ".pairs") for name in ("train", "val", "test")}
    splits = {"train": corpus.pairs[:n_train],
              "val": corpus.pairs[n_train:n_train + n_val],
              "test": corpus.pairs[n_train + n_val:]}
    for name, pairs in splits.items():
        data.save_pairs(data.PairCorpus(pairs=pairs), paths[name])
    if workload == "arc2-rank":
        # an untrained checkpoint: ranking cost does not depend on the weights
        table = embeddings.random_embeddings(tokens, EMBED_DIM, make_rng(seeds[1]))
        paths["checkpoint"] = os.path.join(work, "model.ckpt")
        paths["embeddings"] = paths["checkpoint"] + ".embeddings.txt"
        checkpoint.save_checkpoint(paths["checkpoint"], MODELS["arc2"](make_rng(seeds[4])))
        embeddings.write_embeddings(table, paths["embeddings"])
    return {"paths": paths, "seeds": seeds}


def _load_pairs(path):
    with open(path, encoding="utf-8") as fh:
        return data.load_pairs(fh, provenance=path)


def setup_train(inputs: dict, kinds) -> dict:
    """Everything `arcmatch train` does before its first SGD step."""
    paths, seeds = inputs["paths"], inputs["seeds"]
    train_corpus = _load_pairs(paths["train"])
    val_corpus = _load_pairs(paths["val"])
    test_corpus = _load_pairs(paths["test"])
    tokens = {t for corpus in (train_corpus, val_corpus)
              for pair in corpus.pairs for side in pair for t in side}
    table = embeddings.random_embeddings(tokens, EMBED_DIM, make_rng(seeds[1]))
    rng = make_rng(seeds[2])
    triples = data.encode_triples(
        data.sample_negatives(train_corpus, TRAIN_NEGATIVES, "random", table, rng),
        table, MAX_LEN)
    val = data.encode_instances(
        data.make_eval_instances(val_corpus, EVAL_NEGATIVES, "random", table, rng),
        table, MAX_LEN)
    models = {kind: MODELS[kind](make_rng(seeds[4])) for kind in kinds}
    order = make_rng(seeds[5]).permutation(len(triples))
    size = SGD.batch_size
    batches = [[triples[i] for i in order[b * size:(b + 1) * size]]
               for b in range(PASS_BATCHES)]
    # one table per model: fine-tuning updates it, and rounds interleave models
    tables = {kind: embeddings.EmbeddingTable(table.vocab, table.dim, table.vectors.copy())
              for kind in kinds}
    return {"tables": tables, "table0": table.vectors.copy(), "models": models,
            "initial": {k: clone_params(m) for k, m in models.items()},
            "batches": batches, "test": test_corpus.pairs,
            "val": val}  # built as `train` builds its validation set; unused here


def setup_rank(inputs: dict) -> dict:
    """Everything `arcmatch eval` does before it scores: loads and instances."""
    paths, seeds = inputs["paths"], inputs["seeds"]
    model, _ = checkpoint.load_checkpoint(paths["checkpoint"])
    with open(paths["embeddings"], encoding="utf-8") as fh:
        table = embeddings.load_embeddings(fh)
    test = _load_pairs(paths["test"])
    instances = data.make_eval_instances(test, EVAL_NEGATIVES, "random", table,
                                         make_rng(seeds[3]))
    return {"tables": {"arc2": table}, "models": {"arc2": model},
            "instances": instances, "test": test.pairs}


def score_tokens(model, table, x, y) -> float:
    """The `score --pairs` path: encode both sentences, then score."""
    sx = embeddings.encode_sentence(x, table, MAX_LEN)
    sy = embeddings.encode_sentence(y, table, MAX_LEN)
    return model.score(sx, sy)[0]


def _score_slice(out: Pass, scored: list, pairs, ops: Ops, tracer, ref=None) -> None:
    """Score `pairs` with each (rec, model, table) in `scored`; time the slice.

    ref is a reference tick taken next to the slice; one is taken after it
    when none is given.
    """
    tracer.phase = "score"
    start = time.perf_counter()
    for rec, model, table in scored:
        for x, y in pairs:
            try:
                rec.scores.append(score_tokens(model, table, x, y))
            except ArcMatchError as exc:
                ops.note(f"{rec.kind} score: {exc}")
                rec.scores.append(math.nan)
    elapsed = time.perf_counter() - start
    out.slices.append((len(pairs) * len(scored), elapsed,
                       calibration.tick() if ref is None else ref))


def train_pass(ctx: dict, ops: Ops, tracer) -> Pass:
    """PASS_BATCHES rounds from the initial state, each one SGD batch per
    model followed by scoring the next slice of test pairs with each model.

    Interleaving spreads every model's samples across the whole run, so a
    slow spell of a shared machine touches all of them alike.
    """
    kinds = list(ctx["models"])
    recs = [ModelPass(kind) for kind in kinds]
    for kind in kinds:
        restore_params(ctx["models"][kind], ctx["initial"][kind])
        ctx["tables"][kind].vectors[...] = ctx["table0"]
    scored = [(rec, ctx["models"][rec.kind], ctx["tables"][rec.kind]) for rec in recs]
    out = Pass(models=recs)
    rng = make_rng(0)  # unused without dropout; sgd_step requires one
    test = ctx["test"]
    bounds = np.linspace(0, len(test), len(ctx["batches"]) + 1).astype(int)
    for b, batch in enumerate(ctx["batches"]):
        tracer.phase = "sgd"
        elapsed = 0.0
        ticks = []
        for rec, model, table in scored:
            start = time.perf_counter()
            try:
                rec.losses.append(training.sgd_step(model, batch, SGD, rng, table))
            except ArcMatchError as exc:
                ops.note(f"{rec.kind} sgd_step: {exc}")
                rec.losses.append(math.nan)
            step_s = time.perf_counter() - start
            rec.sgd_s += step_s
            elapsed += step_s
            ticks.append(calibration.tick())  # one per step tracks faster spells
        ref = float(np.median(ticks))
        out.rounds.append((len(batch) * len(scored), elapsed, ref))
        _score_slice(out, scored, test[bounds[b]:bounds[b + 1]], ops, tracer, ref)
    return out


def rank_pass(ctx: dict, ops: Ops, tracer, wrap=None) -> Pass:
    """P@1 over the test instances, then scoring every test pair in slices.

    wrap, when given, traces the benchmark's own score_fn as a span so that
    its bookkeeping is not charged to p_at_1.
    """
    model, table = ctx["models"]["arc2"], ctx["tables"]["arc2"]
    instances = ctx["instances"]
    n_cand = EVAL_NEGATIVES + 1
    rec = ModelPass("arc2")
    out = Pass(models=[rec])
    starts, ends, ticks = [], [], []

    def score_fn(x, y):
        if len(rec.eval_scores) % n_cand == 0:  # an instance starts
            ends.append(time.perf_counter())   # and the one before it ends
            ticks.append(calibration.tick())
            starts.append(time.perf_counter())
        s = score_tokens(model, table, x, y)
        rec.eval_scores.append(s)
        return s

    tracer.phase = "eval"
    try:
        metrics.p_at_1(wrap("bench.score_fn", score_fn) if wrap else score_fn,
                       instances)
    except ArcMatchError as exc:
        ops.note(f"p_at_1: {exc}")
    ends.append(time.perf_counter())
    out.rounds = [(1, end - start, ref) for start, end, ref
                  in zip(starts, ends[1:], ticks)]
    if len(rec.eval_scores) == n_cand * len(instances):
        scores = np.array(rec.eval_scores).reshape(len(instances), n_cand)
        rows = np.arange(len(instances))
        answers = [inst.answer for inst in instances]
        negative = np.ones(scores.shape, dtype=bool)
        negative[rows, answers] = False
        hinge = np.maximum(0.0, 1.0 - scores[rows, answers][:, None] + scores)
        rec.eval_loss = float(hinge[negative].mean())
    test = ctx["test"]
    for start in range(0, len(test), RANK_SCORE_SLICE):
        _score_slice(out, [(rec, model, table)], test[start:start + RANK_SCORE_SLICE],
                     ops, tracer)
    return out


def count_pass(out: Pass, reference: Pass, ops: Ops) -> None:
    """Count a pass's ops; non-finite or non-reproduced results fail."""
    for rec, ref in zip(out.models, reference.models):
        for name, values, ref_values in (("sgd batch", rec.losses, ref.losses),
                                         ("ranking score", rec.eval_scores, ref.eval_scores),
                                         ("pair score", rec.scores, ref.scores)):
            if len(values) != len(ref_values):
                ops.add(False, f"{rec.kind} {name}: {len(values)} results, "
                               f"expected {len(ref_values)}", max(len(ref_values), 1))
                continue
            for v, r in zip(values, ref_values):
                ops.add(math.isfinite(v) and v == r,
                        f"{rec.kind} {name}: {v!r} (first pass {r!r})")


def oracle_score(ref, model, sx, sy) -> float:
    """Loop-oracle score for any model kind (tests/reference.py)."""
    if model.kind == "arc2":
        return ref.ref_arc2_score(model, sx, sy)
    if model.kind == "arc1":
        return ref.ref_arc1_score(model, sx, sy)
    if model.kind == "wordembed":
        return ref.ref_wordembed_score(model, sx, sy)
    if model.kind == "senmlp":
        return ref.ref_senmlp_score(model, sx, sy)
    vx = ref.ref_encode(sx.x, model.params_x.layers, model.config_x.windows,
                        model.config_x.activation, global_pool=True)
    vy = ref.ref_encode(sy.x, model.params_y.layers, model.config_y.windows,
                        model.config_y.activation, global_pool=True)
    return ref.ref_head(model.head.weights, model.head.biases,
                        list(vx) + list(vy), model.head.activation)


def oracle_check(ref, ctx: dict, ops: Ops) -> None:
    """Score the first test pairs with each model as it stands and compare
    with the loop oracle; they must agree to ORACLE_TOL."""
    for kind, model in ctx["models"].items():
        for x, y in ctx["test"][:ORACLE_PAIRS]:
            sx = embeddings.encode_sentence(x, ctx["tables"][kind], MAX_LEN)
            sy = embeddings.encode_sentence(y, ctx["tables"][kind], MAX_LEN)
            s = model.score(sx, sy)[0]
            want = oracle_score(ref, model, sx, sy)
            ops.add(math.isfinite(s) and abs(s - want) <= ORACLE_TOL * max(1.0, abs(want)),
                    f"{kind} oracle: {s!r} vs {want!r}")


def save_and_reload(ctx: dict, work: str, ops: Ops) -> None:
    """End a train run as `arcmatch train` does, with a checkpoint save.

    Reloading must give back the float32-rounded parameters exactly.
    """
    for kind, model in ctx["models"].items():
        path = os.path.join(work, f"{kind}.ckpt")
        checkpoint.save_checkpoint(path, model)
        loaded, _ = checkpoint.load_checkpoint(path)
        same = all(np.array_equal(t.astype(np.float32).astype(np.float64), u)
                   for (_, t), (_, u) in zip(model.named_params(), loaded.named_params()))
        ops.add(same, f"{kind} checkpoint round trip changed parameters")
