"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The learnability and
order-sensitivity criteria train real models and dominate the runtime
(several minutes); everything else completes in seconds.
"""

import time

import numpy as np
import pytest

from arcmatch.arc1 import build_arc1
from arcmatch.arc2 import build_arc2, embed_arc1_as_arc2
from arcmatch.baselines import build_wordembed
from arcmatch.checkpoint import load_checkpoint, save_checkpoint
from arcmatch.conv_sentence import SentenceModelConfig, encode, init_sentence_params
from arcmatch.data import (PairCorpus, bag_overlap_score, encode_instances,
                           encode_triples, gen_synthetic_corpus,
                           make_eval_instances, sample_negatives)
from arcmatch.embeddings import random_embeddings
from arcmatch.errors import ConfigError
from arcmatch.metrics import classify_eval, p_at_1
from arcmatch.tensor import make_rng
from arcmatch.training import TrainConfig, gradient_check, hinge_loss, train

from conftest import random_sentence, small_table
from reference import ref_arc1_score, ref_arc2_score, ref_encode

MODEL_KINDS = ("arc1", "arc2", "wordembed", "senmlp", "senna")

# frozen experiment setup (criteria 5-9): topical mirror corpus at desk scale
EMBED_DIM = 24
MAX_LEN = 12
CORPUS_ARGS = dict(n_pairs=3200, vocab_size=400, len_range=(9, 12), n_topics=10)
N_TRAIN, N_VAL, N_TEST = 2000, 300, 900


def _p(msg):
    print(f"\n{msg}")


@pytest.fixture(scope="module")
def corpus_and_tokens():
    corpus, tokens = gen_synthetic_corpus(rng=make_rng(100), **CORPUS_ARGS)
    return corpus, tokens


def _splits(corpus):
    return (PairCorpus(pairs=corpus.pairs[:N_TRAIN]),
            PairCorpus(pairs=corpus.pairs[N_TRAIN : N_TRAIN + N_VAL]),
            PairCorpus(pairs=corpus.pairs[N_TRAIN + N_VAL :]))


def _experiment(corpus, tokens, build, neg_mode, lr, epochs, seed,
                train_negatives=5):
    """Train on the corpus with the given sampler; return test P@1."""
    train_c, val_c, test_c = _splits(corpus)
    table = random_embeddings(tokens, EMBED_DIM, make_rng(1000 + seed))
    triples = encode_triples(
        sample_negatives(train_c, train_negatives, neg_mode, table,
                         make_rng(2000 + seed)), table, MAX_LEN)
    val_inst = encode_instances(
        make_eval_instances(val_c, 4, "random", table, make_rng(3000 + seed)),
        table, MAX_LEN)
    model = build(make_rng(seed))
    cfg = TrainConfig(learning_rate=lr, batch_size=64, max_epochs=epochs,
                      patience=8, eval_every=157, seed=seed,
                      finetune_embeddings=True)
    model, _ = train(model, triples, val_inst, cfg, table=table)
    test_inst = encode_instances(
        make_eval_instances(test_c, 4, "random", table, make_rng(4000 + seed)),
        table, MAX_LEN)
    return p_at_1(lambda sx, sy: model.score(sx, sy)[0], test_inst).value


def _build_arc1(rng):
    return build_arc1(EMBED_DIM, MAX_LEN, rng, windows=(3, 2),
                      feature_maps=(32, 32), hidden=(64,))


def _build_arc2(rng):
    return build_arc2(EMBED_DIM, MAX_LEN, rng, window1=3, maps1=32,
                      twod_layers=((2, 32),), hidden=(64,))


def _build_wordembed(rng):
    return build_wordembed(EMBED_DIM, rng, hidden=(32,))


def test_criterion_1_gradient_correctness():
    t0 = time.time()
    worst = {}
    for kind in MODEL_KINDS:
        worst[kind] = max(gradient_check(kind, seed=s, eps=1e-5)
                          for s in range(10))
        assert worst[kind] < 1e-4, (kind, worst[kind])
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _p(f"PASS criterion 1: gradcheck < 1e-4 for {len(worst)} model kinds x 10 seeds "
       f"(worst {max(worst.values()):.2e}, {elapsed:.1f}s)")


def _pad_frontier_1d(length, max_len, windows):
    frontiers = []
    is_pad = [r >= length for r in range(max_len)]
    for k in windows:
        conv = [all(is_pad[i : i + k]) for i in range(len(is_pad) - k + 1)]
        padded = conv + [True] if len(conv) % 2 else conv
        pool = [padded[2 * i] and padded[2 * i + 1] for i in range(len(padded) // 2)]
        frontiers.append((conv, pool))
        is_pad = pool
    return frontiers


def test_criterion_2_padding_hierarchy():
    rng = make_rng(55)
    table = small_table(dim=3, n_tokens=12, seed=3)
    checked_1d = 0
    while checked_1d < 100:
        depth = int(rng.integers(1, 3))
        windows = tuple(int(rng.integers(2, 4)) for _ in range(depth))
        maps = tuple(int(rng.integers(1, 4)) for _ in range(depth))
        max_len = int(rng.integers(8, 17))
        cfg = SentenceModelConfig(embed_dim=3, max_len=max_len, windows=windows,
                                  feature_maps=maps,
                                  activation="relu" if checked_1d % 2 else "sigmoid")
        try:
            cfg.validate()
        except ConfigError:
            continue
        params = init_sentence_params(cfg, rng)
        sent = random_sentence(table, max_len, rng, min_len=1)
        _, trace = encode(sent, params, cfg)
        for lt, (conv_pad, pool_pad) in zip(trace.layers,
                                            _pad_frontier_1d(sent.length, max_len, windows)):
            for i, pad in enumerate(conv_pad):
                if pad:
                    assert not lt.conv_out[i].any()
            for i, pad in enumerate(pool_pad):
                if pad:
                    assert not lt.pool_out[i].any()
        checked_1d += 1

    # 2D stacks: the pair gate kills cells only where BOTH windows are padding
    for trial in range(100):
        model = build_arc2(3, 10, make_rng(200 + trial), window1=2,
                           maps1=int(rng.integers(1, 4)),
                           twod_layers=((2, 2),),
                           activation="relu" if trial % 2 else "sigmoid")
        sx = random_sentence(table, 10, rng, min_len=1, max_tokens=6)
        sy = random_sentence(table, 10, rng, min_len=1, max_tokens=6)
        _, trace = model.score(sx, sy)
        n = 10 - 2 + 1
        fx = [i >= sx.length for i in range(n)]   # window i covers i..i+1
        fy = [j >= sy.length for j in range(n)]
        grid_pad = np.array([[fx[i] and fy[j] for j in range(n)] for i in range(n)])
        assert not trace.layers[0].conv_out[grid_pad].any()
        # pooled frontier
        padded = np.pad(grid_pad, ((0, n % 2), (0, n % 2)), constant_values=True)
        pool_pad = padded[0::2, 0::2] & padded[0::2, 1::2] & padded[1::2, 0::2] & padded[1::2, 1::2]
        assert not trace.layers[0].pool_out[pool_pad].any()
        # second conv layer frontier
        side = pool_pad.shape[0]
        conv2_pad = np.array([[pool_pad[i : i + 2, j : j + 2].all()
                               for j in range(side - 1)] for i in range(side - 1)])
        assert not trace.layers[1].conv_out[conv2_pad].any()
    _p("PASS criterion 2: padding hierarchy exactly zero, 100 random 1D models "
       "and 100 random 2D models")


def test_criterion_3_oracle_equivalence():
    rng = make_rng(77)
    table = small_table(dim=3, n_tokens=12, seed=4)
    worst = 0.0
    for trial in range(20):  # sentence encoder
        depth = int(rng.integers(1, 3))
        windows = tuple(int(rng.integers(2, 4)) for _ in range(depth))
        maps = tuple(int(rng.integers(1, 4)) for _ in range(depth))
        cfg = SentenceModelConfig(embed_dim=3, max_len=10, windows=windows,
                                  feature_maps=maps,
                                  activation="relu" if trial % 2 else "sigmoid")
        try:
            cfg.validate()
        except ConfigError:
            continue
        params = init_sentence_params(cfg, rng)
        sent = random_sentence(table, 10, rng)
        vec, _ = encode(sent, params, cfg)
        want = ref_encode(sent.x, params.layers, windows, cfg.activation)
        worst = max(worst, float(np.max(np.abs(vec - want))))
    for trial in range(15):  # siamese scorer
        model = build_arc1(3, 10, make_rng(300 + trial), windows=(3, 2),
                           feature_maps=(3, 2), hidden=(4,),
                           activation="relu" if trial % 2 else "sigmoid")
        sx, sy = random_sentence(table, 10, rng), random_sentence(table, 10, rng)
        worst = max(worst, abs(model.score(sx, sy)[0] - ref_arc1_score(model, sx, sy)))
    for trial in range(15):  # interaction scorer
        model = build_arc2(3, 10, make_rng(400 + trial), window1=2, maps1=3,
                           twod_layers=((2, 2),), hidden=(4,),
                           activation="relu" if trial % 2 else "sigmoid")
        sx, sy = random_sentence(table, 10, rng), random_sentence(table, 10, rng)
        worst = max(worst, abs(model.score(sx, sy)[0] - ref_arc2_score(model, sx, sy)))
    assert worst < 1e-10
    _p(f"PASS criterion 3: encode/arc1/arc2 match naive loop references on 50 "
       f"random configs (worst |delta| {worst:.2e})")


def test_criterion_4_arc1_inside_arc2():
    table = small_table(dim=3, n_tokens=14, seed=5)
    rng = make_rng(88)
    worst_rank = 0.0
    worst_eq = 0.0
    for trial in range(20):
        arc1 = build_arc1(3, 12, make_rng(500 + trial), windows=(3, 2),
                          feature_maps=(4, 3), hidden=(5,))
        grid = embed_arc1_as_arc2(arc1)
        sx = random_sentence(table, 12, rng, min_len=12)
        sy = random_sentence(table, 12, rng, min_len=12)
        _, gtrace = grid.score(sx, sy)
        f1 = arc1.config_x.feature_maps[0]
        f2 = arc1.config_x.feature_maps[1]
        first = gtrace.layers[0].conv_out
        for f in range(first.shape[2]):
            s = np.linalg.svd(first[:, :, f], compute_uv=False)
            worst_rank = max(worst_rank, float(s[1] / max(1.0, s[0])))
        assert worst_rank <= 1e-8
        _, xtrace = encode(sx, arc1.params_x, arc1.config_x)
        _, ytrace = encode(sy, arc1.params_y, arc1.config_y)
        pooled = gtrace.layers[0].pool_out
        conv2 = gtrace.layers[1].conv_out
        for j in range(pooled.shape[1]):
            worst_eq = max(worst_eq, float(np.max(np.abs(
                pooled[:, j, :f1] - xtrace.layers[0].pool_out))))
        for i in range(pooled.shape[0]):
            worst_eq = max(worst_eq, float(np.max(np.abs(
                pooled[i, :, f1:] - ytrace.layers[0].pool_out))))
        for j in range(conv2.shape[1]):
            worst_eq = max(worst_eq, float(np.max(np.abs(
                conv2[:, j, :f2] - xtrace.layers[1].conv_out))))
        for i in range(conv2.shape[0]):
            worst_eq = max(worst_eq, float(np.max(np.abs(
                conv2[i, :, f2:] - ytrace.layers[1].conv_out))))
        assert worst_eq < 1e-6
    _p(f"PASS criterion 4: devoted first-layer maps numerically rank-one "
       f"(worst ratio {worst_rank:.1e}) and stacks match the siamese encoder "
       f"on padding-free inputs (worst |delta| {worst_eq:.1e}), 20 trials")


def test_criterion_5_random_guess_calibration():
    t0 = time.time()
    corpus, tokens = gen_synthetic_corpus(10_000, 400, (9, 12), 10, make_rng(600))
    table = random_embeddings(tokens, EMBED_DIM, make_rng(601))
    instances = encode_instances(
        make_eval_instances(corpus, 4, "random", table, make_rng(602)),
        table, MAX_LEN)
    assert len(instances) == 10_000
    model = _build_arc1(make_rng(603))
    report = p_at_1(lambda sx, sy: model.score(sx, sy)[0], instances)
    elapsed = time.time() - t0
    assert abs(report.value - 0.20) <= 0.02
    assert elapsed < 60.0
    _p(f"PASS criterion 5: random-parameter model P@1 {report.value:.4f} "
       f"(0.20 +/- 0.02, n=10000, {elapsed:.1f}s)")


@pytest.mark.slow
def test_criterion_6_learnability(corpus_and_tokens):
    t0 = time.time()
    corpus, tokens = corpus_and_tokens
    p1_arc1 = _experiment(corpus, tokens, _build_arc1, "random", 0.4, 14, seed=5)
    p1_arc2 = _experiment(corpus, tokens, _build_arc2, "random", 0.4, 20, seed=5)
    elapsed = time.time() - t0
    assert p1_arc1 >= 0.60
    assert p1_arc2 >= 0.60
    assert p1_arc2 >= p1_arc1 - 0.02
    assert elapsed < 900.0
    _p(f"PASS criterion 6: test P@1 arc1 {p1_arc1:.3f}, arc2 {p1_arc2:.3f} "
       f"(both >= 0.60, arc2 >= arc1 - 0.02; {elapsed:.0f}s)")


@pytest.fixture(scope="module")
def order_experiment(corpus_and_tokens):
    """Criteria 7+8 share these runs: shuffle-trained models, usual eval."""
    corpus, tokens = corpus_and_tokens
    results = {"arc1": [], "arc2": [], "wordembed": []}
    for seed in (0, 1, 2):
        results["arc2"].append(_experiment(
            corpus, tokens, _build_arc2, "shuffle", 0.3, 12, seed=seed))
        results["arc1"].append(_experiment(
            corpus, tokens, _build_arc1, "shuffle", 0.3, 12, seed=seed))
        results["wordembed"].append(_experiment(
            corpus, tokens, _build_wordembed, "shuffle", 0.3, 4, seed=seed))
    return {k: float(np.mean(v)) for k, v in results.items()}, results


@pytest.mark.slow
def test_criterion_7_order_sensitivity(order_experiment):
    means, raw = order_experiment
    chance = 0.20
    assert means["arc2"] - chance >= 0.10, raw
    assert means["arc2"] - means["arc1"] >= 0.05, raw
    _p(f"PASS criterion 7: shuffle-trained transfer P@1 arc2 {means['arc2']:.3f} "
       f"vs arc1 {means['arc1']:.3f} (chance 0.20), 3 seeds "
       f"raw arc2={['%.3f' % v for v in raw['arc2']]} arc1={['%.3f' % v for v in raw['arc1']]}")


@pytest.mark.slow
def test_criterion_8_bag_of_words_gap(order_experiment):
    means, raw = order_experiment
    assert abs(means["wordembed"] - 0.20) <= 0.03, raw
    assert means["arc2"] - 0.20 >= 0.10
    _p(f"PASS criterion 8: order-blind wordembed stays at chance "
       f"({means['wordembed']:.3f} in 0.20 +/- 0.03) while arc2 exceeds it "
       f"({means['arc2']:.3f})")


@pytest.mark.slow
def test_criterion_9_overfit_sanity():
    from arcmatch.data import TokenTriple

    t0 = time.time()
    corpus, tokens = gen_synthetic_corpus(100, 400, (9, 12), 10, make_rng(700))
    table = random_embeddings(tokens, EMBED_DIM, make_rng(701))
    # training P@1 is measured on the training contrasts: the instances'
    # own negatives make up 400 of the 500 training triples
    tok_inst = make_eval_instances(corpus, 4, "random", table, make_rng(703))
    tok_triples = []
    for inst in tok_inst:
        y_true = inst.candidates[inst.answer]
        for i, cand in enumerate(inst.candidates):
            if i != inst.answer:
                tok_triples.append(TokenTriple(x=inst.x, y_pos=y_true, y_neg=cand))
    tok_triples.extend(sample_negatives(corpus, 1, "random", table, make_rng(702)))
    triples = encode_triples(tok_triples, table, MAX_LEN)
    assert len(triples) == 500
    train_inst = encode_instances(tok_inst, table, MAX_LEN)
    model = build_arc1(EMBED_DIM, MAX_LEN, make_rng(704), windows=(3, 2),
                       feature_maps=(32, 32), hidden=(64,))
    cfg = TrainConfig(learning_rate=0.1, batch_size=64, max_epochs=200,
                      patience=300, eval_every=8, seed=7,
                      finetune_embeddings=True)
    model, history = train(model, triples, train_inst, cfg, table=table)
    best = history.best[3]
    epochs_run = history.records[-1][0]
    elapsed = time.time() - t0
    assert best >= 0.95
    assert epochs_run <= 200
    assert elapsed < 120.0
    _p(f"PASS criterion 9: small arc1 overfits 500 triples to train P@1 "
       f"{best:.3f} >= 0.95 within {epochs_run} epochs ({elapsed:.0f}s)")


def test_criterion_10_loss_and_metric_properties():
    assert hinge_loss(2.0, 0.0) == 0.0
    assert hinge_loss(0.3, 0.5) == pytest.approx(1.2)
    assert hinge_loss(0.7, 0.7) == 1.0

    class Inst:
        def __init__(self, scores, answer):
            self.x = None
            self.candidates = list(range(len(scores)))
            self.answer = answer
            self.scores = scores

    rng = make_rng(800)
    instances = [Inst(rng.normal(size=5).tolist(), int(rng.integers(5)))
                 for _ in range(1000)]

    holder = {}

    def score(x, c):
        return holder["t"](holder["i"].scores[c])

    def run(transform):
        holder["t"] = transform
        vals = []
        for inst in instances:
            holder["i"] = inst
            vals.append(p_at_1(score, [inst]).value)
        return float(np.mean(vals))

    base = run(lambda s: s)
    for transform in (lambda s: 2.5 * s + 1.0, np.exp, lambda s: s ** 3):
        assert run(transform) == base

    pairs = [("x", "y", 1)] * 665 + [("x", "y", 0)] * 335
    report = classify_eval(lambda x, y: 1.0, pairs, threshold=0.0)
    assert report.value == pytest.approx(0.665)
    assert report.extras["f1"] == pytest.approx(2 * 0.665 / 1.665, abs=1e-9)
    _p(f"PASS criterion 10: hinge examples exact; P@1 invariant under monotone "
       f"transforms (1000 instances, value {base:.3f}); majority baseline "
       f"accuracy 0.665 / F1 {report.extras['f1']:.4f}")


def test_criterion_11_determinism_and_persistence(tmp_path):
    corpus, tokens = gen_synthetic_corpus(120, 400, (9, 12), 10, make_rng(900))
    table = random_embeddings(tokens, 8, make_rng(901))
    triples = encode_triples(
        sample_negatives(corpus, 2, "random", table, make_rng(902)), table, MAX_LEN)
    instances = encode_instances(
        make_eval_instances(corpus, 4, "random", table, make_rng(903)),
        table, MAX_LEN)
    histories = []
    models = []
    for _ in range(2):
        model = build_wordembed(8, make_rng(904), hidden=(8,))
        cfg = TrainConfig(learning_rate=0.05, batch_size=32, max_epochs=3,
                          patience=50, eval_every=4, seed=42)
        model, history = train(model, triples, instances, cfg)
        histories.append(history.records)
        models.append(model)
    assert histories[0] == histories[1]

    model = models[0]
    margins_ok = 0
    for inst in instances:
        scores = sorted(model.score(inst.x, c)[0] for c in inst.candidates)
        if scores[-1] - scores[-2] > 1e-4:
            margins_ok += 1
    assert margins_ok == len(instances)
    before = p_at_1(lambda sx, sy: model.score(sx, sy)[0], instances)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    loaded, _ = load_checkpoint(path)
    after = p_at_1(lambda sx, sy: loaded.score(sx, sy)[0], instances)
    assert after.value == before.value
    _p(f"PASS criterion 11: same-seed histories identical "
       f"({len(histories[0])} eval points); checkpoint round-trip preserves "
       f"P@1 exactly ({before.value:.4f})")
