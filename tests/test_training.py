import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

import arcmatch
from arcmatch.arc1 import build_arc1
from arcmatch.baselines import build_wordembed
from arcmatch.data import RankingInstance, Triple
from arcmatch.errors import DataError, NumericError
from arcmatch.models import MODEL_KINDS, param_vector
from arcmatch.tensor import make_rng
from arcmatch.training import TrainConfig, gradient_check, hinge_loss, sgd_step, train

from conftest import double_every_gradient, random_sentence, small_table


def test_hinge_loss_values():
    assert hinge_loss(2.0, 0.0) == 0.0
    assert hinge_loss(0.3, 0.5) == pytest.approx(1.2)
    assert hinge_loss(0.7, 0.7) == 1.0


def test_hinge_loss_nonnegative_and_zero_iff_margin():
    rng = make_rng(0)
    for _ in range(200):
        sp, sn = rng.normal(size=2) * 3
        loss = hinge_loss(sp, sn)
        assert loss >= 0.0
        assert (loss == 0.0) == (sp - sn >= 1.0)


def _triples(table, n, rng, max_len=10):
    out = []
    for _ in range(n):
        out.append(Triple(x=random_sentence(table, max_len, rng),
                          y_pos=random_sentence(table, max_len, rng),
                          y_neg=random_sentence(table, max_len, rng)))
    return out


def _small_model(seed=0):
    return build_arc1(4, 10, make_rng(seed), windows=(3, 2),
                      feature_maps=(3, 2), hidden=(6,))


def test_satisfied_batch_leaves_params_bitwise_unchanged():
    table = small_table()
    rng = make_rng(1)
    model = _small_model()
    batch = _triples(table, 4, rng)
    # push every triple past the margin by biasing the scores via the head:
    # score > margin for pos by construction is fiddly, so instead verify
    # via the zero-subgradient rule: filter to satisfied triples only.
    cfg = TrainConfig(learning_rate=0.5, batch_size=4)
    satisfied = [t for t in batch
                 if model.score(t.x, t.y_pos)[0] - model.score(t.x, t.y_neg)[0] >= 1.0]
    if not satisfied:  # manufacture one: swap roles so margin is met
        t = batch[0]
        sp = model.score(t.x, t.y_pos)[0]
        sn = model.score(t.x, t.y_neg)[0]
        if sp < sn:
            t = Triple(x=t.x, y_pos=t.y_neg, y_neg=t.y_pos)
        # scale the head output until the margin is met
        gap = abs(model.score(t.x, t.y_pos)[0] - model.score(t.x, t.y_neg)[0])
        factor = 2.0 / max(gap, 1e-6)
        model.head.weights[-1] *= factor
        model.head.biases[-1] *= factor
        satisfied = [t]
        assert model.score(t.x, t.y_pos)[0] - model.score(t.x, t.y_neg)[0] >= 1.0
    before = param_vector(model).copy()
    loss = sgd_step(model, satisfied, cfg, make_rng(2))
    assert loss == 0.0
    assert np.array_equal(param_vector(model), before)


def test_loss_decreases_on_single_triple():
    table = small_table()
    rng = make_rng(3)
    model = _small_model(7)
    batch = _triples(table, 1, rng)
    cfg = TrainConfig(learning_rate=0.05, batch_size=1)
    first = sgd_step(model, batch, cfg, make_rng(0))
    second = sgd_step(model, batch, cfg, make_rng(0))
    if first > 0.0:
        assert second < first


def test_mean_loss_is_mean_of_triple_losses():
    table = small_table()
    rng = make_rng(4)
    model = _small_model(8)
    batch = _triples(table, 5, rng)
    per_triple = [hinge_loss(model.score(t.x, t.y_pos)[0],
                             model.score(t.x, t.y_neg)[0]) for t in batch]
    cfg = TrainConfig(learning_rate=0.01, batch_size=5)
    loss = sgd_step(model, batch, cfg, make_rng(0))
    assert loss == pytest.approx(float(np.mean(per_triple)), abs=1e-12)


def test_lr_zero_is_bitwise_noop():
    table = small_table()
    rng = make_rng(5)
    model = _small_model(9)
    batch = _triples(table, 3, rng)
    cfg = TrainConfig(learning_rate=1.0, batch_size=3)
    cfg.learning_rate = 0.0  # construct directly; train() would reject it
    before = param_vector(model).copy()
    sgd_step(model, batch, cfg, make_rng(0))
    assert np.array_equal(param_vector(model), before)


def test_non_finite_loss_aborts_with_numeric_error():
    table = small_table()
    rng = make_rng(6)
    model = _small_model(10)
    model.head.weights[-1][...] = np.inf
    batch = _triples(table, 1, rng)
    cfg = TrainConfig(learning_rate=0.1, batch_size=1)
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericError):
            sgd_step(model, batch, cfg, make_rng(0))


def _instances(table, n, rng, m=4, max_len=10):
    out = []
    for _ in range(n):
        cands = [random_sentence(table, max_len, rng) for _ in range(m + 1)]
        out.append(RankingInstance(x=random_sentence(table, max_len, rng),
                                   candidates=cands,
                                   answer=int(rng.integers(m + 1))))
    return out


def test_run_that_reaches_no_evaluation_evaluates_after_its_last_batch():
    table = small_table()
    rng = make_rng(21)
    model = _small_model()
    before = param_vector(model).copy()
    cfg = TrainConfig(learning_rate=0.1, batch_size=4, max_epochs=2, eval_every=1000)
    _, history = train(model, _triples(table, 10, rng), _instances(table, 3, rng), cfg)
    assert [r[:2] for r in history.records] == [(2, 6)]
    assert history.best_index == 0
    assert not np.array_equal(param_vector(model), before)


def test_patience_stops_after_non_improving_evals():
    table = small_table()
    rng = make_rng(7)
    model = build_wordembed(4, make_rng(1), hidden=(4,))
    triples = _triples(table, 40, rng)
    instances = _instances(table, 5, rng)
    cfg = TrainConfig(learning_rate=1e-9, batch_size=10, max_epochs=50,
                      patience=1, eval_every=2, seed=0)
    # learning rate ~0: the validation metric never changes, so the first
    # eval sets the best and the second (non-improving) stops the run
    _, history = train(model, triples, instances, cfg)
    assert len(history.records) == 2
    assert history.best_index == 0


def test_training_is_deterministic():
    table = small_table()
    rng = make_rng(8)
    triples = _triples(table, 60, rng)
    instances = _instances(table, 8, rng)
    histories = []
    for _ in range(2):
        model = build_wordembed(4, make_rng(2), hidden=(6,))
        cfg = TrainConfig(learning_rate=0.05, batch_size=16, max_epochs=3,
                          patience=10, eval_every=2, seed=42)
        _, history = train(model, triples, instances, cfg)
        histories.append(history.records)
    assert histories[0] == histories[1]


def test_train_rejects_empty_sets():
    table = small_table()
    rng = make_rng(9)
    model = build_wordembed(4, make_rng(3))
    cfg = TrainConfig()
    with pytest.raises(DataError):
        train(model, [], _instances(table, 2, rng), cfg)
    with pytest.raises(DataError):
        train(model, _triples(table, 2, rng), [], cfg)


def test_gradient_check_all_kinds_pass():
    for kind in ("arc1", "arc2", "wordembed", "senmlp", "senna"):
        err = gradient_check(kind, seed=0)
        assert err < 1e-4, kind


def test_gradient_check_detects_injected_fault(monkeypatch):
    double_every_gradient(monkeypatch)
    err = gradient_check("arc1", seed=0)
    assert err >= 1e-4


def test_gradient_check_redraws_a_relu_kink_exactly_at_theta(monkeypatch):
    # arc1 seed 6's first draw has a head relu whose pre-activation is 0.0
    # at theta: central differences of head.0.b[0] read 0.54 at eps, eps/2
    # and eps/4 alike, against an analytic 0
    import arcmatch.training as training

    seeds = []

    def recording_rng(seed):
        seeds.append(seed)
        return make_rng(seed)

    monkeypatch.setattr(training, "make_rng", recording_rng)
    assert gradient_check("arc1", seed=6) < 1e-4
    assert seeds == [6 << 8, (6 << 8) + 1]


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_gradient_check_detects_injected_fault_for_every_kind(kind, monkeypatch):
    double_every_gradient(monkeypatch)
    for seed in range(10):
        assert gradient_check(kind, seed=seed) >= 1e-4, seed


@pytest.mark.slow
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_gradient_check_passes_for_seeds_0_to_59(kind):
    for seed in range(60):
        assert gradient_check(kind, seed=seed) < 1e-4, seed


def test_dropout_masks_shared_within_triple():
    # score both pairs of a triple under the same masks: with y+ == y- the
    # two scores must coincide exactly, so the loss is the margin itself
    table = small_table()
    rng = make_rng(10)
    model = build_wordembed(4, make_rng(4), hidden=(8,), dropout=0.5)
    y = random_sentence(table, 10, rng)
    t = Triple(x=random_sentence(table, 10, rng), y_pos=y, y_neg=y)
    cfg = TrainConfig(learning_rate=0.01, batch_size=1)
    for seed in range(5):
        loss = sgd_step(model, [t], cfg, make_rng(seed))
        assert loss == 1.0


def test_dropout_step_is_deterministic_given_rng():
    table = small_table()
    rng = make_rng(12)
    model = build_wordembed(4, make_rng(4), hidden=(8,), dropout=0.5)
    t = _triples(table, 1, rng)[0]
    cfg = TrainConfig(learning_rate=0.01, batch_size=1)
    before = param_vector(model).copy()
    sgd_step(model, [t], cfg, make_rng(77))
    after1 = param_vector(model).copy()
    from arcmatch.models import set_param_vector
    set_param_vector(model, before)
    sgd_step(model, [t], cfg, make_rng(77))
    assert np.array_equal(param_vector(model), after1)


@pytest.mark.parametrize("dropout", [0.0, 0.5])
def test_step_draws_masks_exactly_when_the_head_has_dropout(dropout):
    table = small_table()
    model = build_wordembed(4, make_rng(4), hidden=(8,), dropout=dropout)
    batch = _triples(table, 3, make_rng(13))
    rng = make_rng(78)
    before = rng.bit_generator.state
    sgd_step(model, batch, TrainConfig(learning_rate=0.01), rng)
    assert (rng.bit_generator.state == before) == (dropout == 0.0)


def test_finetune_embeddings_updates_table_and_matches_fd():
    from arcmatch.tensor import finite_diff_gap

    table = small_table(dim=3, n_tokens=10, seed=11)
    rng = make_rng(11)
    model = build_wordembed(3, make_rng(5), hidden=(4,))
    t = _triples(table, 1, rng, max_len=6)[0]
    cfg = TrainConfig(learning_rate=0.0, batch_size=1, finetune_embeddings=True)

    # finite-difference the loss w.r.t. the embedding matrix
    from arcmatch.training import hinge_loss as hl

    def loss_at(flat):  # the sentences read the table's current rows
        table.vectors[...] = flat.reshape(table.vectors.shape)
        return hl(model.score(t.x, t.y_pos)[0], model.score(t.x, t.y_neg)[0])

    theta0 = table.vectors.ravel().copy()
    base_loss = loss_at(theta0)
    if base_loss == 0.0:
        t = Triple(x=t.x, y_pos=t.y_neg, y_neg=t.y_pos)
        base_loss = loss_at(theta0)
    numeric = finite_diff_gap(loss_at, theta0, 1e-6)[0]
    loss_at(theta0)

    # analytic side via one sgd step with lr small enough to read off grads
    cfg = TrainConfig(learning_rate=1.0, batch_size=1, finetune_embeddings=True)
    sgd_step(model, [t], cfg, make_rng(0), table=table)
    analytic = (theta0 - table.vectors.ravel())  # lr * grad with lr=1
    live = np.abs(analytic) + np.abs(numeric) >= 1e-8
    denom = np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
    assert (np.abs(analytic - numeric) / denom)[live].max() < 1e-3


# A fresh process: README-sized ARC-II, fine-tuned embeddings, batches of 64.
_FAULT_PROBE = textwrap.dedent("""
    import resource
    from arcmatch import (build_arc2, encode_triples, gen_synthetic_corpus,
                          random_embeddings, sample_negatives, make_rng)
    from arcmatch.training import TrainConfig, sgd_step

    corpus, tokens = gen_synthetic_corpus(400, 400, (7, 12), 10, make_rng(0))
    table = random_embeddings(tokens, 16, make_rng(1))
    triples = encode_triples(sample_negatives(corpus, 2, "random", None, make_rng(2)),
                             table, max_len=12)
    model = build_arc2(16, 12, make_rng(3), window1=3, maps1=32,
                       twod_layers=((2, 32), (2, 64)), hidden=(64,))
    cfg = TrainConfig(learning_rate=0.4, batch_size=64, finetune_embeddings=True)
    batches = [triples[i * 64:(i + 1) * 64] for i in range(6)]
    for batch in batches[:2]:  # warm-up
        sgd_step(model, batch, cfg, make_rng(0), table)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for batch in batches[2:]:
        sgd_step(model, batch, cfg, make_rng(0), table)
    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 4)
""")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap thresholds are glibc's")
def test_sgd_steps_reuse_the_heap_instead_of_faulting_pages_in():
    # Each ARC-II step frees a few MB; when glibc hands that back to the OS,
    # the next step takes several hundred minor page faults.
    src = os.path.dirname(os.path.dirname(arcmatch.__file__))
    proc = subprocess.run([sys.executable, "-c", _FAULT_PROBE], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 100


def test_readme_arc2_step_stays_under_its_memory_budget():
    # One SGD step of 64 triples holds a chunk's trace and its backward's
    # temporaries (5.5 MB at chunks of 32, 10.2 MB at 64). A larger chunk,
    # or a step that keeps one chunk's arrays through the next, would raise
    # the process's peak resident memory with it.
    from arcmatch import (build_arc2, encode_triples, gen_synthetic_corpus,
                          random_embeddings, sample_negatives)

    corpus, tokens = gen_synthetic_corpus(200, 400, (7, 12), 10, make_rng(0))
    table = random_embeddings(tokens, 16, make_rng(1))
    triples = encode_triples(sample_negatives(corpus, 2, "random", None, make_rng(2)),
                             table, max_len=12)
    model = build_arc2(16, 12, make_rng(3), window1=3, maps1=32,
                       twod_layers=((2, 32), (2, 64)), hidden=(64,))
    cfg = TrainConfig(learning_rate=0.4, batch_size=64, finetune_embeddings=True)
    sgd_step(model, triples[:64], cfg, make_rng(0), table)  # warm-up
    tracemalloc.start()
    try:
        sgd_step(model, triples[64:128], cfg, make_rng(0), table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.5e6


def test_validation_matrices_match_the_restored_table_after_early_stopping():
    from arcmatch.baselines import build_wordembed
    from arcmatch.data import (PairCorpus, encode_instances, encode_triples,
                               gen_synthetic_corpus, make_eval_instances, sample_negatives)
    from arcmatch.embeddings import random_embeddings
    from arcmatch.metrics import p_at_1

    rng = make_rng(1)
    corpus, tokens = gen_synthetic_corpus(600, 200, (7, 12), 5, rng)
    table = random_embeddings(tokens, 8, make_rng(2))
    train_pairs, val_pairs = PairCorpus(corpus.pairs[:300]), PairCorpus(corpus.pairs[300:])
    triples = encode_triples(sample_negatives(train_pairs, 2, "random", table, rng), table, 12)
    val = encode_instances(make_eval_instances(val_pairs, 4, "random", table, rng), table, 12)
    cfg = TrainConfig(learning_rate=0.5, batch_size=16, max_epochs=20, patience=2,
                      eval_every=5, finetune_embeddings=True, seed=1)
    model, history = train(build_wordembed(8, make_rng(3), hidden=(8,)), triples, val, cfg,
                           table=table)
    assert history.best_index < len(history.records) - 1  # stopped early, best restored
    assert p_at_1(lambda sx, sy: model.score(sx, sy)[0], val).value == history.best[3]
