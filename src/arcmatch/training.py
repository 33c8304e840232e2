"""Margin-ranking training: hinge loss over triples, mini-batch SGD,
early stopping on validation P@1, optional embedding fine-tuning, and the
finite-difference gradient check used to validate every backward pass.
"""

import ctypes
import functools
import math
import platform
from dataclasses import dataclass, field

import numpy as np

from .embeddings import encode_sentence, random_embeddings, stack_sentences
from .errors import ConfigError, DataError, NumericError, ShapeError
from .metrics import rank_report
from .mlp import draw_dropout_masks
from .models import (KINDS, build_model, clone_params, param_vector,
                     restore_params, set_param_vector)
from .tensor import finite_diff_gap, make_rng


@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    batch_size: int = 128
    max_epochs: int = 50
    patience: int = 5
    eval_every: int = 50
    finetune_embeddings: bool = False
    seed: int = 0

    def validate(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.max_epochs < 0:  # 0 keeps the initial parameters
            raise ConfigError(f"max_epochs must be >= 0, got {self.max_epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.eval_every < 1:
            raise ConfigError(f"eval_every must be >= 1, got {self.eval_every}")


@dataclass
class TrainHistory:
    records: list = field(default_factory=list)  # (epoch, batches, train_loss, val_p1)
    best_index: int = -1

    def add(self, epoch, batches, train_loss, val_p1):
        self.records.append((epoch, batches, train_loss, val_p1))

    @property
    def best(self):
        return self.records[self.best_index] if self.best_index >= 0 else None


def hinge_loss(s_pos, s_neg):
    """max(0, 1 + s_neg - s_pos), elementwise on arrays; zero exactly when
    the margin is met."""
    return np.maximum(0.0, 1.0 + s_neg - s_pos)


@functools.cache
def _keep_heap() -> None:
    """Let glibc keep freed memory for the next SGD step, once per process.

    A step frees a few MB of traces and temporaries (README ARC-II, 64
    triples in chunks of 32: a 5.5 MB tracemalloc peak), which land at the
    top of the heap; by default glibc gives them back to the OS and the
    next step faults every page in again (that step: about 950 minor
    faults, 1 with this). Up to 64 MiB free at the top of the heap is kept
    instead, and blocks up to 32 MiB (glibc's largest mmap threshold on
    64-bit) come from the heap, not from mmap. Setting either threshold
    turns off glibc's dynamic ones, so both are set. Elsewhere this does
    nothing.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    m_trim_threshold, m_mmap_threshold = -1, -3  # from malloc.h
    mallopt(m_trim_threshold, 64 << 20)
    mallopt(m_mmap_threshold, 32 << 20)


def _add_word_grads(emb_acc: np.ndarray, x_words, y_words, dx: np.ndarray,
                    dy: np.ndarray) -> None:
    """Add the gradients of a chunk's word rows, dx [C, L, D] and dy
    [2, C, L, D], to their words' rows of emb_acc; x_words and y_words are
    stack_sentences' (flat stack row, word id) of each side."""
    (x_rows, x_ids), (y_rows, y_ids) = x_words, y_words
    dim = emb_acc.shape[-1]
    word_grads = np.concatenate([dx.reshape(-1, dim)[x_rows], dy.reshape(-1, dim)[y_rows]])
    # one flat index per value: numpy's fast path for ufunc.at
    flat = np.concatenate([x_ids, y_ids])[:, None] * dim + np.arange(dim)
    np.add.at(emb_acc.reshape(-1), flat.ravel(), word_grads.ravel())


def _chunk_masks(head, rng, n: int):
    """Dropout masks for n triples, drawn triple by triple: [n, hidden] per
    hidden layer, or None, drawing nothing, when the head has no dropout."""
    if head.dropout == 0.0:
        return None
    per_triple = [draw_dropout_masks(head, rng) for _ in range(n)]
    return [np.stack(layer) for layer in zip(*per_triple)]


def sgd_step(model, batch, cfg: TrainConfig, rng: np.random.Generator,
             table=None) -> float:
    """One mini-batch update; returns the batch mean hinge loss.

    Both pairs of a triple are scored with the same dropout masks, drawn
    per triple in batch order if model.head.dropout > 0; only triples with
    positive loss contribute gradients. Update is theta -= lr * mean(grad).
    Word rows are read from table (see stack_sentences); with
    cfg.finetune_embeddings and a table, its rows are updated too.

    The batch runs in chunks of the model kind's KINDS[kind].chunk triples,
    each stacked along leading dimensions: x as [C, L, D] and (y+, y-) as
    [2, C, L, D], so one score and one backward call per chunk run every
    layer once. Inactive triples get a zero upstream gradient. Each chunk's
    trace is dropped once its backward has run, and its input gradients
    once they are added up, so that the next chunk's forward does not hold
    two chunks' arrays. A non-finite loss raises NumericError before any
    parameter changes.

    The first call sets glibc's heap trim and mmap thresholds for the
    whole process (see _keep_heap), so that each step reuses the pages the
    previous one freed rather than faulting them in anew; the process may
    then keep up to 64 MiB of freed memory at the top of its heap.
    """
    if not batch:
        raise DataError("sgd_step: empty batch")
    _keep_heap()
    size = KINDS[model.kind].chunk
    finetune = cfg.finetune_embeddings and table is not None
    total_loss = 0.0
    acc = None
    emb_acc = None
    for start in range(0, len(batch), size):
        chunk = batch[start : start + size]
        x, x_words = stack_sentences([t.x for t in chunk], table)
        y, y_words = stack_sentences([t.y_pos for t in chunk] + [t.y_neg for t in chunk],
                                     table)
        masks = _chunk_masks(model.head, rng, len(chunk))
        scores, trace = model.score(x, y.reshape(2, len(chunk), *y.shape[1:]), masks)
        losses = hinge_loss(scores[0], scores[1])
        finite = np.isfinite(scores).all(axis=0) & np.isfinite(losses)
        if not finite.all():
            i = int(np.argmin(finite))
            raise NumericError(
                f"non-finite loss {losses[i]} (scores {scores[0, i]}, {scores[1, i]}); "
                f"learning rate {cfg.learning_rate} is probably too high"
            )
        for loss in losses.tolist():
            total_loss += loss
        active = losses > 0.0
        if not active.any():
            del trace
            continue
        upstream = np.where(active, np.array([[-1.0], [1.0]]), 0.0)
        grads, dx, dy = model.backward(trace, upstream)
        del trace  # the next chunk's forward holds no earlier chunk's arrays
        if acc is None:
            acc = grads
        else:
            for k, v in grads.items():
                acc[k] += v
        if finetune:
            if emb_acc is None:
                emb_acc = np.zeros_like(table.vectors)
            _add_word_grads(emb_acc, x_words, y_words, dx, dy)
        del dx, dy
    if acc is not None and cfg.learning_rate != 0.0:
        scale = cfg.learning_rate / len(batch)
        for name, tensor in model.named_params():
            tensor -= scale * acc[name]
        if emb_acc is not None:
            table.vectors -= scale * emb_acc
    return total_loss / len(batch)


def score_instances(model, instances, table=None) -> np.ndarray:
    """Scores [N, m+1] of encoded instances' candidates against their x,
    equal to per-pair model.score calls bit for bit, with the words read
    from table (see stack_sentences). The instances share one candidate
    count; each group of them is one stacked call, x [G, 1, L, D] against
    [G, m+1, L, D], of about the 2 * chunk pairs an SGD chunk scores."""
    width = len(instances[0].candidates) if instances else 0
    if any(len(inst.candidates) != width for inst in instances):
        raise ShapeError("instances scored together must share one candidate count")
    group = max(1, 2 * KINDS[model.kind].chunk // max(width, 1))
    scores = np.empty((len(instances), width))
    for start in range(0, len(instances), group):
        chunk = instances[start : start + group]
        x, _ = stack_sentences([inst.x for inst in chunk], table)
        y, _ = stack_sentences([c for inst in chunk for c in inst.candidates], table)
        scores[start : start + len(chunk)] = model.score(
            x[:, None], y.reshape(len(chunk), width, *y.shape[1:]))[0]
    return scores


def train(model, train_triples, val_instances, cfg: TrainConfig, table=None,
          log=None):
    """Mini-batch SGD with periodic validation P@1 and early stopping.

    Shuffles triples each epoch (seeded), evaluates every cfg.eval_every
    batches, keeps the best-validation parameter snapshot, and stops after
    cfg.patience evaluations without improvement. A run that reaches no
    evaluation that way evaluates after its last batch, so that it keeps
    what it learned. Validation reads its words from table, as the SGD
    steps do. Returns (model, TrainHistory), with the model restored to
    the best snapshot and a fine-tuned table to its vectors at that point.
    """
    cfg.validate()
    if not train_triples:
        raise DataError("training set is empty")
    if not val_instances:
        raise DataError("validation set is empty")
    rng = make_rng(cfg.seed)
    order = np.arange(len(train_triples))
    history = TrainHistory()
    best_p1 = -1.0
    best_snapshot = clone_params(model)
    best_table = table.vectors.copy() if (table is not None and cfg.finetune_embeddings) else None
    bad_evals = 0
    batches = 0
    loss_sum = 0.0
    loss_count = 0
    stop = False

    answers = [inst.answer for inst in val_instances]

    for epoch in range(1, cfg.max_epochs + 1):
        rng.shuffle(order)
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_triples[i] for i in order[start : start + cfg.batch_size]]
            loss = sgd_step(model, batch, cfg, rng, table)
            loss_sum += loss
            loss_count += 1
            batches += 1
            last = epoch == cfg.max_epochs and start + cfg.batch_size >= len(order)
            if batches % cfg.eval_every == 0 or (last and not history.records):
                report = rank_report(score_instances(model, val_instances, table), answers)
                val_p1 = report.value
                train_loss = loss_sum / max(loss_count, 1)
                history.add(epoch, batches, train_loss, val_p1)
                if log is not None:
                    log(f"epoch {epoch:3d}  batch {batches:5d}  "
                        f"loss {train_loss:.4f}  val_p1 {val_p1:.4f}")
                loss_sum = 0.0
                loss_count = 0
                if val_p1 > best_p1:
                    best_p1 = val_p1
                    best_snapshot = clone_params(model)
                    if best_table is not None:
                        best_table = table.vectors.copy()
                    history.best_index = len(history.records) - 1
                    bad_evals = 0
                else:
                    bad_evals += 1
                    if bad_evals >= cfg.patience:
                        stop = True
                        break
        if stop:
            break
    restore_params(model, best_snapshot)
    if best_table is not None:
        table.vectors[...] = best_table
    return model, history


def _random_sentence(table, max_len, rng):
    n_tokens = len(table.vocab) - 1
    length = int(rng.integers(2, max_len + 1))
    tokens = [table.vocab.index_to_token[1 + int(rng.integers(n_tokens))]
              for _ in range(length)]
    return encode_sentence(tokens, table, max_len)


GRADCHECK_DIM, GRADCHECK_LEN = 3, 8  # gradient_check's word vector width, sentence length
GRADCHECK_EPS = 1e-5  # gradient_check's finite-difference step
# Forward and backward differences further apart than ABS + REL * |central|
# straddle a kink. Over 5 kinds x seeds 0-39 x attempts 0-2, the 474 draws
# at least 50 * GRADCHECK_EPS from every kink had gaps of at most 2.7e-10,
# and the smallest gap above this tolerance was 0.57.
GRADCHECK_GAP_ABS, GRADCHECK_GAP_REL = 1e-9, 1e-7


def gradient_check(model_kind: str, seed: int = 0) -> float:
    """Compare analytic gradients against central differences.

    Builds a small random model and one random triple, forms the hinge
    loss, and differentiates every parameter both ways. Returns the max
    relative error |a - n| / max(1e-8, |a| + |n|).

    Every kind's tiny model (KINDS[kind].gradcheck) uses relu, so along
    each parameter the loss is piecewise linear: relu, max-pooling and the
    hinge only bend it at kinks. A kink inside a coordinate's
    +-GRADCHECK_EPS stencil shows as forward and backward differences that
    disagree beyond rounding (tensor.finite_diff_gap); a draw with any such coordinate,
    gap > GRADCHECK_GAP_ABS + GRADCHECK_GAP_REL * |central|, is redrawn.
    """
    if model_kind not in KINDS:
        raise ConfigError(f"unknown model kind {model_kind!r}")
    for attempt in range(64):
        rng = make_rng((seed << 8) + attempt)
        table = random_embeddings([f"w{i}" for i in range(12)], GRADCHECK_DIM, rng)
        model = build_model(model_kind, dict(embed_dim=GRADCHECK_DIM, max_len=GRADCHECK_LEN,
                                             **KINDS[model_kind].gradcheck), rng)
        sx, sy_pos, sy_neg = (_random_sentence(table, GRADCHECK_LEN, rng) for _ in range(3))
        s_pos, tr_pos = model.score(sx, sy_pos)
        s_neg, tr_neg = model.score(sx, sy_neg)
        if s_pos - s_neg >= 1.0:  # margin met: loss flat, swap to activate it
            sy_pos, sy_neg = sy_neg, sy_pos
            tr_pos, tr_neg = tr_neg, tr_pos
        g_pos, _, _ = model.backward(tr_pos, -1.0)
        g_neg, _, _ = model.backward(tr_neg, +1.0)
        analytic = np.concatenate([(g_pos[name] + g_neg[name]).ravel()
                                   for name, _ in model.named_params()])
        theta0 = param_vector(model)

        def loss_at(theta):
            set_param_vector(model, theta)
            sp = model.score(sx, sy_pos)[0]
            sn = model.score(sx, sy_neg)[0]
            return hinge_loss(sp, sn)

        numeric, gap = finite_diff_gap(loss_at, theta0, GRADCHECK_EPS)
        set_param_vector(model, theta0)
        if np.any(gap > GRADCHECK_GAP_ABS + GRADCHECK_GAP_REL * np.abs(numeric)):
            continue  # a kink inside some coordinate's stencil
        # Coordinates where both gradients sit below 1e-8 are "both zero":
        # central differences of an exactly-flat direction still carry
        # ~ulp(loss)/(2*GRADCHECK_EPS) of rounding noise, which the relative formula
        # would misread. They must agree absolutely instead.
        live = (np.abs(analytic) + np.abs(numeric)) >= 1e-8
        if np.any(~live) and float(np.abs(analytic - numeric)[~live].max()) > 1e-8:
            return 1.0
        if not live.any():
            continue
        denom = np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
        return float(np.max((np.abs(analytic - numeric) / denom)[live]))
    raise NumericError(
        f"gradient_check: could not find a well-conditioned draw for {model_kind}"
    )
