"""Margin-ranking training: hinge loss over triples, mini-batch SGD,
early stopping on validation P@1, optional embedding fine-tuning, and the
finite-difference gradient check used to validate every backward pass.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .conv_sentence import pad_pairs, pair_halves
from .embeddings import EncodedSentence, random_embeddings, encode_sentence
from .errors import ConfigError, DataError, NumericError, ShapeError
from .mlp import draw_dropout_masks
from .models import (KINDS, build_model, clone_params, param_vector,
                     restore_params, set_param_vector)
from .tensor import finite_diff, make_rng


@dataclass
class Triple:
    x: EncodedSentence
    y_pos: EncodedSentence
    y_neg: EncodedSentence


@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    batch_size: int = 128
    max_epochs: int = 50
    patience: int = 5
    dropout: float = 0.0
    eval_every: int = 50
    finetune_embeddings: bool = False
    seed: int = 0

    def validate(self):
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.eval_every < 1:
            raise ConfigError(f"eval_every must be >= 1, got {self.eval_every}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")


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


def _refresh(sent: EncodedSentence, table) -> None:
    """Re-materialize the padded matrix from (possibly fine-tuned) vectors."""
    sent.x[: sent.length] = table.vectors[sent.ids]


# Triples stacked into one forward and one backward call. Larger chunks
# spread the per-call Python overhead over more triples but hold larger
# traces. On the README configurations, 12 SGD batches of 64 triples per
# model (all five, one BLAS thread, best of 3) took 0.38 s with chunks of
# 8, 0.29 s with 16, 0.29 s with 32 and 0.36 s with 64, and added 1.4,
# 1.5, 5.1 and 12.4 MB of peak memory; ARC-II alone is fastest at 16.
CHUNK_TRIPLES = 16


def _stack(sents, table):
    """Sentences of one padded shape as a stack [n, L, D].

    Without a table the sentences' own matrices are stacked. With one, the
    word rows are read from its current vectors, as _refresh would put
    them, and the (flat stack row, word id) of every word is returned too.
    """
    shape = sents[0].x.shape
    if any(s.x.shape != shape for s in sents):
        raise ShapeError(f"sentences stacked together must share one padded shape, "
                         f"got {sorted({s.x.shape for s in sents})}")
    if table is None:
        return np.stack([s.x for s in sents]), None
    max_len, dim = shape
    lengths = np.array([s.length for s in sents])
    ids = np.fromiter(itertools.chain.from_iterable(s.ids for s in sents),
                      dtype=np.int64, count=lengths.sum())
    rows = np.flatnonzero(np.arange(max_len) < lengths[:, None])
    stack = np.zeros((len(sents) * max_len, dim), dtype=np.float64)
    stack[rows] = table.vectors[ids]
    return stack.reshape(len(sents), max_len, dim), (rows, ids)


def _chunk_masks(head, rng, n: int):
    """Dropout masks for n triples, drawn triple by triple: [n, hidden] per
    hidden layer, or None when the head has no dropout."""
    per_triple = [draw_dropout_masks(head, rng) for _ in range(n)]
    if per_triple[0] is None:
        return None
    return [np.stack(layer) for layer in zip(*per_triple)]


def sgd_step(model, batch, cfg: TrainConfig, rng: np.random.Generator,
             table=None) -> float:
    """One mini-batch update; returns the batch mean hinge loss.

    For each triple both pairs are scored with the same dropout masks
    (drawn fresh per triple, in batch order); only triples with positive
    loss contribute gradients. Update is theta -= lr * mean(grad).

    The batch runs in chunks of CHUNK_TRIPLES triples, each stacked along
    leading dimensions: x as [C, L, D] and (y+, y-) as [2, C, L, D], so one
    score and one backward call per chunk run every layer once. Inactive
    triples get a zero upstream gradient. A non-finite loss raises
    NumericError before any parameter changes.
    """
    if not batch:
        raise DataError("sgd_step: empty batch")
    finetune = cfg.finetune_embeddings and table is not None
    words = table if finetune else None
    total_loss = 0.0
    acc = None
    emb_acc = None
    for start in range(0, len(batch), CHUNK_TRIPLES):
        chunk = batch[start : start + CHUNK_TRIPLES]
        x, x_words = _stack([t.x for t in chunk], words)
        y, y_words = _stack([t.y_pos for t in chunk] + [t.y_neg for t in chunk], words)
        masks = _chunk_masks(model.head, rng, len(chunk)) if cfg.dropout > 0 else None
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
            continue
        upstream = np.where(active, np.array([[-1.0], [1.0]]), 0.0)
        grads, dx, dy = model.backward(trace, upstream)
        if acc is None:
            acc = grads
        else:
            for k, v in grads.items():
                acc[k] += v
        if finetune:
            if emb_acc is None:
                emb_acc = np.zeros_like(table.vectors)
            (x_rows, x_ids), (y_rows, y_ids) = x_words, y_words
            word_grads = np.concatenate([dx.reshape(-1, table.dim)[x_rows],
                                         dy.reshape(-1, table.dim)[y_rows]])
            # one flat index per value: numpy's fast path for ufunc.at
            flat = np.concatenate([x_ids, y_ids])[:, None] * table.dim + np.arange(table.dim)
            np.add.at(emb_acc.reshape(-1), flat.ravel(), word_grads.ravel())
    if acc is not None and cfg.learning_rate != 0.0:
        scale = cfg.learning_rate / len(batch)
        for name, tensor in model.named_params():
            tensor -= scale * acc[name]
        if emb_acc is not None:
            table.vectors -= scale * emb_acc
    return total_loss / len(batch)


def train(model, train_triples, val_instances, cfg: TrainConfig, table=None,
          log=None):
    """Mini-batch SGD with periodic validation P@1 and early stopping.

    Shuffles triples each epoch (seeded), evaluates every cfg.eval_every
    batches, keeps the best-validation parameter snapshot, and stops after
    cfg.patience evaluations without improvement. Returns (model restored
    to the best snapshot, TrainHistory).
    """
    from .metrics import p_at_1  # local import to avoid a cycle

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

    def scorer(sx, sy):
        if cfg.finetune_embeddings and table is not None:
            _refresh(sx, table)
            _refresh(sy, table)
        return model.score(sx, sy)[0]

    for epoch in range(1, cfg.max_epochs + 1):
        rng.shuffle(order)
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_triples[i] for i in order[start : start + cfg.batch_size]]
            loss = sgd_step(model, batch, cfg, rng, table)
            loss_sum += loss
            loss_count += 1
            batches += 1
            if batches % cfg.eval_every == 0:
                report = p_at_1(scorer, val_instances)
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


def _pool_gap(lt) -> float:
    """Smallest winner-vs-runner-up gap over a conv layer's pooling windows.

    A one-pair trace holds a sentence [L, F] or an ARC-II grid [ni, nj, F].
    When it has ceil(n/2) pooled units along its last spatial axis, its
    windows are the pairs of units along each axis (for L <= 2 that is also
    the whole-sentence max); otherwise the window is the whole sentence.
    Windows whose top value is 0 are skipped: all their inputs
    are exact zeros (gated or padded), which stay constant under parameter
    perturbation, so the tie cannot flip.
    """
    z = lt.conv_out
    if lt.pool_out.shape[-2] == (z.shape[-2] + 1) // 2:
        # gather each window's members along a new first axis
        z = pad_pairs(z, z.ndim - 1, 0.0)[None]
        for axis in range(1 - z.ndim, -1):
            z = np.concatenate(pair_halves(z, axis))
    top2 = np.sort(z, axis=0)[-2:]
    live = top2[-1] > 0
    if not live.any():
        return np.inf
    return float((top2[-1] - top2[-2])[live].min())


def _trace_kink_distance(model, trace) -> float:
    """Distance of a forward pass from the nearest non-differentiable point.

    Central differences are only valid away from relu kinks, pooling ties
    and the hinge kink; gradient_check resamples draws too close to one.
    Every builder gives the conv layers the head's activation. ARC-II's
    first layer keeps no full grid and rebuilds pre, gate and conv_out on
    each access, so each is read once per layer here.
    """
    relu = model.head.activation == "relu"
    dist = np.inf
    if relu:
        for pre in trace.head.pres:
            if pre.size:
                dist = min(dist, float(np.abs(pre).min()))
    for lt in trace.layers:
        if relu:
            pre = lt.pre
            active = np.broadcast_to((lt.gate > 0)[..., None], pre.shape)
            if active.any():
                dist = min(dist, float(np.abs(pre[active]).min()))
        dist = min(dist, _pool_gap(lt))
    return dist


def gradient_check(model_kind: str, seed: int = 0, eps: float = 1e-5,
                   embed_dim: int = 3, max_len: int = 8,
                   negate_bias_grad: bool = False) -> float:
    """Compare analytic gradients against central differences.

    Builds a small random model and one random triple, forms the hinge
    loss, and differentiates every parameter both ways. Returns the max
    relative error |a - n| / max(1e-8, |a| + |n|). Draws that sit within
    ~50*eps of a relu kink, a pooling tie, or the hinge kink are redrawn
    (the finite-difference oracle is only meaningful away from them).

    negate_bias_grad flips the sign of one analytic bias gradient; it
    exists so the failure path of the comparison can be exercised.
    """
    if model_kind not in KINDS:
        raise ConfigError(f"unknown model kind {model_kind!r}")
    guard = 50.0 * eps
    for attempt in range(64):
        rng = make_rng((seed << 8) + attempt)
        table = random_embeddings([f"w{i}" for i in range(12)], embed_dim, rng)
        model = build_model(model_kind, dict(embed_dim=embed_dim, max_len=max_len,
                                             **KINDS[model_kind].gradcheck), rng)
        sx = _random_sentence(table, max_len, rng)
        sy_pos = _random_sentence(table, max_len, rng)
        sy_neg = _random_sentence(table, max_len, rng)
        s_pos, tr_pos = model.score(sx, sy_pos)
        s_neg, tr_neg = model.score(sx, sy_neg)
        if s_pos - s_neg >= 1.0:  # margin met: loss flat, swap to activate it
            sy_pos, sy_neg = sy_neg, sy_pos
            s_pos, tr_pos, s_neg, tr_neg = s_neg, tr_neg, s_pos, tr_pos
        if abs((s_pos - s_neg) - 1.0) < 1e-3:
            continue
        if min(_trace_kink_distance(model, tr_pos),
               _trace_kink_distance(model, tr_neg)) < guard:
            continue
        g_pos, _, _ = model.backward(tr_pos, -1.0)
        g_neg, _, _ = model.backward(tr_neg, +1.0)
        total = {name: g_pos[name] + g_neg[name] for name, _ in model.named_params()}
        if negate_bias_grad:
            # flip the most influential bias gradient; draws where every
            # bias gradient cancels exactly (hinge symmetry with matching
            # activation patterns) give the fault nothing to corrupt
            bias_names = [n for n, _ in model.named_params()
                          if n.endswith(".b") or n == "b1"]
            bias_name = max(bias_names, key=lambda n: float(np.abs(total[n]).max()))
            if float(np.abs(total[bias_name]).max()) < 1e-6:
                continue
            total[bias_name] = -total[bias_name]
        analytic = np.concatenate([
            total[name].ravel() for name, _ in model.named_params()
        ])
        theta0 = param_vector(model)

        def loss_at(theta):
            set_param_vector(model, theta)
            sp = model.score(sx, sy_pos)[0]
            sn = model.score(sx, sy_neg)[0]
            return hinge_loss(sp, sn)

        numeric = finite_diff(loss_at, theta0, eps)
        set_param_vector(model, theta0)
        # Coordinates where both gradients sit below 1e-8 are "both zero":
        # central differences of an exactly-flat direction still carry
        # ~ulp(loss)/(2*eps) of rounding noise, which the relative formula
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
