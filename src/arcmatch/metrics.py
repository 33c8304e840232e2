"""Evaluation protocols: P@1 over ranking instances, threshold
classification (accuracy/F1), and margin diagnostics for the ranking loss.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError


@dataclass
class EvalReport:
    metric: str
    value: float
    count: int
    extras: dict = field(default_factory=dict)

    def kv_lines(self) -> str:
        lines = [f"metric={self.metric}", f"value={self.value:.6f}",
                 f"count={self.count}"]
        lines += [f"{k}={v:.6f}" if isinstance(v, float) else f"{k}={v}"
                  for k, v in sorted(self.extras.items())]
        return "\n".join(lines)

    def table(self) -> str:
        rows = [("metric", self.metric), ("value", f"{self.value:.4f}"),
                ("count", str(self.count))]
        rows += [(k, f"{v:.4f}" if isinstance(v, float) else str(v))
                 for k, v in sorted(self.extras.items())]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


def p_at_1(score_fn, instances) -> EvalReport:
    """Fraction of instances whose true candidate is the strict maximum.

    Ties at the top count as failures, so a constant scorer earns zero.
    score_fn(x, candidate) -> float; instances carry .x, .candidates and
    .answer (any sentence representation score_fn accepts).
    """
    if not instances:
        raise DataError("p_at_1: no instances")
    hits = 0
    ties = 0
    margins = []
    for inst in instances:
        scores = np.array([score_fn(inst.x, c) for c in inst.candidates])
        truth = scores[inst.answer]
        others = np.delete(scores, inst.answer)
        margin = truth - others.max()
        margins.append(margin)
        if margin > 0.0:
            hits += 1
        elif margin == 0.0:
            ties += 1
    margins = np.array(margins)
    return EvalReport(
        metric="p_at_1",
        value=hits / len(instances),
        count=len(instances),
        extras={
            "top_ties": ties,
            "margin_mean": float(margins.mean()),
            "margin_median": float(np.median(margins)),
        },
    )


def classify_eval(score_fn, labeled_pairs, threshold: float) -> EvalReport:
    """Accuracy and F1 of `score >= threshold` as a match predictor.

    labeled_pairs: iterable of (x, y, label) with label in {0, 1}. F1 is 0
    by convention when there are no positive predictions.
    """
    labeled_pairs = list(labeled_pairs)
    if not labeled_pairs:
        raise DataError("classify_eval: no labeled pairs")
    tp = fp = tn = fn = 0
    for x, y, label in labeled_pairs:
        pred = 1 if score_fn(x, y) >= threshold else 0
        if pred and label:
            tp += 1
        elif pred and not label:
            fp += 1
        elif not pred and label:
            fn += 1
        else:
            tn += 1
    total = tp + fp + tn + fn
    accuracy = (tp + tn) / total
    if tp + fp == 0:
        f1 = 0.0
    else:
        precision = tp / (tp + fp)
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return EvalReport(metric="accuracy", value=accuracy, count=total,
                      extras={"f1": f1, "threshold": float(threshold),
                              "tp": tp, "fp": fp, "tn": tn, "fn": fn})


def select_threshold(score_fn, dev_pairs) -> float:
    """Pick the accuracy-maximizing threshold on a dev split.

    The grid is the set of observed score quantiles (i.e., every score,
    plus one value below the minimum so 'predict everything' is available);
    the first best, scanning upwards, wins. One sort, then a running count
    of correct predictions: raising the threshold past a score turns its
    pairs' predictions to 0, which gains its negatives and loses its
    positives.
    """
    dev_pairs = list(dev_pairs)
    if not dev_pairs:
        raise DataError("select_threshold: no dev pairs")
    # a stable sort keeps the first of equal scores (0.0 and -0.0) first
    scored = sorted(((score_fn(x, y), label) for x, y, label in dev_pairs),
                    key=lambda pair: pair[0])
    best_t = scored[0][0] - 1.0
    correct = best_correct = sum(1 for _, label in scored if label)
    for t, tied in itertools.groupby(scored, key=lambda pair: pair[0]):
        if correct > best_correct:
            best_t, best_correct = t, correct
        for _, label in tied:
            correct += -1 if label else 1
    return float(best_t)


def margin_stats(score_fn, triples) -> EvalReport:
    """Distribution of s(x, y+) - s(x, y-) over triples."""
    triples = list(triples)
    if not triples:
        raise DataError("margin_stats: no triples")
    margins = np.array([
        score_fn(t.x, t.y_pos) - score_fn(t.x, t.y_neg) for t in triples
    ])
    frac = float((margins >= 1.0).mean())
    return EvalReport(metric="margin_ge_1", value=frac, count=len(triples),
                      extras={"margin_mean": float(margins.mean()),
                              "margin_median": float(np.median(margins))})
