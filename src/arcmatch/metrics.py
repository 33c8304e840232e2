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


def rank_report(scores, answers) -> EvalReport:
    """Fraction of instances whose true candidate is the strict maximum.

    Row i of scores holds instance i's candidate scores, and answers[i] is
    the column of its true y. Ties at the top count as failures, so a
    constant scorer earns zero. Padding a row with -inf changes no maximum.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if not len(scores):
        raise DataError("p_at_1: no instances")
    if scores.ndim != 2 or scores.shape[1] < 2:
        raise DataError("p_at_1: every instance needs 2 or more candidates")
    rows = np.arange(len(scores))
    others = scores.copy()
    others[rows, answers] = -np.inf
    margins = scores[rows, answers] - others.max(axis=1)
    return EvalReport("p_at_1", int((margins > 0.0).sum()) / len(scores), len(scores),
                      {"top_ties": int((margins == 0.0).sum()),
                       "margin_mean": float(margins.mean()),
                       "margin_median": float(np.median(margins))})


def p_at_1(score_fn, instances) -> EvalReport:
    """rank_report of score_fn(x, candidate) -> float, called pair by pair in
    instance order on instances' .x, .candidates and .answer; rows of fewer
    candidates are padded with -inf."""
    rows = [[score_fn(inst.x, c) for c in inst.candidates] for inst in instances]
    if min(map(len, rows), default=2) < 2:
        raise DataError("p_at_1: every instance needs 2 or more candidates")
    width = max(map(len, rows), default=0)
    return rank_report([row + [-np.inf] * (width - len(row)) for row in rows],
                       [inst.answer for inst in instances])


def classify_eval(scores, labels, threshold: float) -> EvalReport:
    """Accuracy and F1 of `score >= threshold` as a match predictor, given
    pairs' scores and labels in {0, 1}. F1 is 0 by convention when there
    are no positive predictions."""
    if not len(scores):
        raise DataError("classify_eval: no labeled pairs")
    pred, labels = np.asarray(scores) >= threshold, np.asarray(labels, dtype=bool)
    tp, fp = int((pred & labels).sum()), int((pred & ~labels).sum())
    fn, tn = int((~pred & labels).sum()), int((~pred & ~labels).sum())
    total = tp + fp + tn + fn
    accuracy = (tp + tn) / total
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return EvalReport(metric="accuracy", value=accuracy, count=total,
                      extras={"f1": f1, "threshold": float(threshold),
                              "tp": tp, "fp": fp, "tn": tn, "fn": fn})


def select_threshold(scores, labels) -> float:
    """Pick the accuracy-maximizing threshold for dev pairs' scores and labels.

    The grid is the set of observed score quantiles (i.e., every score,
    plus one value below the minimum so 'predict everything' is available);
    the first best, scanning upwards, wins. One sort, then a running count
    of correct predictions: raising the threshold past a score turns its
    pairs' predictions to 0, which gains its negatives and loses its
    positives.
    """
    if not len(scores):
        raise DataError("select_threshold: no dev pairs")
    # a stable sort keeps the first of equal scores (0.0 and -0.0) first
    scored = sorted(zip(scores, labels), key=lambda pair: pair[0])
    best_t = scored[0][0] - 1.0
    correct = best_correct = sum(1 for _, label in scored if label)
    for t, tied in itertools.groupby(scored, key=lambda pair: pair[0]):
        if correct > best_correct:
            best_t, best_correct = t, correct
        for _, label in tied:
            correct += -1 if label else 1
    return float(best_t)


def margin_stats(pos, neg) -> EvalReport:
    """Distribution of s(x, y+) - s(x, y-), given triples' pos and neg scores."""
    if not len(pos):
        raise DataError("margin_stats: no triples")
    margins = np.asarray(pos, dtype=np.float64) - np.asarray(neg, dtype=np.float64)
    frac = float((margins >= 1.0).mean())
    return EvalReport(metric="margin_ge_1", value=frac, count=len(margins),
                      extras={"margin_mean": float(margins.mean()),
                              "margin_median": float(np.median(margins))})
