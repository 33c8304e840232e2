import numpy as np
import pytest

from arcmatch.data import RankingInstance
from arcmatch.errors import DataError
from arcmatch.metrics import (EvalReport, classify_eval, margin_stats, p_at_1, rank_report,
                              select_threshold)
from arcmatch.tensor import make_rng


class FakeInstance:
    """Instances whose 'sentences' are just score-table keys."""

    def __init__(self, scores, answer):
        self.x = 0
        self.candidates = list(range(len(scores)))
        self.answer = answer
        self.scores = scores


def _fake_score(inst):
    return lambda x, c: inst.scores[c]


def _run_p1(instances):
    # dispatch per instance through a shared scorer
    table = {}

    def score(x, c):
        return table["cur"].scores[c]

    hits = 0
    total = 0
    # score instance-by-instance to keep the fake simple
    reports = []
    for inst in instances:
        table["cur"] = inst
        reports.append(p_at_1(score, [inst]))
    vals = [r.value for r in reports]
    return float(np.mean(vals))


def test_p_at_1_perfect_scorer():
    insts = [FakeInstance([0.1, 0.9, 0.2], 1), FakeInstance([5.0, 1.0], 0)]
    assert _run_p1(insts) == 1.0


def test_p_at_1_constant_scorer_is_zero():
    insts = [FakeInstance([1.0, 1.0, 1.0], 0)]
    assert _run_p1(insts) == 0.0


def test_p_at_1_random_scorer_near_chance():
    rng = make_rng(0)
    insts = []
    for _ in range(10_000):
        scores = rng.normal(size=5).tolist()
        insts.append(FakeInstance(scores, int(rng.integers(5))))
    assert abs(_run_p1(insts) - 0.20) < 0.02


def test_p_at_1_invariant_under_monotone_transforms():
    rng = make_rng(1)
    insts = [FakeInstance(rng.normal(size=5).tolist(), int(rng.integers(5)))
             for _ in range(1000)]
    base = _run_p1(insts)
    for transform in (lambda s: 3.0 * s + 7.0, np.exp, lambda s: s ** 3):
        mapped = [FakeInstance([float(transform(v)) for v in i.scores], i.answer)
                  for i in insts]
        assert _run_p1(mapped) == base


def test_p_at_1_empty_error():
    with pytest.raises(DataError):
        p_at_1(lambda x, c: 0.0, [])


def test_classify_all_correct():
    pairs = [("a", "b", 1), ("c", "d", 0)]
    report = classify_eval([1.0 if x == "a" else -1.0 for x, _, _ in pairs],
                           [label for _, _, label in pairs], 0.0)
    assert report.value == 1.0
    assert report.extras["f1"] == 1.0


def test_classify_majority_baseline_matches_formula():
    pairs = [("x", "y", 1)] * 665 + [("x", "y", 0)] * 335
    report = classify_eval([1.0] * len(pairs), [label for _, _, label in pairs], 0.0)
    assert report.value == pytest.approx(0.665)
    assert report.extras["f1"] == pytest.approx(2 * 0.665 / 1.665, abs=1e-9)
    assert round(report.extras["f1"], 3) == 0.799


def test_classify_no_positive_predictions_f1_zero():
    pairs = [("x", "y", 1), ("x", "y", 0)]
    report = classify_eval([-1.0] * len(pairs), [label for _, _, label in pairs], 0.0)
    assert report.extras["f1"] == 0.0


def test_classify_accuracy_is_one_minus_hamming():
    rng = make_rng(2)
    pairs = [(i, i, int(rng.integers(2))) for i in range(200)]
    scores = {i: float(rng.normal()) for i in range(200)}
    threshold = 0.3
    report = classify_eval([scores[x] for x, _, _ in pairs],
                           [label for _, _, label in pairs], threshold)
    wrong = sum(1 for i, _, label in pairs
                if (scores[i] >= threshold) != bool(label))
    assert report.value == pytest.approx(1 - wrong / 200)
    # f1 recomputed from the reported confusion matrix
    tp, fp, fn = report.extras["tp"], report.extras["fp"], report.extras["fn"]
    want_f1 = 0.0 if tp == 0 else 2 * tp / (2 * tp + fp + fn)
    assert report.extras["f1"] == pytest.approx(want_f1)


def test_select_threshold_maximizes_dev_accuracy():
    # separable dev set: scores 0..9, labels 1 for score >= 6
    pairs = [(i, i, int(i >= 6)) for i in range(10)]
    scores, labels = [float(x) for x, _, _ in pairs], [label for _, _, label in pairs]
    t = select_threshold(scores, labels)
    report = classify_eval(scores, labels, t)
    assert report.value == 1.0


def _select_threshold_by_scan(score_fn, dev_pairs):
    """The original quadratic scan: every candidate rescans every score."""
    scored = [(score_fn(x, y), label) for x, y, label in dev_pairs]
    scores = sorted({s for s, _ in scored})
    candidates = [scores[0] - 1.0, *scores]
    best_t, best_acc = candidates[0], -1.0
    for t in candidates:
        acc = sum(1 for s, label in scored if (s >= t) == bool(label)) / len(scored)
        if acc > best_acc:
            best_t, best_acc = t, acc
    return float(best_t)


def test_select_threshold_equals_the_quadratic_scan():
    rng = make_rng(3)
    cases = [[(0.5, 1)], [(0.5, 0)], [(-0.0, 1), (0.0, 0), (0.0, 1)],
             [(0.0, 0), (-0.0, 1), (1.0, 1)]]
    for n in (2, 3, 7, 40, 301):
        for levels in (2, 5, 1000):  # few levels: many tied scores
            scores = rng.integers(levels, size=n) / 4.0 - 1.0
            labels = rng.integers(2, size=n)
            cases.append(list(zip(scores.tolist(), labels.tolist())))
            cases.append([(s, 1) for s in scores.tolist()])
            cases.append([(s, 0) for s in scores.tolist()])
            cases.append([(s, int(s > 0.0)) for s in scores.tolist()])
    for case in cases:
        pairs = [(s, None, label) for s, label in case]
        got = select_threshold([s for s, _ in case], [label for _, label in case])
        want = _select_threshold_by_scan(lambda x, y: x, pairs)
        assert got == want and np.signbit(got) == np.signbit(want), case


def test_margin_stats():
    report = margin_stats([2.0, 0.0, 1.5, 0.0], [0.0, 0.0, 0.5, 1.0])
    # margins: 2.0, 0.0, 1.0, -1.0 -> fraction >= 1 is 0.5
    assert report.value == 0.5
    assert report.extras["margin_mean"] == pytest.approx(0.5)


def test_margin_stats_constant_scorer():
    report = margin_stats([3.0, 3.0], [3.0, 3.0])
    assert report.extras["margin_mean"] == 0.0
    assert report.value == 0.0


def test_margin_stats_untrained_vs_trained():
    from arcmatch.baselines import build_wordembed
    from arcmatch.data import (encode_triples, gen_synthetic_corpus,
                               sample_negatives)
    from arcmatch.embeddings import random_embeddings
    from arcmatch.training import TrainConfig, sgd_step

    corpus, tokens = gen_synthetic_corpus(80, 400, (9, 12), 10, make_rng(31))
    table = random_embeddings(tokens, 8, make_rng(32))
    triples = encode_triples(
        sample_negatives(corpus, 3, "random", table, make_rng(33)), table, 12)
    model = build_wordembed(8, make_rng(34), hidden=(16,))

    def margins():
        return ([model.score(t.x, t.y_pos)[0] for t in triples],
                [model.score(t.x, t.y_neg)[0] for t in triples])

    untrained = margin_stats(*margins())
    # untrained: margins hover around zero, roughly symmetric
    assert abs(untrained.extras["margin_mean"]) < 0.5
    assert untrained.value < 0.5  # few margins satisfied by luck

    cfg = TrainConfig(learning_rate=0.3, batch_size=40)
    rng = make_rng(35)
    for _ in range(30):
        for start in range(0, len(triples), 40):
            sgd_step(model, triples[start : start + 40], cfg, rng)
    trained = margin_stats(*margins())
    assert trained.value > untrained.value
    assert trained.extras["margin_mean"] > untrained.extras["margin_mean"]


def test_report_render_formats():
    report = p_at_1(lambda x, c: float(c == 1),
                    [RankingInstance(x=0, candidates=[0, 1], answer=1)])
    text = report.table()
    kv = report.kv_lines()
    assert "p_at_1" in text
    assert "value=1.000000" in kv


def _p_at_1_by_loop(score_fn, instances):
    """P@1 as an instance-by-instance loop: one np.delete and max per row."""
    hits, ties, margins = 0, 0, []
    for inst in instances:
        scores = np.array([score_fn(inst.x, c) for c in inst.candidates])
        margin = scores[inst.answer] - np.delete(scores, inst.answer).max()
        margins.append(margin)
        if margin > 0.0:
            hits += 1
        elif margin == 0.0:
            ties += 1
    margins = np.array(margins)
    return EvalReport("p_at_1", hits / len(instances), len(instances),
                      {"top_ties": ties, "margin_mean": float(margins.mean()),
                       "margin_median": float(np.median(margins))})


def test_rank_report_equals_the_loop_bit_for_bit():
    rng = make_rng(4)
    for n, width, levels in ((1, 2, None), (7, 5, 3), (200, 10, None), (333, 4, 2)):
        scores = rng.normal(size=(n, width)) if levels is None else (
            rng.integers(levels, size=(n, width)) / 3.0)  # few levels: many ties
        answers = rng.integers(width, size=n)
        instances = [RankingInstance(i, list(range(width)), int(a))
                     for i, a in enumerate(answers)]
        want = _p_at_1_by_loop(lambda x, c: scores[x, c], instances)
        for got in (rank_report(scores, answers),
                    p_at_1(lambda x, c: scores[x, c], instances)):
            assert got == want and got.kv_lines() == want.kv_lines()
            assert type(got.extras["top_ties"]) is int
        if levels is not None:
            assert 0 < want.extras["top_ties"] < n


def test_p_at_1_pads_ragged_candidate_lists():
    rng = make_rng(5)
    instances = [RankingInstance(i, list(range(width)), int(rng.integers(width)))
                 for i, width in enumerate((2, 5, 3, 5, 4))]
    scores = rng.normal(size=(5, 5))
    want = _p_at_1_by_loop(lambda x, c: scores[x, c], instances)
    assert p_at_1(lambda x, c: scores[x, c], instances) == want


def test_empty_score_arrays_are_data_errors():
    for call in (lambda: rank_report(np.empty((0, 5)), []),
                 lambda: classify_eval([], [], 0.0),
                 lambda: select_threshold([], []),
                 lambda: margin_stats([], [])):
        with pytest.raises(DataError):
            call()


def test_an_instance_of_one_candidate_is_a_data_error():
    # its margin over no other candidate would read as a sure hit
    with pytest.raises(DataError, match="2 or more candidates"):
        rank_report(np.zeros((3, 1)), [0, 0, 0])
    ragged = [RankingInstance(0, [0, 1], 1), RankingInstance(1, [0], 0)]
    with pytest.raises(DataError, match="2 or more candidates"):
        p_at_1(lambda x, c: float(c), ragged)
