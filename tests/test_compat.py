"""Checkpoint compatibility: files written by an earlier release of the
code must load, score bit for bit as they did then, and re-save to the
same bytes.

The checkpoints and scores in tests/fixtures/ were written by running this
file as a script (`PYTHONPATH=src python tests/test_compat.py`) on the code
as it stood before the siamese models became one class. Do not regenerate
them to make this test pass: a difference is a compatibility break.
"""

import json
import os

import numpy as np
import pytest

from arcmatch.arc1 import build_arc1
from arcmatch.arc2 import build_arc2
from arcmatch.baselines import build_senmlp, build_senna, build_wordembed
from arcmatch.checkpoint import load_checkpoint, save_checkpoint
from arcmatch.tensor import make_rng

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
SCORES = os.path.join(FIXTURES, "compat_scores.json")
DIM, MAX_LEN = 3, 8

MODELS = {
    "arc1": lambda rng: build_arc1(DIM, MAX_LEN, rng, windows=(3, 2),
                                   feature_maps=(3, 2), hidden=(4,)),
    "arc1_tied_dropout_sigmoid": lambda rng: build_arc1(
        DIM, MAX_LEN, rng, windows=(2, 2), feature_maps=(3, 2), hidden=(4,),
        activation="sigmoid", dropout=0.25, tie_weights=True),
    "arc2": lambda rng: build_arc2(DIM, MAX_LEN, rng, window1=3, maps1=3,
                                   twod_layers=((2, 2),), hidden=(4,)),
    "wordembed": lambda rng: build_wordembed(DIM, rng, hidden=(4,)),
    "wordembed_no_hidden": lambda rng: build_wordembed(DIM, rng, hidden=()),
    "senmlp": lambda rng: build_senmlp(DIM, MAX_LEN, rng, hidden=(4,)),
    "senmlp_two_hidden": lambda rng: build_senmlp(DIM, MAX_LEN, rng, hidden=(4, 3),
                                                  activation="sigmoid"),
    "senna": lambda rng: build_senna(DIM, MAX_LEN, rng, window=3, maps=4,
                                     hidden=(4,)),
}


def _sentence(length: int, offset: int) -> np.ndarray:
    """A padded sentence matrix of exactly representable values, built
    without an rng so that the inputs cannot drift."""
    x = np.zeros((MAX_LEN, DIM))
    for r in range(length):
        for c in range(DIM):
            x[r, c] = ((r * 7 + c * 3 + offset) % 11 - 5) / 4
    return x


PAIRS = [(_sentence(5, 0), _sentence(3, 4)),
         (_sentence(8, 1), _sentence(6, 2)),
         (_sentence(2, 9), _sentence(7, 5))]


def _path(name):
    return os.path.join(FIXTURES, f"{name}.ckpt")


def _scores(model):
    return [float(model.score(sx, sy)[0]).hex() for sx, sy in PAIRS]


def write_fixtures():
    scores = {}
    for i, (name, build) in enumerate(MODELS.items()):
        rng = make_rng(100 + i)
        model = build(rng)
        for _, tensor in model.named_params():  # nonzero biases too
            tensor[...] = rng.uniform(-0.5, 0.5, tensor.shape)
        save_checkpoint(_path(name), model)
        scores[name] = _scores(load_checkpoint(_path(name))[0])
    with open(SCORES, "w", encoding="utf-8") as fh:
        json.dump(scores, fh, indent=1, sort_keys=True)
        fh.write("\n")


@pytest.mark.parametrize("name", sorted(MODELS))
def test_old_checkpoint_scores_and_resaves_bitwise(name, tmp_path):
    with open(SCORES, encoding="utf-8") as fh:
        want = json.load(fh)[name]
    model, _ = load_checkpoint(_path(name))
    assert _scores(model) == want
    resaved = tmp_path / "resaved.ckpt"
    save_checkpoint(resaved, model)
    with open(_path(name), "rb") as fh:
        assert resaved.read_bytes() == fh.read()


if __name__ == "__main__":
    write_fixtures()
