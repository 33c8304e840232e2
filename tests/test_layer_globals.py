"""The layer steps stay module globals that the models call.

perfbench/tracer.py times each layer by replacing these module attributes
with timing wrappers; a model that stopped calling one would leave that
layer's span reading 0 without any error.
"""

import collections

import numpy as np
import pytest

from arcmatch import arc2, conv_sentence
from arcmatch.arc1 import build_arc1
from arcmatch.arc2 import build_arc2
from arcmatch.baselines import build_senna
from arcmatch.tensor import make_rng

from conftest import random_sentence, small_table

LAYER_GLOBALS = ((conv_sentence, "conv1d_gated"), (conv_sentence, "maxpool1d"),
                 (arc2, "interaction_conv1d"), (arc2, "conv2d_gated"), (arc2, "maxpool2d"))

USED = {
    "arc1": (lambda rng: build_arc1(4, 9, rng, windows=(3, 2), feature_maps=(3, 2),
                                    hidden=(5,)),
             {"conv1d_gated", "maxpool1d"}),
    "senna": (lambda rng: build_senna(4, 9, rng, maps=3, hidden=(5,)),
              {"conv1d_gated"}),
    "arc2": (lambda rng: build_arc2(4, 9, rng, window1=3, maps1=3,
                                    twod_layers=((2, 4),), hidden=(5,)),
             {"interaction_conv1d", "conv2d_gated", "maxpool2d"}),
}


@pytest.mark.parametrize("kind", sorted(USED))
def test_models_call_the_layer_globals(kind, monkeypatch):
    calls = collections.Counter()
    for module, name in LAYER_GLOBALS:
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    build, used = USED[kind]
    model = build(make_rng(0))
    table, rng = small_table(), make_rng(1)
    sents = [random_sentence(table, 9, rng).x for _ in range(4)]
    for x, y in ((sents[0], sents[1]), (np.stack(sents[:2]), np.stack(sents[2:]))):
        calls.clear()
        scores, trace = model.score(x, y)
        model.backward(trace, np.ones(np.shape(scores)))
        assert used <= set(calls), (kind, dict(calls))
