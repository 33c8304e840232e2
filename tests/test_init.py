"""Initial parameters: every builder draws its layers through
tensor.init_layers, in layer order, and refuses a width below 1.

The digests pin the initial draws of each kind bit for bit: the sha256 of
param_vector's bytes for fixed builder arguments and seeds. They were
computed when each module still drew its own layers; init_layers is
imported inside the tests that call it, so that the digests also run
against a tree without it.
"""

import hashlib

import numpy as np
import pytest

from arcmatch.arc1 import build_arc1
from arcmatch.arc2 import build_arc2
from arcmatch.baselines import build_senmlp, build_senna, build_wordembed
from arcmatch.errors import ConfigError
from arcmatch.mlp import build_head
from arcmatch.models import build_model, param_vector
from arcmatch.tensor import make_rng


@pytest.mark.parametrize("kind,seed,arguments,size,digest", [
    ("arc1", 1, dict(embed_dim=5, max_len=10, windows=(3, 2), feature_maps=(6, 4),
                     hidden=(8,)),
     441, "c71692de4bb91e7159ec1f0b6d067e2c81c29a3d28afb441c0ee967d0485c85b"),
    ("arc1", 2, dict(embed_dim=5, max_len=10, windows=(3, 2), feature_maps=(6, 4),
                     hidden=(8,), activation="sigmoid", tie_weights=True),
     293, "5569a87878414752fa394fef61e77eabfebddcfb3b5622cebb4e773c84efc1c6"),
    ("arc2", 3, dict(embed_dim=5, max_len=10, window1=3, maps1=6,
                     twod_layers=((2, 4), (2, 3)), hidden=(8, 6)),
     430, "9de35720490b6397f6b556900452bc306278a7457e7a4c6df3f0910ea615fd9f"),
    ("arc2", 4, dict(embed_dim=5, max_len=9, window1=2, maps1=4, twod_layers=((2, 5),),
                     hidden=(), activation="sigmoid"),
     190, "dbb6be2bf8175b077544b3aa68d88714302125877761f1dacc33169093cc1a59"),
    ("wordembed", 5, dict(embed_dim=5, hidden=(7, 3)),
     105, "c580e2877a88dca20db3d35138b2cd89fd86deb667766872b89118efe431c103"),
    ("senmlp", 6, dict(embed_dim=5, max_len=10, hidden=(8,)),
     817, "9c71d63f859e757f39b06d1c8b36bf1443ea3bdc7e6f4a8a58c80c384c5f4875"),
    ("senna", 7, dict(embed_dim=5, max_len=10, window=3, maps=6, hidden=(8,)),
     305, "bb5f15c0cdf6037bd900866e7ba220ca3b32a3830fe4d7b6f17cd5e64edfc945"),
])
def test_initial_parameters_are_pinned_bit_for_bit(kind, seed, arguments, size, digest):
    theta = param_vector(build_model(kind, arguments, make_rng(seed)))
    assert theta.size == size
    assert hashlib.sha256(theta.tobytes()).hexdigest() == digest


def test_init_layers_draws_each_layer_in_order_with_zero_biases():
    from arcmatch.tensor import init_layers

    layers = init_layers("head", (6, 4), (4, 1), make_rng(3))
    rng = make_rng(3)
    for (w, b), (fan_in, width) in zip(layers, ((6, 4), (4, 1))):
        r = np.sqrt(6.0 / (fan_in + width))
        assert w.tobytes() == rng.uniform(-r, r, size=(width, fan_in)).tobytes()
        assert b.shape == (width,) and not b.any()


@pytest.mark.parametrize("fan_ins,widths,err", [
    ((0, 4), (4, 1), "head layer 0: fan-in 0 and width 4 must be >= 1"),
    ((6, 4), (4, -3), "head layer 1: fan-in 4 and width -3 must be >= 1"),
])
def test_init_layers_names_the_first_layer_below_one(fan_ins, widths, err):
    from arcmatch.tensor import init_layers

    with pytest.raises(ConfigError, match=f"^{err}$"):
        init_layers("head", fan_ins, widths, make_rng(0))


def _arc1(**kw):
    return build_arc1(**{**dict(embed_dim=4, max_len=10, windows=(3, 2),
                                feature_maps=(3, 2), hidden=(5,)), **kw}, rng=make_rng(0))


def _arc2(**kw):
    return build_arc2(**{**dict(embed_dim=4, max_len=10, window1=3, maps1=3,
                                twod_layers=((2, 2),), hidden=(5,)), **kw}, rng=make_rng(0))


def _senna(**kw):
    return build_senna(**{**dict(embed_dim=4, max_len=10, maps=3, hidden=(5,)), **kw},
                       rng=make_rng(0))


@pytest.mark.parametrize("build,layer", [
    (lambda: _arc1(embed_dim=0), "conv layer 0"),
    (lambda: _arc1(embed_dim=-2), "conv layer 0"),
    (lambda: _arc1(feature_maps=(0, 2)), "conv layer 0"),
    (lambda: _arc1(feature_maps=(3, -1)), "conv layer 1"),
    (lambda: _arc1(hidden=(0,)), "head layer 0"),
    (lambda: _arc1(hidden=(5, -3)), "head layer 1"),
    (lambda: _arc2(embed_dim=0), "conv layer 0"),
    (lambda: _arc2(maps1=0), "conv layer 0"),
    (lambda: _arc2(twod_layers=((2, 0),)), "conv layer 1"),
    (lambda: _arc2(twod_layers=((2, 2), (2, -1))), "conv layer 2"),
    (lambda: _arc2(hidden=(0,)), "head layer 0"),
    (lambda: build_wordembed(0, make_rng(0)), "head layer 0"),
    (lambda: build_wordembed(4, make_rng(0), hidden=(-3,)), "head layer 0"),
    (lambda: build_senmlp(0, 10, make_rng(0)), "head layer 0"),
    (lambda: build_senmlp(4, 10, make_rng(0), hidden=(5, 0)), "head layer 1"),
    (lambda: _senna(embed_dim=0), "conv layer 0"),
    (lambda: _senna(maps=0), "conv layer 0"),
    (lambda: _senna(hidden=(0,)), "head layer 0"),
    (lambda: build_head(0, (5,), make_rng(0)), "head layer 0"),
])
def test_a_width_below_one_in_any_layer_is_config_error(build, layer):
    with pytest.raises(ConfigError, match=f"^{layer}: fan-in -?\\d+ and width -?\\d+ "
                                          f"must be >= 1$"):
        build()


@pytest.mark.parametrize("activation", ["tanh", ""])
def test_head_refuses_an_unknown_activation(activation):
    with pytest.raises(ConfigError, match=f"^unknown activation {activation!r}"):
        build_head(4, (5,), make_rng(0), activation=activation)
