import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from arcmatch.arc1 import build_arc1
from arcmatch.arc2 import build_arc2
from arcmatch.baselines import build_senmlp, build_senna, build_wordembed
from arcmatch.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from arcmatch.errors import (CheckpointChecksumError, CheckpointError,
                             CheckpointShapeError, CheckpointVersionError)
from arcmatch.models import param_vector
from arcmatch.tensor import make_rng

from conftest import random_sentence, small_table


def _builders():
    return {
        "arc1": lambda rng: build_arc1(4, 10, rng, windows=(3, 2),
                                       feature_maps=(3, 2), hidden=(5,)),
        "arc1_tied": lambda rng: build_arc1(4, 10, rng, windows=(3, 2),
                                            feature_maps=(3, 2), hidden=(5,),
                                            tie_weights=True),
        "arc2": lambda rng: build_arc2(4, 10, rng, window1=3, maps1=3,
                                       twod_layers=((2, 2),), hidden=(5,)),
        "wordembed": lambda rng: build_wordembed(4, rng, hidden=(5,)),
        "senmlp": lambda rng: build_senmlp(4, 10, rng, hidden=(5,)),
        "senna": lambda rng: build_senna(4, 10, rng, maps=3, hidden=(5,)),
    }


def test_round_trip_scores_within_f32_rounding(tmp_path):
    table = small_table()
    rng = make_rng(0)
    for name, builder in _builders().items():
        model = builder(make_rng(3))
        sx = random_sentence(table, 10, rng)
        sy = random_sentence(table, 10, rng)
        before = model.score(sx, sy)[0]
        path = tmp_path / f"{name}.ckpt"
        save_checkpoint(path, model)
        loaded, kv = load_checkpoint(path)
        assert loaded.kind == model.kind
        after = loaded.score(sx, sy)[0]
        assert abs(after - before) < 1e-5, name

        # second round-trip is bitwise stable (values already f32-exact)
        path2 = tmp_path / f"{name}2.ckpt"
        save_checkpoint(path2, loaded)
        loaded2, _ = load_checkpoint(path2)
        assert np.array_equal(param_vector(loaded2), param_vector(loaded))
        assert loaded2.score(sx, sy)[0] == after


def test_truncated_file_fails_checksum(tmp_path):
    model = _builders()["wordembed"](make_rng(1))
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    blob = path.read_bytes()
    path.write_bytes(blob[:-20])
    with pytest.raises(CheckpointChecksumError):
        load_checkpoint(path)


def test_corrupted_blob_fails_checksum(tmp_path):
    model = _builders()["wordembed"](make_rng(2))
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    blob = bytearray(path.read_bytes())
    blob[-30] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointChecksumError):
        load_checkpoint(path)


def test_version_mismatch(tmp_path):
    model = _builders()["wordembed"](make_rng(3))
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    blob = path.read_bytes()
    assert blob.startswith(MAGIC.encode())
    path.write_bytes(b"ARCMATCH-CKPT v9" + blob[len(MAGIC) :])
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(path)


def test_config_edit_without_blob_edit_is_shape_error(tmp_path):
    model = _builders()["wordembed"](make_rng(4))
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    blob = path.read_bytes()
    # widen the hidden layer in the config only, then fix the checksum by
    # leaving the blob untouched: loader must flag the shape disagreement
    patched = blob.replace(b"hidden=5", b"hidden=9")
    assert patched != blob
    path.write_bytes(patched)
    with pytest.raises(CheckpointShapeError):
        load_checkpoint(path)


@pytest.mark.parametrize("keys", [("windows",), ("feature_maps",),
                                  ("windows", "feature_maps")])
def test_arc1_header_with_an_empty_stack_is_rejected(tmp_path, keys):
    # arc1 shares its class with the convolution-free baselines; an emptied
    # stack must not load as one of them
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, _builders()["arc1"](make_rng(4)))
    lines = path.read_bytes().split(b"\n")
    for key in keys:
        at = next(i for i, line in enumerate(lines) if line.startswith(key.encode() + b"="))
        lines[at] = key.encode() + b"="
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(CheckpointShapeError, match="invalid arc1 model"):
        load_checkpoint(path)


def test_round_trip_preserves_p_at_1(tmp_path):
    from arcmatch.data import (encode_instances, gen_synthetic_corpus,
                               make_eval_instances)
    from arcmatch.embeddings import random_embeddings
    from arcmatch.metrics import p_at_1

    corpus, tokens = gen_synthetic_corpus(40, 400, (7, 10), 5, make_rng(5))
    table = random_embeddings(tokens, 4, make_rng(6))
    instances = encode_instances(
        make_eval_instances(corpus, 4, "random", None, make_rng(7)),
        table, 10)
    model = _builders()["arc1"](make_rng(8))
    # every decision margin must clear the f32 perturbation scale, else the
    # instance set cannot support an exact-preservation claim
    for inst in instances:
        scores = sorted(model.score(inst.x, c)[0] for c in inst.candidates)
        assert scores[-1] - scores[-2] > 1e-4
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    loaded, _ = load_checkpoint(path)
    before = p_at_1(lambda sx, sy: model.score(sx, sy)[0], instances)
    after = p_at_1(lambda sx, sy: loaded.score(sx, sy)[0], instances)
    assert before.value == after.value


MUTATION_PROPERTY = settings(derandomize=True, max_examples=300, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow,
                                                    HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("name", ["arc1", "arc2"])
@settings(MUTATION_PROPERTY)
@given(edit=st.one_of(
    # an overwrite, weighted to the unchecksummed header, or a truncation
    st.tuples(st.just("overwrite"), st.integers(0, 159), st.integers(0, 255)),
    st.tuples(st.just("overwrite"), st.integers(0, 10**6), st.integers(0, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 10**6), st.just(0))))
@example(edit=("overwrite", 20, 0xFF))
@example(edit=("overwrite", 0, 0xFF))
@example(edit=("truncate", 0, 0))
def test_a_damaged_checkpoint_loads_or_raises_checkpoint_error(tmp_path, name, edit):
    # v1 checksums only the parameters, so a damaged header may still load
    path = tmp_path / f"{name}.ckpt"
    save_checkpoint(path, _builders()[name](make_rng(2)))
    data = path.read_bytes()
    kind, at, byte = edit
    at %= len(data)
    if kind == "overwrite":
        data = data[:at] + bytes([byte]) + data[at + 1:]
    else:
        data = data[:at]
    path.write_bytes(data)
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass
