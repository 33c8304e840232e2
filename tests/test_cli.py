import os
import subprocess
import sys

import numpy as np
import pytest

import arcmatch
from arcmatch.cli import main

from arcmatch.data import load_pairs


def run(argv):
    return main(argv)


def _run_cli(argv):
    """Run the CLI as its own process, so that a traceback would show."""
    src = os.path.dirname(os.path.dirname(arcmatch.__file__))
    return subprocess.run([sys.executable, "-m", "arcmatch.cli", *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})


def test_gen_synth_split_counts(tmp_path):
    out = tmp_path / "synth"
    code = run(["gen-synth", "--out", str(out), "--pairs", "1000",
                "--vocab-size", "400", "--topics", "10", "--seed", "5"])
    assert code == 0
    with open(out / "train.pairs", encoding="utf-8") as fh:
        assert len(load_pairs(fh)) == 800
    with open(out / "val.pairs", encoding="utf-8") as fh:
        assert len(load_pairs(fh)) == 100
    with open(out / "test.pairs", encoding="utf-8") as fh:
        assert len(load_pairs(fh)) == 100
    manifest = (out / "manifest.txt").read_text()
    assert "seed=5" in manifest


def test_gen_synth_rerun_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run(["gen-synth", "--out", str(out), "--pairs", "60",
             "--vocab-size", "400", "--seed", "9"])
    assert (a / "train.pairs").read_text() == (b / "train.pairs").read_text()


def test_gen_synth_one_topic_is_usage_error(tmp_path):
    code = run(["gen-synth", "--out", str(tmp_path / "x"), "--pairs", "10",
                "--topics", "1"])
    assert code == 1


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "synth"
    assert run(["gen-synth", "--out", str(out), "--pairs", "120",
                "--vocab-size", "400", "--topics", "5", "--seed", "3"]) == 0
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory, synth_dir):
    ckpt = tmp_path_factory.mktemp("cli-train") / "model.ckpt"
    code = run(["train", "--model", "wordembed",
                "--train", str(synth_dir / "train.pairs"),
                "--val", str(synth_dir / "val.pairs"),
                "--out", str(ckpt), "--random-embeddings",
                "--embed-dim", "8", "--max-len", "12",
                "--train-negatives", "2", "--epochs", "2",
                "--eval-every", "3", "--batch-size", "16",
                "--lr", "0.05", "--hidden", "8", "--seed", "1", "--quiet"])
    assert code == 0
    return ckpt


def test_train_writes_checkpoint_history_and_embeddings(trained):
    assert os.path.exists(trained)
    assert os.path.exists(str(trained) + ".history.tsv")
    assert os.path.exists(str(trained) + ".embeddings.txt")
    header = open(str(trained) + ".history.tsv").readline()
    assert header.split() == ["epoch", "batches", "train_loss", "val_p1"]


def test_eval_runs_on_checkpoint(trained, synth_dir, capsys):
    code = run(["eval", "--checkpoint", str(trained),
                "--data", str(synth_dir / "test.pairs"),
                "--embeddings", str(trained) + ".embeddings.txt",
                "--negatives", "4", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "p_at_1" in out
    assert "value=" in out


def test_eval_classify_on_ranking_file_is_usage_error(trained, synth_dir):
    code = run(["eval", "--checkpoint", str(trained),
                "--data", str(synth_dir / "test.pairs"),
                "--embeddings", str(trained) + ".embeddings.txt",
                "--classify", "--threshold", "0.0"])
    assert code == 1


def test_eval_classify_labeled_file(trained, synth_dir, tmp_path, capsys):
    labeled = tmp_path / "labeled.tsv"
    with open(synth_dir / "test.pairs", encoding="utf-8") as fh:
        pairs = load_pairs(fh).pairs
    with open(labeled, "w", encoding="utf-8") as fh:
        for i, (x, y) in enumerate(pairs[:10]):
            fh.write(" ".join(x) + "\t" + " ".join(y) + f"\t{i % 2}\n")
    code = run(["eval", "--checkpoint", str(trained), "--data", str(labeled),
                "--embeddings", str(trained) + ".embeddings.txt",
                "--classify", "--threshold", "0.0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "accuracy" in out
    assert "f1=" in out


def test_score_single_pair_deterministic(trained, capsys):
    argv = ["score", "--checkpoint", str(trained),
            "--embeddings", str(trained) + ".embeddings.txt",
            "--x", "t0w1 t0w2 f1", "--y", "t0w1 r0w1 f2"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    float(first.strip())  # one score, 6 decimals
    assert len(first.strip().split(".")[-1]) == 6


def test_score_batch_tsv_line_count(trained, synth_dir, capsys):
    assert run(["score", "--checkpoint", str(trained),
                "--embeddings", str(trained) + ".embeddings.txt",
                "--pairs", str(synth_dir / "test.pairs")]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    with open(synth_dir / "test.pairs", encoding="utf-8") as fh:
        n = len(load_pairs(fh))
    assert len(out) == n


def test_score_oov_only_sentence_still_scores(trained, capsys):
    code = run(["score", "--checkpoint", str(trained),
                "--embeddings", str(trained) + ".embeddings.txt",
                "--x", "zzz qqq", "--y", "t0w1 r0w1"])
    assert code == 0
    float(capsys.readouterr().out.strip())


def test_score_empty_sentence_is_data_error(trained):
    code = run(["score", "--checkpoint", str(trained),
                "--embeddings", str(trained) + ".embeddings.txt",
                "--x", "   ", "--y", "t0w1"])
    assert code == 2


def test_gradcheck_all_kinds_pass(capsys):
    code = run(["gradcheck", "--model", "all", "--seed", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 5
    assert "FAIL" not in out


def test_gradcheck_injected_fault_fails(capsys):
    code = run(["gradcheck", "--model", "arc1", "--seed", "2",
                "--inject-fault"])
    out = capsys.readouterr().out + capsys.readouterr().err
    assert code == 3
    assert "FAIL" in out


def test_train_determinism_same_seed(tmp_path, synth_dir):
    hists = []
    for name in ("m1", "m2"):
        ckpt = tmp_path / f"{name}.ckpt"
        assert run(["train", "--model", "wordembed",
                    "--train", str(synth_dir / "train.pairs"),
                    "--val", str(synth_dir / "val.pairs"),
                    "--out", str(ckpt), "--random-embeddings",
                    "--embed-dim", "6", "--max-len", "12",
                    "--train-negatives", "2", "--epochs", "2",
                    "--eval-every", "4", "--batch-size", "16",
                    "--hidden", "6", "--seed", "11", "--quiet"]) == 0
        hists.append((tmp_path / f"{name}.ckpt.history.tsv").read_text())
    assert hists[0] == hists[1]
    assert (tmp_path / "m1.ckpt").read_bytes() == (tmp_path / "m2.ckpt").read_bytes()


def test_eval_random_checkpoint_near_chance(tmp_path, capsys):
    out = tmp_path / "synth"
    assert run(["gen-synth", "--out", str(out), "--pairs", "800",
                "--vocab-size", "400", "--topics", "10", "--seed", "21"]) == 0
    ckpt = tmp_path / "rand.ckpt"
    assert run(["train", "--model", "arc1",
                "--train", str(out / "train.pairs"),
                "--val", str(out / "val.pairs"),
                "--out", str(ckpt), "--random-embeddings",
                "--embed-dim", "8", "--max-len", "12",
                "--train-negatives", "1", "--epochs", "0",
                "--hidden", "8", "--seed", "3", "--quiet"]) == 0
    capsys.readouterr()
    assert run(["eval", "--checkpoint", str(ckpt),
                "--data", str(out / "test.pairs"),
                "--embeddings", str(ckpt) + ".embeddings.txt",
                "--negatives", "4", "--seed", "9"]) == 0
    outtext = capsys.readouterr().out
    value = float(next(l for l in outtext.splitlines()
                       if l.startswith("value=")).split("=")[1])
    assert 0.05 <= value <= 0.40  # 80 instances of an untrained 5-way ranking


def test_train_builds_default_stacks(tmp_path, synth_dir):
    # arc2 default: window 3, two 2D layers -> 3 conv + 3 pool + 2 MLP;
    # epochs 0 writes the untouched random initialization
    ckpt = tmp_path / "arc2.ckpt"
    assert run(["train", "--model", "arc2",
                "--train", str(synth_dir / "train.pairs"),
                "--val", str(synth_dir / "val.pairs"),
                "--out", str(ckpt), "--random-embeddings",
                "--embed-dim", "8", "--max-len", "16",
                "--train-negatives", "1", "--epochs", "0",
                "--hidden", "8", "--seed", "0", "--quiet"]) == 0
    from arcmatch.checkpoint import load_checkpoint
    model, kv = load_checkpoint(ckpt)
    assert kv["window1"] == "3"
    assert len(model.params.twod) == 2
    assert len(model.head.weights) == 2

    ckpt1 = tmp_path / "arc1.ckpt"
    assert run(["train", "--model", "arc1",
                "--train", str(synth_dir / "train.pairs"),
                "--val", str(synth_dir / "val.pairs"),
                "--out", str(ckpt1), "--random-embeddings",
                "--embed-dim", "8", "--max-len", "16",
                "--train-negatives", "1", "--epochs", "0",
                "--hidden", "8", "--seed", "0", "--quiet"]) == 0
    model1, kv1 = load_checkpoint(ckpt1)
    assert kv1["windows"] == "3,2"
    assert len(model1.params_x.layers) == 2
    assert len(model1.head.weights) == 2


@pytest.mark.parametrize("edit", ["delete hidden", "hidden=eight", "delete kind"])
@pytest.mark.parametrize("command", ["eval", "score"])
def test_bad_checkpoint_config_key_is_data_error(trained, synth_dir, tmp_path,
                                                 command, edit):
    # the header is not checksummed, so a damaged key reaches the model builder
    lines = open(trained, "rb").read().split(b"\n")
    key = edit.split()[-1].split("=")[0]
    at = next(i for i, line in enumerate(lines) if line.startswith(key.encode() + b"="))
    if edit.startswith("delete"):
        del lines[at]
    else:
        lines[at] = edit.encode()
    damaged = tmp_path / "damaged.ckpt"
    damaged.write_bytes(b"\n".join(lines))
    args = {"eval": ["--data", str(synth_dir / "test.pairs")],
            "score": ["--x", "t0w1 t0w2", "--y", "t0w1"]}[command]
    proc = _run_cli([command, "--checkpoint", str(damaged),
                     "--embeddings", str(trained) + ".embeddings.txt", *args])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"'{key}'" in proc.stderr


def test_checkpoint_describing_an_invalid_model_is_data_error(trained, tmp_path):
    # every key parses, but an arc1 model needs at least one conv window
    from arcmatch.arc1 import build_arc1
    from arcmatch.checkpoint import save_checkpoint
    from arcmatch.tensor import make_rng
    path = tmp_path / "arc1.ckpt"
    save_checkpoint(path, build_arc1(8, 12, make_rng(0), windows=(3, 2),
                                     feature_maps=(4, 4), hidden=(8,)))
    lines = path.read_bytes().split(b"\n")
    at = next(i for i, line in enumerate(lines) if line.startswith(b"windows="))
    lines[at] = b"windows="
    path.write_bytes(b"\n".join(lines))
    proc = _run_cli(["score", "--checkpoint", str(path),
                     "--embeddings", str(trained) + ".embeddings.txt",
                     "--x", "t0w1 t0w2", "--y", "t0w1"])
    assert proc.returncode == 2, proc.stderr
    assert "data error:" in proc.stderr and "arc1" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("flag", [("--hidden", "abc"), ("--maps", "x"),
                                  ("--twod", "2"), ("--twod", "2:x")])
def test_malformed_spec_flag_is_usage_error(tmp_path, flag):
    proc = _run_cli(["train", "--model", "arc2", "--train", "t.pairs", "--val", "v.pairs",
                     "--out", str(tmp_path / "m.ckpt"), "--random-embeddings", *flag])
    assert proc.returncode == 1, proc.stderr
    assert "usage error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def _train_args(synth_dir, tmp_path, *extra):
    return ["train", "--model", "wordembed",
            "--train", str(synth_dir / "train.pairs"),
            "--val", str(synth_dir / "val.pairs"),
            "--out", str(tmp_path / "m.ckpt"), "--random-embeddings",
            "--embed-dim", "8", "--max-len", "12", "--hidden", "8", "--quiet", *extra]


def _assert_exit_1(proc, prefix):
    assert proc.returncode == 1, proc.stderr
    assert prefix in proc.stderr
    assert "Traceback" not in proc.stderr


def test_eval_every_zero_is_config_error(synth_dir, tmp_path):
    proc = _run_cli(_train_args(synth_dir, tmp_path, "--eval-every", "0"))
    _assert_exit_1(proc, "config error:")
    assert "eval_every" in proc.stderr


@pytest.mark.parametrize("command,negatives", [("train", "0"), ("eval", "0"), ("eval", "-1")])
def test_ranking_without_negatives_is_config_error(trained, synth_dir, tmp_path,
                                                   command, negatives):
    if command == "train":
        argv = _train_args(synth_dir, tmp_path, "--val-negatives", negatives)
    else:
        argv = ["eval", "--checkpoint", str(trained), "--data", str(synth_dir / "test.pairs"),
                "--embeddings", str(trained) + ".embeddings.txt", "--negatives", negatives]
    proc = _run_cli(argv)
    _assert_exit_1(proc, "config error:")
    assert "negative" in proc.stderr


@pytest.mark.parametrize("split", ["a/b/c", "120/-10/-10", "80/10", "80/10/10/0"])
def test_malformed_split_is_usage_error(tmp_path, split):
    out = tmp_path / "synth"
    proc = _run_cli(["gen-synth", "--out", str(out), "--pairs", "20", "--split", split])
    _assert_exit_1(proc, "usage error:")
    assert not out.exists()
