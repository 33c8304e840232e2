import os
import subprocess
import sys
from pathlib import Path

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


def test_score_batch_tsv_line_count(trained, synth_dir, tmp_path, capsys):
    assert run(["score", "--checkpoint", str(trained),
                "--embeddings", str(trained) + ".embeddings.txt",
                "--pairs", str(synth_dir / "test.pairs")]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    with open(synth_dir / "test.pairs", encoding="utf-8") as fh:
        n = len(load_pairs(fh))
    assert len(out) == n
    # a file of no pairs prints no scores
    (tmp_path / "empty.pairs").write_text(" \n")
    assert run(["score", "--checkpoint", str(trained),
                "--embeddings", str(trained) + ".embeddings.txt",
                "--pairs", str(tmp_path / "empty.pairs")]) == 0
    assert capsys.readouterr() == ("", "")


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


def test_gradcheck_injected_fault_fails(capsys, monkeypatch):
    from conftest import double_every_gradient

    double_every_gradient(monkeypatch)
    code = run(["gradcheck", "--model", "arc1", "--seed", "2"])
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


@pytest.mark.parametrize("negatives", ["0", "-1"])
def test_training_without_negatives_is_config_error(synth_dir, tmp_path, negatives):
    proc = _run_cli(_train_args(synth_dir, tmp_path, "--train-negatives", negatives))
    _assert_exit_1(proc, "config error:")
    assert "negative" in proc.stderr
    assert not list(tmp_path.iterdir())  # no checkpoint, history or embeddings


@pytest.mark.parametrize("split", ["a/b/c", "120/-10/-10", "80/10", "80/10/10/0"])
def test_malformed_split_is_usage_error(tmp_path, split):
    out = tmp_path / "synth"
    proc = _run_cli(["gen-synth", "--out", str(out), "--pairs", "20", "--split", split])
    _assert_exit_1(proc, "usage error:")
    assert not out.exists()


def _per_pair_scorer(model, table, max_len):
    """The oracle: each pair's two sentences encoded and scored on their own."""
    from arcmatch.embeddings import encode_sentence

    def score(x, y):
        return model.score(encode_sentence(x, table, max_len),
                           encode_sentence(y, table, max_len))[0]

    return score


def _trained_scorer(trained):
    from arcmatch.checkpoint import load_checkpoint
    from arcmatch.embeddings import load_embeddings

    model, kv = load_checkpoint(trained)
    with open(str(trained) + ".embeddings.txt", encoding="utf-8") as fh:
        table = load_embeddings(fh)
    return _per_pair_scorer(model, table, int(kv.get("max_len", 16))), table


@pytest.mark.parametrize("negatives,neg_mode,seed", [("4", "random", "7"), ("9", "shuffle", "2")])
def test_eval_ranking_prints_the_per_pair_scorers_report(trained, synth_dir, capsys,
                                                         negatives, neg_mode, seed):
    from arcmatch.data import make_eval_instances
    from arcmatch.metrics import p_at_1
    from arcmatch.tensor import make_rng

    embeddings = str(trained) + ".embeddings.txt"
    assert run(["eval", "--checkpoint", str(trained), "--data", str(synth_dir / "test.pairs"),
                "--embeddings", embeddings, "--negatives", negatives,
                "--neg-mode", neg_mode, "--seed", seed]) == 0
    out = capsys.readouterr().out
    scorer, table = _trained_scorer(trained)
    with open(synth_dir / "test.pairs", encoding="utf-8") as fh:
        corpus = load_pairs(fh)
    instances = make_eval_instances(corpus, int(negatives), neg_mode, table,
                                    make_rng(int(seed)))
    report = p_at_1(scorer, instances)
    assert out == report.table() + "\n\n" + report.kv_lines() + "\n"


def test_negative_epochs_is_config_error_before_any_input_is_read(synth_dir, tmp_path):
    argv = _train_args(synth_dir, tmp_path, "--epochs", "-1")
    proc = _run_cli(argv)
    _assert_exit_1(proc, "config error:")
    assert "max_epochs" in proc.stderr
    assert not list(tmp_path.iterdir())  # no checkpoint, history or embeddings
    # validation comes first: a missing training file is not even opened
    argv[argv.index("--train") + 1] = str(tmp_path / "missing.pairs")
    _assert_exit_1(_run_cli(argv), "config error:")


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_non_finite_learning_rate_is_config_error(synth_dir, tmp_path, lr):
    proc = _run_cli(_train_args(synth_dir, tmp_path, "--lr", lr))
    _assert_exit_1(proc, "config error:")
    assert "learning_rate" in proc.stderr
    assert not list(tmp_path.iterdir())  # no checkpoint, history or embeddings


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_gen_synth_pairs_below_one_is_usage_error(tmp_path, pairs):
    out = tmp_path / "synth"
    proc = _run_cli(["gen-synth", "--out", str(out), "--pairs", pairs])
    _assert_exit_1(proc, "usage error:")
    assert "--pairs" in proc.stderr
    assert not out.exists()


def _with_byte(src, dst, offset, byte=b"\xff"):
    data = src.read_bytes()
    dst.write_bytes(data[:offset] + byte + data[offset + 1:])
    return dst


def test_checkpoint_header_that_is_not_utf8_is_data_error(tmp_path, capsys):
    fixture = Path(__file__).parent / "fixtures" / "arc2.ckpt"
    damaged = _with_byte(fixture, tmp_path / "arc2.ckpt", 20)
    code = run(["score", "--checkpoint", str(damaged), "--x", "t0w1 t0w2", "--y", "t0w1"])
    assert code == 2
    assert "data error:" in capsys.readouterr().err


def _nth_line_offset(path, lineno):
    """Byte offset of the second character of line lineno (1-based)."""
    lines = path.read_bytes().split(b"\n")
    return sum(len(line) + 1 for line in lines[:lineno - 1]) + 1


def test_embeddings_token_that_is_not_utf8_is_a_parse_error(trained, tmp_path, capsys):
    src = Path(str(trained) + ".embeddings.txt")
    damaged = _with_byte(src, tmp_path / "emb.txt", _nth_line_offset(src, 3))
    code = run(["score", "--checkpoint", str(trained), "--embeddings", str(damaged),
                "--x", "t0w1 t0w2", "--y", "t0w1"])
    assert code == 2
    assert "data error: line 3:" in capsys.readouterr().err


@pytest.mark.parametrize("vectors", ["--embeddings", "default"])
def test_pairs_file_that_is_not_utf8_is_a_parse_error(trained, synth_dir, tmp_path,
                                                      capsys, vectors):
    src = synth_dir / "test.pairs"
    damaged = _with_byte(src, tmp_path / "test.pairs", _nth_line_offset(src, 5))
    table = ([vectors, str(trained) + ".embeddings.txt"] if vectors == "--embeddings"
             else [])
    code = run(["score", "--checkpoint", str(trained), *table, "--pairs", str(damaged)])
    assert code == 2
    assert "data error: line 5:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "score"])
def test_embeddings_file_of_another_width_is_config_error(trained, synth_dir, tmp_path,
                                                          capsys, command):
    wide = tmp_path / "wide.txt"
    wide.write_text("2 5\nt0w1 1 2 3 4 5\nt0w2 5 4 3 2 1\n", encoding="utf-8")
    data = str(synth_dir / "test.pairs")
    argv = (["eval", "--data", data] if command == "eval" else ["score", "--pairs", data])
    assert run([*argv, "--checkpoint", str(trained), "--embeddings", str(wide)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"config error: --embeddings {wide} has 5-dimensional vectors; "
                       f"the checkpoint's embed_dim is 8\n")
    # the default table beside the checkpoint is named by its path alone
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(trained.read_bytes())
    wide.rename(str(ckpt) + ".embeddings.txt")
    assert run([*argv, "--checkpoint", str(ckpt)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"config error: {ckpt}.embeddings.txt has 5-dimensional vectors; "
                       f"the checkpoint's embed_dim is 8\n")


@pytest.mark.parametrize("flag", ["--x", "--y"])
def test_sentence_flag_that_is_not_utf8_is_a_data_error(trained, capsys, flag):
    sents = {"--x": "t0w1 t0w2", "--y": "t0w1"}
    sents[flag] += " t0\udcff"  # how Python decodes the byte 0xff in argv
    code = run(["score", "--checkpoint", str(trained),
                "--embeddings", str(trained) + ".embeddings.txt",
                "--x", sents["--x"], "--y", sents["--y"]])
    assert code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"data error: {flag} is not UTF-8 text\n"


def test_dropout_out_of_range_is_config_error(synth_dir, tmp_path, capsys):
    assert run(_train_args(synth_dir, tmp_path, "--dropout", "1.5")) == 1
    assert capsys.readouterr().err == "config error: dropout must be in [0, 1), got 1.5\n"
    assert not (tmp_path / "m.ckpt").exists()


def _labeled_and_triple_files(synth_dir, tmp_path):
    with open(synth_dir / "test.pairs", encoding="utf-8") as fh:
        pairs = load_pairs(fh).pairs[:6]
    labeled, triples = tmp_path / "labeled.tsv", tmp_path / "triples.tsv"
    labeled.write_text("".join(" ".join(x) + "\t" + " ".join(y) + f"\t{i % 2}\n"
                               for i, (x, y) in enumerate(pairs)), encoding="utf-8")
    triples.write_text("".join(" ".join(x) + "\t" + " ".join(y) + "\t" + " ".join(n) + "\n"
                               for (x, y), (_, n) in zip(pairs, pairs[1:])), encoding="utf-8")
    return {"labeled": labeled, "triple": triples}


@pytest.mark.parametrize("kind", ["labeled", "triple"])
@pytest.mark.parametrize("command", ["eval", "score"])
def test_three_column_file_given_as_pairs_is_a_parse_error(trained, synth_dir, tmp_path,
                                                           capsys, command, kind):
    path = _labeled_and_triple_files(synth_dir, tmp_path)[kind]
    argv = (["eval", "--data", str(path)] if command == "eval"
            else ["score", "--pairs", str(path)])
    code = run([*argv, "--checkpoint", str(trained),
                "--embeddings", str(trained) + ".embeddings.txt"])
    assert code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "data error: line 1: pair line has 3 columns, expected 2\n"


def test_embeddings_file_and_random_embeddings_are_exclusive(tmp_path, capsys):
    # train needs exactly one source; the paths are missing, and never read
    missing = str(tmp_path / "missing")
    base = ["train", "--model", "wordembed", "--train", missing, "--val", missing,
            "--out", str(tmp_path / "m.ckpt")]
    assert run([*base, "--embeddings", missing, "--random-embeddings"]) == 1
    assert "not allowed with argument --embeddings" in capsys.readouterr().err
    assert run(base) == 1
    assert ("one of the arguments --embeddings --random-embeddings is required"
            in capsys.readouterr().err)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command,flag", [
    ("train", "--embed-dim"), ("train", "--embed-seed"), ("eval", "--embed-seed"),
    ("score", "--embed-seed"), ("eval", "--vocab-from"), ("score", "--vocab-from"),
    ("eval", "--random-embeddings"), ("score", "--random-embeddings"), ("score", "--seed"),
])
def test_random_only_flag_next_to_embeddings_is_usage_error(tmp_path, capsys, command, flag):
    # every path is missing: the flags are refused before any input is read.
    # Of these, only train --embed-dim is an option: eval and score draw no
    # random vectors, and train draws its own from --seed
    missing = str(tmp_path / "missing")
    argv = {"train": ["train", "--model", "wordembed", "--train", missing, "--val", missing,
                      "--out", str(tmp_path / "m.ckpt")],
            "eval": ["eval", "--checkpoint", missing, "--data", missing],
            "score": ["score", "--checkpoint", missing, "--pairs", missing]}[command]
    value = {"--vocab-from": ["v.pairs"], "--random-embeddings": []}.get(flag, ["5"])
    assert run([*argv, "--embeddings", missing, flag, *value]) == 1
    if flag == "--embed-dim":
        assert capsys.readouterr().err == (f"usage error: {flag} goes with "
                                           f"--random-embeddings, not --embeddings\n")
    else:
        assert capsys.readouterr().err == ("usage error: unrecognized arguments: "
                                           + " ".join([flag, *value]) + "\n")
    assert not list(tmp_path.iterdir())


def _beside(ckpt, tokens, dim, seed):
    """ckpt's default table, as train would write it: random vectors of tokens."""
    from arcmatch.embeddings import random_embeddings, write_embeddings
    from arcmatch.tensor import make_rng

    write_embeddings(random_embeddings(tokens, dim, make_rng(seed)), str(ckpt) + ".embeddings.txt")
    return str(ckpt)


def _tokens(path):
    with open(path, encoding="utf-8") as fh:
        return {t for x, y in load_pairs(fh).pairs for t in x + y}


def test_closed_stdout_ends_score_without_a_traceback(tmp_path):
    fixture = tmp_path / "wordembed.ckpt"  # embed_dim 3
    fixture.write_bytes((Path(__file__).parent / "fixtures" / "wordembed.ckpt").read_bytes())
    _beside(fixture, ["t0w1", "t0w2"], 3, 0)
    pairs = tmp_path / "many.pairs"
    pairs.write_text("t0w1 t0w2\tt0w1\n" * 12000, encoding="utf-8")  # > a 64 KiB pipe
    src = os.path.dirname(os.path.dirname(arcmatch.__file__))
    with open(tmp_path / "stderr.txt", "w+b") as err:
        proc = subprocess.Popen([sys.executable, "-m", "arcmatch.cli", "score",
                                 "--checkpoint", str(fixture), "--pairs", str(pairs)],
                                stdout=subprocess.PIPE, stderr=err,
                                env={**os.environ, "PYTHONPATH": src})
        float(proc.stdout.readline())
        proc.stdout.close()
        assert proc.wait(timeout=120) == 1
        err.seek(0)
        stderr = err.read().decode()
    assert "Traceback" not in stderr
    assert stderr == ""


@pytest.mark.parametrize("line,message", [
    ("t0w1 t0w2\tt0w1\t2\n", "line 3: label must be 0 or 1, got '2'"),
    ("t0w1 t0w2\tt0w1\t \n", "line 3: label must be 0 or 1, got ''"),
    (" \tt0w1\t1\n", "line 3: labeled pair has an empty side"),
], ids=["label 2", "blank label", "empty x"])
def test_classify_file_with_a_bad_line_is_a_data_error(trained, tmp_path, capsys,
                                                      line, message):
    labeled = tmp_path / "labeled.tsv"
    labeled.write_text("t0w1\tt0w2\t1\n\n" + line + "t0w2\tt0w1\t0\n", encoding="utf-8")
    assert run(["eval", "--checkpoint", str(trained), "--data", str(labeled),
                "--embeddings", str(trained) + ".embeddings.txt",
                "--classify", "--threshold", "0.0"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"data error: {message}\n"


@pytest.mark.parametrize("command,extra,flag,why", [
    ("eval", ["--threshold", "0.5", "--dev", "dev.tsv"], "--threshold", "goes with --classify"),
    ("eval", ["--dev", "dev.tsv"], "--dev", "goes with --classify"),
    ("eval", ["--classify", "--threshold", "0.5", "--dev", "dev.tsv"], "--dev",
     "picks the threshold; not with --threshold"),
    ("score", ["--x", "a b", "--y", "c d"], "--x", "goes with one pair, not --pairs"),
    ("score", ["--y", "c d"], "--y", "goes with one pair, not --pairs"),
])
def test_flag_that_would_be_ignored_is_usage_error(tmp_path, capsys, command, extra, flag, why):
    # every path is missing: the flags are refused before any input is read
    missing = str(tmp_path / "missing")
    argv = {"eval": ["eval", "--checkpoint", missing, "--data", missing],
            "score": ["score", "--checkpoint", missing, "--pairs", missing]}[command]
    assert run([*argv, *extra]) == 1
    assert capsys.readouterr().err == f"usage error: {flag} {why}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("max_len", ["0", "-1"])
def test_max_len_below_one_is_usage_error(tmp_path, capsys, command, max_len):
    missing = str(tmp_path / "missing")
    argv = {"train": ["train", "--model", "wordembed", "--train", missing, "--val", missing,
                      "--out", str(tmp_path / "m.ckpt"), "--epochs", "0", "--random-embeddings"],
            "eval": ["eval", "--checkpoint", missing, "--data", missing]}[command]
    assert run([*argv, "--max-len", max_len]) == 1
    assert capsys.readouterr().err == (f"usage error: argument --max-len: "
                                       f"must be >= 1, got {max_len}\n")
    assert not list(tmp_path.iterdir())


def test_train_that_reaches_no_evaluation_keeps_what_it_learned(tmp_path, synth_dir, capsys):
    argv = ["train", "--model", "wordembed", "--train", str(synth_dir / "train.pairs"),
            "--val", str(synth_dir / "val.pairs"), "--random-embeddings",
            "--embed-dim", "8", "--hidden", "8", "--lr", "0.3", "--eval-every", "1000",
            "--quiet"]
    for epochs in ("0", "3"):
        assert run([*argv, "--epochs", epochs, "--out", str(tmp_path / epochs)]) == 0
    assert (tmp_path / "0").read_bytes() != (tmp_path / "3").read_bytes()
    history = (tmp_path / "3.history.tsv").read_text().splitlines()
    assert len(history) == 2 and history[1].startswith("3\t")
    assert "best val_p1" in capsys.readouterr().out


def _checkpoint_at_max_len_10(kind, path):
    from arcmatch.arc1 import build_arc1
    from arcmatch.arc2 import build_arc2
    from arcmatch.checkpoint import save_checkpoint
    from arcmatch.tensor import make_rng
    if kind == "arc1":
        model = build_arc1(8, 10, make_rng(0), windows=(3, 2), feature_maps=(4, 4), hidden=(8,))
    else:
        model = build_arc2(8, 10, make_rng(0), window1=3, maps1=4,
                           twod_layers=((2, 4), (2, 4)), hidden=(8,))
    save_checkpoint(path, model)
    return str(path)


@pytest.mark.parametrize("kind", ["arc1", "arc2"])
@pytest.mark.parametrize("max_len", ["6", "12"])
def test_eval_max_len_other_than_the_checkpoints_is_usage_error(tmp_path, synth_dir, capsys,
                                                                kind, max_len):
    # before, arc1 ended in a config error naming neither length, arc2 at 6 in
    # one about a conv window, and arc2 at 12 scored at a length it was not built for
    ckpt = _beside(_checkpoint_at_max_len_10(kind, tmp_path / "m.ckpt"),
                   _tokens(synth_dir / "test.pairs"), 8, 4)
    argv = ["eval", "--checkpoint", ckpt, "--seed", "4", "--data"]
    # the data file is missing: the lengths are compared before it is read
    assert run([*argv, str(tmp_path / "missing"), "--max-len", max_len]) == 1
    assert capsys.readouterr().err == (f"usage error: --max-len {max_len} does not match "
                                       f"the checkpoint's max_len 10\n")
    argv.append(str(synth_dir / "test.pairs"))
    assert run(argv) == 0
    default = capsys.readouterr().out
    assert run([*argv, "--max-len", "10"]) == 0
    assert capsys.readouterr().out == default


def test_eval_max_len_of_a_wordembed_checkpoint_sets_the_encoding_length(trained, synth_dir,
                                                                         capsys):
    argv = ["eval", "--checkpoint", str(trained), "--data", str(synth_dir / "test.pairs"),
            "--embeddings", str(trained) + ".embeddings.txt"]
    outs = []
    for max_len in ("3", "16"):
        assert run([*argv, "--max-len", max_len]) == 0
        outs.append(capsys.readouterr().out)
    assert run(argv) == 0
    assert capsys.readouterr().out == outs[1] != outs[0]


@pytest.mark.parametrize("flag", [("--negatives", "4"), ("--neg-mode", "random")])
def test_ranking_flag_next_to_classify_is_usage_error(tmp_path, capsys, flag):
    missing = str(tmp_path / "missing")
    assert run(["eval", "--checkpoint", missing, "--data", missing,
                "--classify", "--threshold", "0.5", *flag]) == 1
    assert capsys.readouterr().err == f"usage error: {flag[0]} goes with ranking, not --classify\n"
    assert not list(tmp_path.iterdir())


def test_eval_ranking_defaults_to_4_random_negatives(trained, synth_dir, capsys):
    argv = ["eval", "--checkpoint", str(trained), "--data", str(synth_dir / "test.pairs"),
            "--embeddings", str(trained) + ".embeddings.txt", "--seed", "5"]
    assert run([*argv, "--negatives", "4", "--neg-mode", "random"]) == 0
    explicit = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == explicit


@pytest.mark.parametrize("command,extra,message", [
    ("eval", ["--data", "DATA", "--classify"], "--classify needs --threshold or --dev FILE"),
    ("score", [], "need --pairs FILE or both --x and --y"),
    ("score", ["--x", "a b"], "need --pairs FILE or both --x and --y"),
])
def test_missing_flag_is_usage_error_before_the_checkpoint_is_read(tmp_path, capsys, command,
                                                                   extra, message):
    # before, the checkpoint was opened first: a missing one exited 2
    missing = str(tmp_path / "missing.ckpt")
    extra = [missing if arg == "DATA" else arg for arg in extra]
    assert run([command, "--checkpoint", missing, *extra]) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not list(tmp_path.iterdir())


def _labeled_file(synth_dir, path):
    with open(synth_dir / "test.pairs", encoding="utf-8") as fh:
        pairs = load_pairs(fh).pairs
    with open(path, "w", encoding="utf-8") as fh:
        for i, (x, y) in enumerate(pairs):
            fh.write(" ".join(x) + "\t" + " ".join(y) + f"\t{i % 3 == 0:d}\n")
    return pairs, [int(i % 3 == 0) for i in range(len(pairs))]


def test_eval_classify_prints_the_per_pair_scorers_report(trained, synth_dir, tmp_path,
                                                          capsys):
    from arcmatch.metrics import classify_eval, select_threshold

    pairs, labels = _labeled_file(synth_dir, tmp_path / "labeled.tsv")
    scorer, _ = _trained_scorer(trained)
    scores = [scorer(x, y) for x, y in pairs]
    argv = ["eval", "--checkpoint", str(trained), "--data", str(tmp_path / "labeled.tsv"),
            "--embeddings", str(trained) + ".embeddings.txt", "--classify"]
    for extra, threshold in ((["--threshold", "0.25"], 0.25),
                             (["--dev", str(tmp_path / "labeled.tsv")],
                              select_threshold(scores, labels))):
        assert run([*argv, *extra]) == 0
        report = classify_eval(scores, labels, threshold)
        assert capsys.readouterr().out == report.table() + "\n\n" + report.kv_lines() + "\n"


def test_score_pairs_prints_the_per_pair_scores(trained, synth_dir, tmp_path, capsys):
    # train.pairs twice: more than one stacked group (128 wordembed pairs)
    (tmp_path / "p.pairs").write_text(2 * (synth_dir / "train.pairs").read_text())
    assert run(["score", "--checkpoint", str(trained),
                "--embeddings", str(trained) + ".embeddings.txt",
                "--pairs", str(tmp_path / "p.pairs")]) == 0
    scorer, _ = _trained_scorer(trained)
    with open(tmp_path / "p.pairs", encoding="utf-8") as fh:
        pairs = load_pairs(fh).pairs
    assert len(pairs) > 128
    assert capsys.readouterr().out == "".join(f"{scorer(x, y):.6f}\n" for x, y in pairs)


def test_eval_and_score_report_truncation_on_stderr(tmp_path, capsys):
    # three pairs, two of whose sentences are longer than the checkpoint's max_len 10
    ckpt = _checkpoint_at_max_len_10("arc1", tmp_path / "m.ckpt")
    long = " ".join(["t0w1"] * 12)
    rows = [(long, "t0w2 t0w3"), ("t0w1", " ".join(["t0w2"] * 11)), ("t0w1 t0w2", "t0w3")]
    (tmp_path / "p.pairs").write_text("".join(f"{x}\t{y}\n" for x, y in rows))
    (tmp_path / "l.tsv").write_text("".join(f"{x}\t{y}\t1\n" for x, y in rows))
    common = ["--checkpoint", _beside(ckpt, _tokens(tmp_path / "p.pairs"), 8, 0)]
    note = "note: 2/6 sentences truncated to max_len 10\n"
    assert run(["score", *common, "--pairs", str(tmp_path / "p.pairs")]) == 0
    out = capsys.readouterr()
    assert len(out.out.splitlines()) == 3 and out.err == note
    assert run(["score", *common, "--x", long, "--y", "t0w2"]) == 0
    assert capsys.readouterr().err == "note: 1/2 sentences truncated to max_len 10\n"
    assert run(["eval", *common, "--data", str(tmp_path / "l.tsv"), "--classify",
                "--threshold", "0"]) == 0
    out = capsys.readouterr()
    assert out.out.startswith("metric") and out.err == note
    # two instances of x, the true y and the other pair's y: the long x once,
    # and the long y as truth once and as a negative once
    (tmp_path / "r.pairs").write_text("".join(f"{x}\t{y}\n" for x, y in rows[:2]))
    assert run(["eval", *common, "--data", str(tmp_path / "r.pairs"), "--negatives", "1"]) == 0
    out = capsys.readouterr()
    assert out.out.startswith("metric")
    assert out.err == "note: 3/6 sentences truncated to max_len 10\n"
    assert run(["score", *common, "--x", "t0w1", "--y", "t0w2"]) == 0
    assert capsys.readouterr().err == ""


def _with_unshuffleable_ys(src, path):
    """src's pairs plus two whose y has no second order of its tokens."""
    path.write_text(src.read_text() + "t0w1 t0w2\tr0w1\nt0w3\tr0w2 r0w2\n")
    return path


@pytest.mark.parametrize("neg_mode", ["hard", "shuffle"])
def test_eval_reports_sampling_fallbacks_and_skips_on_stderr(trained, synth_dir, tmp_path,
                                                            capsys, neg_mode):
    from arcmatch.data import RunStats, make_eval_instances
    from arcmatch.embeddings import load_embeddings
    from arcmatch.tensor import make_rng

    data = _with_unshuffleable_ys(synth_dir / "test.pairs", tmp_path / "p.pairs")
    embeddings = str(trained) + ".embeddings.txt"
    argv = ["eval", "--checkpoint", str(trained), "--data", str(data),
            "--embeddings", embeddings, "--negatives", "6", "--seed", "5"]
    assert run(argv) == 0
    plain = capsys.readouterr()
    assert run([*argv, "--neg-mode", neg_mode]) == 0
    out = capsys.readouterr()
    assert plain.err == "" and out.out.startswith("metric")
    with open(embeddings, encoding="utf-8") as fh:
        table = load_embeddings(fh)
    with open(data, encoding="utf-8") as fh:
        corpus = load_pairs(fh)
    stats = RunStats()
    make_eval_instances(corpus, 6, neg_mode, table, make_rng(5), stats)
    if neg_mode == "hard":
        assert 0 < stats.hard_negative_fallbacks <= stats.hard_negatives
        assert out.err == (f"note: {stats.hard_negative_fallbacks}/{stats.hard_negatives} "
                           f"hard negatives fell back to the closest to 0.75\n")
    else:
        assert stats.shuffle_skipped == 2
        assert out.err == "note: 2 shuffle negatives skipped: y+ has no new order of its tokens\n"


def test_train_reports_shuffle_skips_on_stderr_and_keeps_stdout(synth_dir, tmp_path, capsys):
    from arcmatch.data import RunStats, make_eval_instances, sample_negatives
    from arcmatch.tensor import make_rng

    argv = _train_args(synth_dir, tmp_path, "--neg-mode", "shuffle", "--epochs", "1",
                       "--train-negatives", "2", "--seed", "4")
    train_file = synth_dir / "train.pairs"
    assert run(argv) == 0
    plain = capsys.readouterr()
    argv[argv.index("--train") + 1] = str(_with_unshuffleable_ys(train_file,
                                                                 tmp_path / "t.pairs"))
    assert run(argv) == 0
    out = capsys.readouterr()
    assert plain.err == "" and "note" not in out.out
    # train draws the training triples, then the validation instances
    stats, rng = RunStats(), make_rng(4)
    with open(tmp_path / "t.pairs", encoding="utf-8") as fh:
        sample_negatives(load_pairs(fh), 2, "shuffle", None, rng, stats)
    with open(synth_dir / "val.pairs", encoding="utf-8") as fh:
        make_eval_instances(load_pairs(fh), 4, "shuffle", None, rng, stats)
    assert stats.shuffle_skipped == 4
    assert out.err == "note: 4 shuffle negatives skipped: y+ has no new order of its tokens\n"


def test_train_reports_truncation_on_stderr_not_stdout(synth_dir, tmp_path, capsys):
    from arcmatch.data import (RunStats, encode_instances, encode_triples,
                               make_eval_instances, sample_negatives)
    from arcmatch.embeddings import random_embeddings
    from arcmatch.tensor import make_rng

    argv = _train_args(synth_dir, tmp_path, "--epochs", "1", "--train-negatives", "2",
                       "--seed", "4")
    argv[argv.index("--max-len") + 1] = "9"
    argv.remove("--quiet")
    assert run(argv) == 0
    out = capsys.readouterr()
    assert "note:" not in out.out
    assert out.out.endswith(f"checkpoint written to {tmp_path / 'm.ckpt'}\n")
    # train draws the training triples, then the validation instances
    stats, rng = RunStats(), make_rng(4)
    table = random_embeddings(["t"], 8, make_rng(4))  # the counts read no vectors
    with open(synth_dir / "train.pairs", encoding="utf-8") as fh:
        encode_triples(sample_negatives(load_pairs(fh), 2, "random", None, rng, stats),
                       table, 9, stats)
    with open(synth_dir / "val.pairs", encoding="utf-8") as fh:
        encode_instances(make_eval_instances(load_pairs(fh), 4, "random", None, rng, stats),
                         table, 9, stats)
    assert 0 < stats.truncated < stats.sentences
    assert out.err == (f"note: {stats.truncated}/{stats.sentences} sentences truncated "
                       f"to --max-len 9\n")


@pytest.mark.parametrize("model,flag", [
    ("arc2", ["--tie-weights"]), ("senna", ["--tie-weights"]), ("wordembed", ["--tie-weights"]),
    ("arc1", ["--twod", "2:8"]), ("senna", ["--twod", "2:8"]), ("senmlp", ["--twod", "2:8"]),
    ("wordembed", ["--window", "5"]), ("senmlp", ["--window", "5"]),
    ("wordembed", ["--maps", "3,3"]), ("senmlp", ["--maps", "3,3"]),
])
def test_model_flag_the_kind_does_not_read_is_usage_error(tmp_path, capsys, model, flag):
    missing = str(tmp_path / "missing")
    argv = ["train", "--model", model, "--train", missing, "--val", missing,
            "--out", str(tmp_path / "m.ckpt"), "--random-embeddings"]
    assert run([*argv, *flag]) == 1
    assert capsys.readouterr().err == f"usage error: {flag[0]} is not read by --model {model}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("model,flags", [
    ("arc1", ["--window", "3", "--maps", "16,16", "--tie-weights"]),
    ("arc2", ["--window", "3", "--maps", "16", "--twod", "2:16,2:16"]),
    ("senna", ["--window", "3", "--maps", "16"]),
])
def test_model_flags_the_kind_reads_pass_and_default_to_todays_values(synth_dir, tmp_path,
                                                                      model, flags):
    argv = ["train", "--model", model, "--train", str(synth_dir / "train.pairs"),
            "--val", str(synth_dir / "val.pairs"), "--random-embeddings", "--embed-dim", "4",
            "--max-len", "12", "--hidden", "4", "--epochs", "0", "--quiet"]
    if model == "arc1":  # --tie-weights is no default: tied and untied both build
        assert run([*argv, "--out", str(tmp_path / "tied"), *flags]) == 0
        flags = flags[:-1]
    assert run([*argv, "--out", str(tmp_path / "flags"), *flags]) == 0
    assert run([*argv, "--out", str(tmp_path / "none")]) == 0
    assert (tmp_path / "flags").read_bytes() == (tmp_path / "none").read_bytes()


@pytest.mark.parametrize("command", ["gen-synth", "train", "eval", "gradcheck"])
def test_negative_seed_is_usage_error(tmp_path, capsys, command):
    # every path is missing: the seed is refused before any input is read
    missing = str(tmp_path / "missing")
    argv = {"gen-synth": ["gen-synth", "--out", str(tmp_path / "synth")],
            "train": ["train", "--model", "wordembed", "--train", missing, "--val", missing,
                      "--out", str(tmp_path / "m.ckpt"), "--random-embeddings"],
            "eval": ["eval", "--checkpoint", missing, "--data", missing],
            "gradcheck": ["gradcheck", "--model", "wordembed"]}[command]
    assert run([*argv, "--seed", "-1"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "usage error: argument --seed: must be >= 0, got -1\n"
    assert not list(tmp_path.iterdir())


def test_nan_threshold_is_usage_error_and_infinite_ones_run(trained, synth_dir, tmp_path,
                                                            capsys):
    missing = str(tmp_path / "missing")
    assert run(["eval", "--checkpoint", missing, "--data", missing, "--classify",
                "--threshold", "nan"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "usage error: argument --threshold: must be a number, got nan\n"
    assert not list(tmp_path.iterdir())
    # every score is below inf and above -inf: all pairs predicted 0, then 1
    _labeled_file(synth_dir, tmp_path / "labeled.tsv")
    argv = ["eval", "--checkpoint", str(trained), "--data", str(tmp_path / "labeled.tsv"),
            "--classify"]
    for threshold in ("inf", "-inf"):
        assert run([*argv, f"--threshold={threshold}"]) == 0
        assert f"threshold={float(threshold)}" in capsys.readouterr().out


@pytest.mark.parametrize("model,flag,value,err", [
    ("wordembed", "--embed-dim", "0", "argument --embed-dim: must be >= 1, got 0"),
    ("wordembed", "--embed-dim", "-2", "argument --embed-dim: must be >= 1, got -2"),
    ("wordembed", "--hidden", "0", "argument --hidden: widths must be >= 1, got 0"),
    ("arc2", "--hidden", "8,-1", "argument --hidden: widths must be >= 1, got 8,-1"),
    ("arc2", "--maps", "0", "argument --maps: widths must be >= 1, got 0"),
    ("arc1", "--maps", "16,0", "argument --maps: widths must be >= 1, got 16,0"),
    ("arc1", "--maps", "16", "--maps takes 2 counts for --model arc1, got 1"),
    ("arc1", "--maps", "16,16,16", "--maps takes 2 counts for --model arc1, got 3"),
    ("arc1", "--maps", "", "--maps takes 2 counts for --model arc1, got 0"),
    ("arc2", "--maps", "4,99", "--maps takes 1 count for --model arc2, got 2"),
    ("arc2", "--maps", "", "--maps takes 1 count for --model arc2, got 0"),
    ("senna", "--maps", "4,4", "--maps takes 1 count for --model senna, got 2"),
    ("arc2", "--window", "0", "argument --window: must be >= 1, got 0"),
    ("arc2", "--twod", "2:0", "argument --twod: windows and maps must be >= 1, got 2:0"),
    ("arc2", "--twod", "2:4,0:4",
     "argument --twod: windows and maps must be >= 1, got 2:4,0:4"),
])
def test_train_width_below_one_or_arc1_maps_count_is_usage_error(tmp_path, capsys, model,
                                                                  flag, value, err):
    # every path is missing: the flag is refused before any input is read
    missing = str(tmp_path / "missing")
    argv = ["train", "--model", model, "--train", missing, "--val", missing,
            "--out", str(tmp_path / "m.ckpt"), "--random-embeddings"]
    assert run([*argv, flag, value]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"usage error: {err}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("model,flag,value,err", [
    ("arc1", "--window", "1", "every window must be >= 2, got (1, 2)"),
    ("senna", "--window", "1", "every window must be >= 2, got (1,)"),
    ("arc2", "--twod", "1:4", "2D layer 0: window 1 must be >= 2"),
    ("wordembed", "--dropout", "1.5", "dropout must be in [0, 1), got 1.5"),
])
def test_train_flag_only_the_builder_refuses_is_config_error_before_any_input_is_read(
        tmp_path, capsys, model, flag, value, err):
    # train builds its model before it reads --train and --val
    missing = str(tmp_path / "missing")
    argv = ["train", "--model", model, "--train", missing, "--val", missing,
            "--out", str(tmp_path / "m.ckpt"), "--random-embeddings"]
    assert run([*argv, flag, value]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"config error: {err}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("line", [b"embed_dim=0", b"hidden=0", b"hidden=-3",
                                  b"activation=tanh"])
def test_checkpoint_header_with_a_width_below_one_or_an_unknown_activation_is_data_error(
        trained, tmp_path, capsys, line):
    lines = trained.read_bytes().split(b"\n")
    key = line.split(b"=")[0] + b"="
    lines[next(i for i, text in enumerate(lines) if text.startswith(key))] = line
    damaged = tmp_path / "damaged.ckpt"
    damaged.write_bytes(b"\n".join(lines))
    assert run(["score", "--checkpoint", str(damaged), "--embeddings",
                str(trained) + ".embeddings.txt", "--x", "t0w1 t0w2", "--y", "t0w1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("data error: config describes an invalid wordembed model: ")


def test_empty_hidden_builds_a_head_with_no_hidden_layer(synth_dir, tmp_path):
    from arcmatch.checkpoint import load_checkpoint

    argv = _train_args(synth_dir, tmp_path, "--epochs", "0")
    argv[argv.index("--hidden") + 1] = ""
    assert run(argv) == 0
    model, kv = load_checkpoint(str(tmp_path / "m.ckpt"))
    assert kv["hidden"] == "" and not model.head.hidden_widths


def test_option_inventory():
    # every option string but --help; a flag added or dropped edits this list
    from arcmatch.cli import build_parser

    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    options = {name: [o for a in sub._actions for o in a.option_strings
                      if o not in ("-h", "--help")]
               for name, sub in subparsers.choices.items()}
    assert options == {
        "gen-synth": ["--seed", "--out", "--pairs", "--vocab-size", "--topics", "--len-min",
                      "--len-max", "--split"],
        "train": ["--seed", "--model", "--train", "--val", "--out", "--embeddings",
                  "--random-embeddings", "--embed-dim", "--max-len", "--window", "--maps",
                  "--twod", "--hidden", "--activation", "--tie-weights", "--dropout", "--lr",
                  "--batch-size", "--epochs", "--patience", "--eval-every", "--neg-mode",
                  "--train-negatives", "--val-negatives", "--finetune-embeddings", "--quiet"],
        "eval": ["--seed", "--checkpoint", "--data", "--embeddings", "--max-len", "--negatives",
                 "--neg-mode", "--classify", "--threshold", "--dev"],
        "score": ["--checkpoint", "--embeddings", "--x", "--y", "--pairs"],
        "gradcheck": ["--seed", "--model"],
    }
    assert sum(map(len, options.values())) == 51


@pytest.fixture(scope="module")
def finetuned(tmp_path_factory, synth_dir):
    ckpt = tmp_path_factory.mktemp("cli-finetune") / "model.ckpt"
    assert run(["train", "--model", "wordembed", "--train", str(synth_dir / "train.pairs"),
                "--val", str(synth_dir / "val.pairs"), "--out", str(ckpt),
                "--random-embeddings", "--embed-dim", "8", "--max-len", "12",
                "--train-negatives", "2", "--epochs", "2", "--eval-every", "3",
                "--batch-size", "16", "--hidden", "8", "--finetune-embeddings",
                "--seed", "1", "--quiet"]) == 0
    return ckpt


def test_eval_and_score_read_the_table_train_wrote_by_default(finetuned, synth_dir, tmp_path,
                                                               capsys):
    _labeled_file(synth_dir, tmp_path / "labeled.tsv")
    data = str(synth_dir / "test.pairs")
    for argv in (["eval", "--data", data, "--seed", "3"],
                 ["eval", "--data", str(tmp_path / "labeled.tsv"), "--classify", "--dev",
                  str(tmp_path / "labeled.tsv")],
                 ["score", "--pairs", data]):
        argv = [*argv, "--checkpoint", str(finetuned)]
        assert run([*argv, "--embeddings", str(finetuned) + ".embeddings.txt"]) == 0
        given = capsys.readouterr()
        assert run(argv) == 0
        default = capsys.readouterr()
        assert given.out and (default.out, default.err) == (given.out, given.err)


def test_missing_default_table_is_a_data_error_naming_it(trained, synth_dir, tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(trained.read_bytes())
    for argv in (["eval", "--data", str(synth_dir / "test.pairs")],
                 ["score", "--x", "t0w1 t0w2", "--y", "t0w1"]):
        assert run([*argv, "--checkpoint", str(ckpt)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("data error: ")
        assert f"{ckpt}.embeddings.txt" in out.err


def test_random_embeddings_cover_the_train_and_val_tokens_drawn_from_seed(synth_dir, tmp_path):
    from arcmatch.embeddings import random_embeddings, write_embeddings
    from arcmatch.tensor import make_rng

    argv = _train_args(synth_dir, tmp_path, "--epochs", "0", "--seed", "6")
    assert run(argv) == 0
    tokens = _tokens(synth_dir / "train.pairs") | _tokens(synth_dir / "val.pairs")
    write_embeddings(random_embeddings(tokens, 8, make_rng(6)), str(tmp_path / "expected.txt"))
    assert ((tmp_path / "m.ckpt.embeddings.txt").read_bytes()
            == (tmp_path / "expected.txt").read_bytes())
