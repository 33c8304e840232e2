"""Digests of the arcmatch CLI's outputs on a small gen-synth corpus.

    python scripts/cli_digests.py OUTDIR

Runs, inside OUTDIR (created if missing; it must be empty):
gen-synth; train for every model kind, with a --max-len that truncates,
and once more with --finetune-embeddings --dropout 0.3; eval with random,
hard and shuffle negatives, and eval --classify --dev; score --pairs and
score --x/--y. Prints one `sha256 name` line per file written and per
run's stdout, stderr and exit code, sorted by name. Every path is
relative to OUTDIR, so the digests do not depend on where it is: two
trees whose CLI behaves alike print the same lines, and `diff` of two
runs' output checks a change for byte identity. Exits 1 if any run
exited other than 0.
"""

import contextlib
import hashlib
import io
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from arcmatch.cli import main  # noqa: E402

TRAIN = ["--train", "synth/train.pairs", "--val", "synth/val.pairs", "--random-embeddings",
         "--embed-dim", "6", "--max-len", "8", "--hidden", "6", "--epochs", "2",
         "--batch-size", "16", "--eval-every", "5", "--train-negatives", "2",
         "--val-negatives", "2", "--seed", "1"]

RUNS = {
    "gen-synth": ["gen-synth", "--out", "synth", "--pairs", "200", "--vocab-size", "150",
                  "--topics", "5", "--len-min", "5", "--len-max", "12", "--seed", "3"],
    "train-arc1": ["train", "--model", "arc1", "--out", "arc1.ckpt", "--maps", "4,4", *TRAIN],
    "train-arc2": ["train", "--model", "arc2", "--out", "arc2.ckpt", "--maps", "4",
                   "--twod", "2:4", "--neg-mode", "hard", *TRAIN],
    "train-wordembed": ["train", "--model", "wordembed", "--out", "wordembed.ckpt", *TRAIN],
    "train-senmlp": ["train", "--model", "senmlp", "--out", "senmlp.ckpt", *TRAIN],
    "train-senna": ["train", "--model", "senna", "--out", "senna.ckpt", "--maps", "4",
                    "--neg-mode", "shuffle", *TRAIN],
    "train-finetune": ["train", "--model", "arc1", "--out", "finetune.ckpt", "--maps", "4,4",
                       "--tie-weights", "--finetune-embeddings", "--dropout", "0.3", *TRAIN],
    "eval-random": ["eval", "--checkpoint", "arc2.ckpt", "--data", "synth/test.pairs",
                    "--neg-mode", "random", "--seed", "2"],
    "eval-hard": ["eval", "--checkpoint", "arc1.ckpt", "--data", "synth/test.pairs",
                  "--neg-mode", "hard", "--seed", "2"],
    "eval-shuffle": ["eval", "--checkpoint", "finetune.ckpt", "--data", "synth/test.pairs",
                     "--neg-mode", "shuffle", "--seed", "2"],
    "eval-classify": ["eval", "--checkpoint", "senmlp.ckpt", "--data", "labeled.tsv",
                      "--classify", "--dev", "labeled.tsv"],
    "score-pairs": ["score", "--checkpoint", "senna.ckpt", "--pairs", "synth/test.pairs"],
    "score-xy": ["score", "--checkpoint", "wordembed.ckpt", "--x", "t0w1 t0w2 t1w3",
                 "--y", "t0w4 t2w5"],
}


def write_labeled(pairs_path: str, out_path: str) -> None:
    """Each pair labelled 1, then its x against the next pair's y labelled 0."""
    with open(pairs_path, encoding="utf-8") as fh:
        pairs = [line.rstrip("\n").split("\t") for line in fh if line.strip()]
    with open(out_path, "w", encoding="utf-8") as fh:
        for (x, y), (_, other) in zip(pairs, pairs[1:] + pairs[:1]):
            fh.write(f"{x}\t{y}\t1\n{x}\t{other}\t0\n")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main_digests(outdir: str) -> int:
    os.makedirs(outdir, exist_ok=True)
    if os.listdir(outdir):
        sys.exit(f"{outdir} is not empty")
    os.chdir(outdir)
    digests, failed = {}, False
    for name, argv in RUNS.items():
        if name == "eval-classify":
            write_labeled("synth/test.pairs", "labeled.tsv")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        failed |= code != 0
        for stream, text in (("stdout", out.getvalue()), ("stderr", err.getvalue()),
                             ("exit", str(code))):
            digests[f"{name}.{stream}"] = sha256(text.encode("utf-8"))
    for root, _, files in os.walk("."):
        for file in files:
            path = os.path.relpath(os.path.join(root, file))
            with open(path, "rb") as fh:
                digests[path] = sha256(fh.read())
    for name in sorted(digests):
        print(f"{digests[name]}  {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main_digests(sys.argv[1]))
