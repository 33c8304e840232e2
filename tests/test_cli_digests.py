"""scripts/cli_digests.py runs the CLI end to end on a tiny gen-synth
corpus; two runs in two processes print the same digests, so every file
and stream the CLI writes is bitwise deterministic."""

import os
import subprocess
import sys

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "cli_digests.py")


def _digests(outdir):
    proc = subprocess.run([sys.executable, SCRIPT, str(outdir)], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_two_runs_of_the_cli_write_the_same_bytes(tmp_path):
    first, second = _digests(tmp_path / "a"), _digests(tmp_path / "b")
    assert first == second
    names = {line.split("  ", 1)[1] for line in first}
    for kind in ("arc1", "arc2", "wordembed", "senmlp", "senna", "finetune"):
        assert {f"{kind}.ckpt", f"{kind}.ckpt.embeddings.txt",
                f"{kind}.ckpt.history.tsv"} <= names
    for run in ("eval-random", "eval-hard", "eval-shuffle", "eval-classify",
                "score-pairs", "score-xy"):
        assert {f"{run}.stdout", f"{run}.stderr", f"{run}.exit"} <= names


def test_a_directory_that_is_not_empty_is_refused(tmp_path):
    (tmp_path / "left.txt").write_text("x")
    proc = subprocess.run([sys.executable, SCRIPT, str(tmp_path)], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == f"{tmp_path} is not empty\n"
    assert proc.stdout == ""
