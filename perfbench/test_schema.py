"""Schema smoke test for the benchmark; it never gates on speed.

A very short run of each mode must print, as its last line, every metric
named in BENCHMARK.json with its unit, and before it a report line with
the environment block and the sample count of each end-to-end metric.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
ENV_KEYS = {"workload", "seed", "python", "numpy", "blas", "nproc",
            "git_commit", "src_sha256"}


def _run(cwd, workload, trace):
    cmd = [sys.executable if c == "python3" else c for c in SPEC["command"]]
    return subprocess.run(
        [*cmd, "--workload", workload, "--seed", "7", "--seconds", "0.1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


# spans that must have run in a traced run of each workload
RUNS_ON = {
    "train": ("training.sgd_step", "arc2.Arc2Model.backward", "arc1.Arc1Model.score",
              "conv_sentence.encode_backward", "baselines.SennaModel.score",
              "mlp.head_backward", "checkpoint.save_checkpoint", "data.encode_triples"),
    "arc2-rank": ("arc2.Arc2Model.score", "metrics.p_at_1", "embeddings.load_embeddings",
                  "checkpoint.load_checkpoint", "checkpoint.fnv1a64"),
}


@pytest.mark.parametrize("workload,trace", [("arc2-rank", 0), ("arc2-rank", 1),
                                            ("train", 1)])
def test_short_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)

    assert lines[-2].startswith("report ")
    report = json.loads(lines[-2][len("report "):])
    assert ENV_KEYS <= set(report["env"])
    assert report["env"]["seed"] == 7 and report["env"]["workload"] == workload
    assert report["env"]["blas"]["threads_pinned"] == 1
    e2e = report["end_to_end"]
    assert {m["name"] for m in SPEC["end_to_end"]} == set(e2e)
    assert all(m["samples"] >= 1 for m in e2e.values())
    if not trace:  # an untraced run leaves at least 10 samples beyond its p90
        assert e2e["op_ms_p90"]["samples"] >= 100
    else:
        assert report["bases"]["traced_passes"] >= 1
        spans = report["bases"]["spans"]
        assert all(spans[name]["calls"] > 0 for name in RUNS_ON[workload])


def test_workload_names_match_the_benchmark():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    try:
        import workloads
    finally:
        sys.path.remove(HERE)
        sys.path.remove(os.path.join(ROOT, "src"))
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "arc2-rank", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
