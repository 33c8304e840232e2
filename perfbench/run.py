"""arcmatch benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; arcmatch is imported from src/ and
the loop oracles from tests/reference.py. Inputs are generated from --seed
into .perfbench_work/ under the checkout, which is removed at exit.

With --trace 0 the last stdout line is the result with every end-to-end
metric; with --trace 1 it carries every per-layer metric, from passes that
alternate with untraced ones. The line before it ("report ...") holds the
environment block, sample counts and the raw counts behind every ratio.
BLAS is pinned to one thread before numpy loads.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import calibration  # noqa: E402  (perfbench/ is the script's directory)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(ROOT, "tests", "reference.py")

SETUP_MIN_REPEATS = 3  # setup_s is the median of at least this many set-ups,
SETUP_MIN_S = 1.0      # repeated until they took this long in total
SETUP_TICKS = 3        # reference ticks before and after each set-up
MIN_OP_SAMPLES = 100   # latency samples needed so that p90 has >= 10 beyond it


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_info():
    """BLAS library from numpy's build config, and its live thread count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                get_threads = getattr(handle, symbol)
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                threads = get_threads()
                break
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads_pinned": BLAS_THREADS, "threads_reported": threads}


def git_commit():
    """HEAD from .git without running git; None outside a repository."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="ascii") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose, encoding="ascii") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def source_digest():
    """sha256 over src/ (paths and bytes), naming the code when git cannot."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment(args, arcmatch):
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas_info(),
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(), "src_sha256": source_digest(),
        "arcmatch_file": os.path.relpath(arcmatch.__file__, ROOT),
    }


def quantile(values, q):
    """Linear-interpolation quantile of a non-empty sample."""
    return float(np.quantile(np.asarray(values, dtype=float), q))


def run(args, wl, ref, tracer_cls):
    kinds = wl.TRAIN_WORKLOADS.get(args.workload)
    tracer = tracer_cls()
    trace_ctx = tracer.installed if args.trace else contextlib.nullcontext
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        clock = {"start": time.perf_counter()}
        inputs = wl.prepare(args.workload, args.seed, work)
        clock["prepared"] = time.perf_counter()
        ops = wl.Ops()
        setup_s = []
        ctx = None
        with trace_ctx():
            while len(setup_s) < SETUP_MIN_REPEATS or sum(s[1] for s in setup_s) < SETUP_MIN_S:
                ctx = None  # free the previous copy before building the next
                ticks = [calibration.tick() for _ in range(SETUP_TICKS)]
                start = time.perf_counter()
                ctx = (wl.setup_train(inputs, kinds) if kinds
                       else wl.setup_rank(inputs))
                elapsed = time.perf_counter() - start
                ticks += [calibration.tick() for _ in range(SETUP_TICKS)]
                setup_s.append((1, elapsed, statistics.median(ticks)))

        def one_pass(traced):
            with trace_ctx() if traced else contextlib.nullcontext():
                if kinds:
                    out = wl.train_pass(ctx, ops, tracer)
                else:
                    out = wl.rank_pass(ctx, ops, tracer,
                                       wrap=tracer.wrap if traced else None)
            out.traced = traced
            return out

        # The first pass is the reference for the bitwise checks; it is
        # measured like the others.
        clock["set_up"] = time.perf_counter()
        passes = []
        deadline = time.perf_counter() + args.seconds
        while True:
            out = one_pass(bool(args.trace) and len(passes) % 2 == 1)
            wl.count_pass(out, passes[0] if passes else out, ops)
            if passes:
                # only the reference pass's scores are compared against again;
                # keeping every pass's would tie peak_rss_mb to the pass count
                for rec in out.models:
                    rec.eval_scores.clear()
                    rec.scores.clear()
            passes.append(out)
            # a traced run needs one pass of each kind; an untraced one needs
            # enough latency samples for its p90
            enough = (len(passes) >= 2 if args.trace
                      else sum(len(p.rounds) for p in passes) >= MIN_OP_SAMPLES)
            if enough and time.perf_counter() >= deadline:
                break
        clock["measured"] = time.perf_counter()
        # The loop oracles re-score test pairs with the models as the passes
        # left them (every pass ends in the same state).
        wl.oracle_check(ref, ctx, ops)
        if kinds:
            tracer.phase = "save"
            with trace_ctx():
                wl.save_and_reload(ctx, work, ops)
        clock["end"] = time.perf_counter()
        names = list(clock)
        phases = {f"{a}->{b}": clock[b] - clock[a] for a, b in zip(names, names[1:])}
        return setup_s, passes, ops, tracer, phases
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))


def end_to_end(wl, setup_s, passes, scale=True):
    """End-to-end metrics over the untraced passes: (value, unit, samples).

    Times are scaled to the reference machine speed (calibration.py): each
    sample of a pass by the speed over the ticks of the samples around it,
    each set-up by the speed over its own ticks. scale=False gives the raw
    figures. Rates are total items over total time.
    """
    def times(samples):
        return calibration.scaled(samples) if scale else [s[:2] for s in samples]

    plain = [p for p in passes if not p.traced]
    rounds = [r for p in plain for r in times(p.rounds)]
    slices = [s for p in plain for s in times(p.slices)]
    op_ms = [s[1] * 1e3 for s in rounds]
    setups = [s[1] * (calibration.speed([s[2]]) if scale else 1.0) for s in setup_s]
    reference = passes[0].models
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "items_per_s": (wl.rate(rounds), "1/s", len(rounds)),
        "op_ms_p50": (quantile(op_ms, 0.5), "ms", len(op_ms)),
        "op_ms_p90": (quantile(op_ms, 0.9), "ms", len(op_ms)),
        "score_pairs_per_s": (wl.rate(slices), "1/s", len(slices)),
        "final_loss": (statistics.fmean(r.final_loss for r in reference), "hinge",
                       sum(r.loss_terms for r in reference)),
        "peak_rss_mb": (rss_kib * 1024 / 1e6, "MB", 1),
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "arcmatch", "__init__.py")):
        print(f"perfbench: no arcmatch sources under {SRC}", file=sys.stderr)
        return 2
    if not os.path.isfile(REFERENCE):
        print(f"perfbench: loop oracles missing: {REFERENCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import arcmatch
    import layers
    import workloads as wl
    from tracer import Tracer

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    spec = importlib.util.spec_from_file_location("arcmatch_reference", REFERENCE)
    ref = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ref)

    env = environment(args, arcmatch)
    setup_s, passes, ops, tracer, phases = run(args, wl, ref, Tracer)
    e2e = end_to_end(wl, setup_s, passes)
    plain = [p for p in passes if not p.traced]
    ticks = [s[2] for p in plain for s in p.rounds + p.slices]
    triples = {}
    for rec in (r for p in plain for r in p.models if r.losses):
        n, secs = triples.get(rec.kind, (0, 0.0))
        triples[rec.kind] = (n + len(rec.losses) * wl.SGD.batch_size, secs + rec.sgd_s)
    report = {"env": env, "failures": ops.messages,
              "machine_speed": calibration.speed(ticks),
              "triples_per_s_by_model": {k: n / (secs * calibration.speed(ticks))
                                         for k, (n, secs) in triples.items()},
              "unscaled": {k: v for k, (v, _, _) in end_to_end(wl, setup_s, passes,
                                                                scale=False).items()},
              "passes": [{"traced": p.traced, "items_per_s": p.rate} for p in passes],
              "wall_s": phases,
              "end_to_end": {k: {"value": v, "unit": u, "samples": n}
                             for k, (v, u, n) in e2e.items()}}
    if args.trace:
        per_layer, bases = layers.per_layer(tracer, passes, len(setup_s))
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
        report["bases"] = bases
        metrics = report["per_layer"]
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in e2e.items()}
    for name, m in metrics.items():
        print(f"{name:52s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
