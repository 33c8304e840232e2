"""Per-layer metrics from a traced run.

Self times are per call (or per batch / instance / MB as named) over every
traced call of the layer. "calls_per_triple" counts only calls made inside
training.sgd_step, per SGD triple. A layer that does not run on a workload
reports 0, with 0 calls in the bases. README.md maps each metric to the
end-to-end metric and workload it should move.
"""

from tracer import MODEL_CLASSES
from workloads import rate

ARC2_OPS = ("arc2.interaction_conv1d", "arc2.maxpool2d", "arc2.conv2d_gated",
            "arc2.Arc2Model.score", "arc2.Arc2Model.backward")
SCORE_SPANS = tuple(c + ".score" for c in MODEL_CLASSES)
BACKWARD_SPANS = tuple(c + ".backward" for c in MODEL_CLASSES)
MEGABYTE = 1e6
PASS_PHASES = ("sgd", "score", "eval")


def _div(num, den):
    return num / den if den else 0.0


def per_layer(tracer, passes, setups):
    """({name: (value, unit)}, bases) for the traced run."""
    t = tracer
    triples = t.counters["sgd.triples"]
    instances = t.counters["eval.instances"]

    def self_per_call(span, scale):
        return _div(t.self_s[span], t.calls[span]) * scale

    def per_triple(span):
        return _div(t.phase_calls[("sgd", span)], triples)

    def s_per_mb(span, key):
        return _div(t.self_s[span], t.counters[key] / MEGABYTE)

    out = {
        "training.sgd_step.self_ms_per_batch":
            (self_per_call("training.sgd_step", 1e3), "ms"),
        "training.score_calls_per_triple":
            (_div(t.calls_in("sgd", SCORE_SPANS), triples), "calls/triple"),
        "training.active_hinge_frac":
            (_div(t.calls_in("sgd", BACKWARD_SPANS) / 2, triples), "ratio"),
    }
    for span in ARC2_OPS:
        out[span + ".self_us_per_call"] = (self_per_call(span, 1e6), "us")
        out[span + ".calls_per_triple"] = (per_triple(span), "calls/triple")
    out["arc2.live_cell_frac"] = (
        _div(t.counters["arc2.live"], t.counters["arc2.cells"]), "ratio")
    out["conv_sentence.encode.self_us_per_call"] = (
        self_per_call("conv_sentence.encode", 1e6), "us")
    out["conv_sentence.encode.calls_per_triple"] = (
        per_triple("conv_sentence.encode"), "calls/triple")
    for span in ("conv_sentence.conv1d_gated", "conv_sentence.maxpool1d",
                 "conv_sentence.encode_backward",
                 *(c + m for c in MODEL_CLASSES if not c.startswith("arc2.")
                   for m in (".score", ".backward")),
                 "mlp.head_forward", "mlp.head_backward"):
        out[span + ".self_us_per_call"] = (self_per_call(span, 1e6), "us")
    out["conv_sentence.live_unit_frac"] = (
        _div(t.counters["conv_sentence.live"], t.counters["conv_sentence.cells"]), "ratio")
    out["metrics.p_at_1.self_us_per_instance"] = (
        _div(t.self_s["metrics.p_at_1"], instances) * 1e6, "us")
    out["metrics.score_calls_per_instance"] = (
        _div(t.phase_calls[("eval", "bench.score_fn")], instances), "calls/instance")
    out["embeddings.encode_sentence.self_us_per_call"] = (
        self_per_call("embeddings.encode_sentence", 1e6), "us")
    for span in ("embeddings.load_embeddings", "checkpoint.load_checkpoint",
                 "checkpoint.save_checkpoint", "checkpoint.fnv1a64"):
        out[span + ".s_per_mb"] = (s_per_mb(span, span + ".bytes"), "s/MB")
    for span in ("data.load_pairs", "data.sample_negatives", "data.encode_triples",
                 "data.encode_instances"):
        out[span + ".s"] = (_div(t.self_s[span], setups), "s")

    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    traced_rate = rate([r for p in traced for r in p.rounds])
    plain_rate = rate([r for p in plain for r in p.rounds])
    out["trace.overhead_frac"] = (_div(plain_rate, traced_rate) - 1.0, "ratio")
    wall = sum(s[1] for p in traced for s in p.rounds + p.slices)
    library = sum(s for (phase, span), s in t.phase_self_s.items()
                  if phase in PASS_PHASES and not span.startswith("bench."))
    out["trace.unattributed_frac"] = (1.0 - _div(library, wall), "ratio")

    bases = {
        "spans": {name: {"calls": t.calls[name], "self_s": t.self_s[name],
                         "total_s": t.total_s[name]} for name in sorted(t.calls)},
        "counters": dict(sorted(t.counters.items())),
        "setups": setups, "traced_passes": len(traced), "untraced_passes": len(plain),
        "traced_items_per_s": traced_rate, "untraced_items_per_s": plain_rate,
        "traced_pass_wall_s": wall, "library_self_s": library,
        "hook_s": t.hook_s,
    }
    return out, bases
