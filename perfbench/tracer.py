"""Per-layer timing from outside the program.

arcmatch modules look up their collaborators (encode, maxpool2d,
head_forward, ...) as module globals, and the benchmark calls the public
entry points (sgd_step, p_at_1, load_checkpoint, ...) through their
modules. Replacing those attributes with timing wrappers therefore traces
every layer boundary without touching the program. The wrappers are
installed only for traced passes and removed afterwards, so untraced
passes run the unmodified code.

Each span records its call count, its total time and its self time (total
minus the time of the traced spans it called). Spans are aggregated in
memory by name; calls and self time are also kept per benchmark phase
("setup", "sgd", "score", "eval", "save") so that ratios such as calls per
SGD triple count only the work of that phase.
"""

import contextlib
import functools
import os
import time
from collections import defaultdict


def _gate_hook(prefix):
    def hook(tracer, args, out):
        gate = out[1]
        tracer.counters[prefix + ".live"] += float(gate.sum())
        tracer.counters[prefix + ".cells"] += gate.size
    return hook


def _file_size_hook(key):
    def hook(tracer, args, out):
        tracer.counters[key] += os.path.getsize(args[0])
    return hook


MODEL_CLASSES = ("arc2.Arc2Model", "arc1.Arc1Model", "baselines.WordEmbedModel",
                 "baselines.SenMlpModel", "baselines.SennaModel")


def _span_table():
    """(span name, owners whose attribute is replaced, attribute, hook)."""
    from arcmatch import (arc1, arc2, baselines, checkpoint, conv_sentence,
                          data, embeddings, metrics, training)

    def batch_hook(tracer, args, out):
        tracer.counters["sgd.triples"] += len(args[1])

    def fnv_hook(tracer, args, out):
        tracer.counters["checkpoint.fnv1a64.bytes"] += len(args[0])

    def emb_hook(tracer, args, out):
        tracer.counters["embeddings.load_embeddings.bytes"] += os.fstat(
            args[0].fileno()).st_size

    def instances_hook(tracer, args, out):
        tracer.counters["eval.instances"] += len(args[1])

    spans = [
        ("training.sgd_step", [training], "sgd_step", batch_hook),
        ("arc2.interaction_conv1d", [arc2], "interaction_conv1d",
         _gate_hook("arc2")),
        ("arc2.maxpool2d", [arc2], "maxpool2d", None),
        ("arc2.conv2d_gated", [arc2], "conv2d_gated", None),
        ("conv_sentence.encode", [arc1, baselines], "encode", None),
        ("conv_sentence.encode_backward", [arc1, baselines], "encode_backward", None),
        ("conv_sentence.conv1d_gated", [conv_sentence], "conv1d_gated",
         _gate_hook("conv_sentence")),
        ("conv_sentence.maxpool1d", [conv_sentence], "maxpool1d", None),
        ("mlp.head_forward", [arc1, arc2, baselines], "head_forward", None),
        ("mlp.head_backward", [arc1, arc2, baselines], "head_backward", None),
        ("metrics.p_at_1", [metrics], "p_at_1", instances_hook),
        ("embeddings.encode_sentence", [embeddings, data], "encode_sentence", None),
        ("embeddings.load_embeddings", [embeddings], "load_embeddings", emb_hook),
        ("checkpoint.load_checkpoint", [checkpoint], "load_checkpoint",
         _file_size_hook("checkpoint.load_checkpoint.bytes")),
        ("checkpoint.save_checkpoint", [checkpoint], "save_checkpoint",
         _file_size_hook("checkpoint.save_checkpoint.bytes")),
        ("checkpoint.fnv1a64", [checkpoint], "fnv1a64", fnv_hook),
        ("data.load_pairs", [data], "load_pairs", None),
        ("data.sample_negatives", [data], "sample_negatives", None),
        ("data.encode_triples", [data], "encode_triples", None),
        ("data.encode_instances", [data], "encode_instances", None),
    ]
    modules = {"arc1": arc1, "arc2": arc2, "baselines": baselines}
    for name in MODEL_CLASSES:
        module, cls = name.split(".")
        owner = getattr(modules[module], cls)
        spans.append((name + ".score", [owner], "score", None))
        spans.append((name + ".backward", [owner], "backward", None))
    return spans


class Tracer:
    """Aggregating span recorder; see the module docstring."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.phase_calls = defaultdict(int)   # (phase, span) -> calls
        self.phase_self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.hook_s = 0.0
        self.phase = "setup"
        self._child_s = []                   # child time per open span
        self._spans = None

    def wrap(self, name, fn, hook=None):
        """A wrapper that times fn as span `name`, then runs hook.

        Hook time is charged to no span: it is tracing overhead, kept out
        of the caller's self time and summed in hook_s.
        """
        child_s = self._child_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_s.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = child_s.pop()
                self.calls[name] += 1
                self.phase_calls[(self.phase, name)] += 1
                self.phase_self_s[(self.phase, name)] += elapsed - inner
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - inner
                if child_s:
                    child_s[-1] += elapsed
            if hook is not None:
                hook_start = time.perf_counter()
                hook(self, args, out)
                hook_elapsed = time.perf_counter() - hook_start
                self.hook_s += hook_elapsed
                if child_s:
                    child_s[-1] += hook_elapsed
            return out
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every traced attribute with its wrapper, then restore."""
        if self._spans is None:
            self._spans = _span_table()
        saved = []
        try:
            for name, owners, attr, hook in self._spans:
                original = getattr(owners[0], attr)
                wrapped = self.wrap(name, original, hook)
                for owner in owners:
                    saved.append((owner, attr, owner.__dict__[attr]))
                    setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def calls_in(self, phase, names):
        return sum(self.phase_calls[(phase, n)] for n in names)
