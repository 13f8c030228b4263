"""The traced run: spans and counters recorded from outside the program.

Every traced name is replaced by a wrapper wherever taalkit binds it: in the
module that defines it, in every module that copied it in with
``from .x import y``, and in module-level dicts such as the CLI's table of
identifiers.  Methods are wrapped on their class.  A span is
``(name, start_ns, end_ns, parent, op)``: ``parent`` indexes the enclosing
span (-1 at the top) and ``op`` is the benchmark operation that caused it.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass

IDENT = ("identify-long", "eval-short")
MAML = ("maml-train",)
ONSETS = ("onsets-long",)

SPAN, COUNT, ITERATOR = "span", "count", "iterator"


@dataclass(frozen=True)
class Target:
    """A traced name: ``path`` is module-relative (``Class.method`` allowed).

    ``workloads`` lists where the name must record calls; ``stage`` names the
    north-star stage the public function covers, where one does.
    """

    path: str
    kind: str
    workloads: tuple[str, ...]
    stage: str | None = None

    @property
    def name(self) -> str:
        return self.path.removesuffix(".__init__")


TARGETS = (
    Target("talas.TalaDefinition.canonical_stroke", COUNT, IDENT, "nw.canonicalise"),
    Target("talas.stroke_histogram", SPAN, IDENT),
    Target("seqio.read_stroke_tokens", SPAN, ("identify-long",)),
    Target("seqio.out_of_vocabulary", SPAN, ("identify-long",)),
    Target("alignment.identify_tala_nw", SPAN, IDENT),
    Target("alignment.sliding_match_score", SPAN, IDENT, "nw.symbol_ids+block_maxima"),
    Target("alignment.batch_nw_scores", SPAN, IDENT, "nw.match_tensor+dp_rows"),
    Target("ratio.identify_tala_ratio", SPAN, IDENT),
    Target("ratio.cosine_similarity", SPAN, IDENT),
    Target("simulate.generate_performance", SPAN, ("eval-short",)),
    Target("simulate.corrupt", SPAN, ("eval-short",)),
    Target("cli.main", SPAN, IDENT),
    Target("cli.cmd_identify", SPAN, ("identify-long",)),
    Target("cli.cmd_eval", SPAN, ("eval-short",)),
    Target("autodiff.Tensor.__init__", COUNT, MAML),
    Target("autodiff.grad", SPAN, MAML, "maml.toposort+backward"),
    Target("surrogate.FrozenFeatureMap.apply", SPAN, MAML, "maml.feature_map"),
    Target("surrogate.head_logits", SPAN, MAML, "maml.forward"),
    Target("surrogate.wce_loss", SPAN, MAML, "maml.forward"),
    Target("surrogate.sgd_step", SPAN, MAML, "maml.sgd_step"),
    Target("tasks.synth_task_source", ITERATOR, MAML),
    Target("tasks.take_tasks", SPAN, MAML),
    Target("maml.meta_train", SPAN, MAML),
    Target("maml.meta_update", SPAN, MAML),
    Target("maml.inner_adapt", SPAN, MAML),
    Target("maml.meta_test_adapt", SPAN, MAML),
    Target("maml.paired_few_shot_eval", SPAN, MAML),
    Target("postproc.FrameLabelSequence.__init__", SPAN, ONSETS),
    Target("postproc.smooth_labels", SPAN, ONSETS),
    Target("postproc.label_no_stroke", SPAN, ONSETS),
    Target("postproc.onsets_from_frames", SPAN, ONSETS),
    Target("postproc.write_onsets_csv", SPAN, ONSETS),
    Target("postproc.read_onsets_csv", SPAN, ONSETS),
    Target("postproc.onset_f1", SPAN, ONSETS),
)

LAYERS = (
    "talas", "seqio", "alignment", "ratio", "simulate", "postproc",
    "autodiff", "surrogate", "tasks", "maml", "cli",
)

# Names reported per layer.  Each should move the end-to-end metric noted in
# perfbench/README.md; every one is present on every workload and reads 0
# where the workload does not reach the layer.
PER_LAYER = {
    "alignment.batch_nw_scores.busy_s": "s",
    "alignment.batch_nw_scores.dp_cells": "count",
    "alignment.batch_nw_scores.peak_alloc_mb": "MB",
    "alignment.sliding_match_score.self_s": "s",
    "alignment.identify_tala_nw.busy_s": "s",
    "alignment.distinct_window_share.clean": "share",
    "alignment.distinct_window_share.noisy": "share",
    "talas.canonical_stroke.calls": "count",
    "talas.stroke_histogram.busy_s": "s",
    "ratio.identify_tala_ratio.busy_s": "s",
    "seqio.read_stroke_tokens.busy_s": "s",
    "cli.main.self_s": "s",
    "simulate.corrupt.busy_s": "s",
    "simulate.generate_performance.busy_s": "s",
    "autodiff.grad.calls": "count",
    "autodiff.grad.busy_s": "s",
    "autodiff.tensors_created": "count",
    "gc.pause_s": "s",
    "gc.collections.gen0": "count",
    "gc.collections.gen1": "count",
    "gc.collections.gen2": "count",
    "surrogate.head_logits.busy_s": "s",
    "surrogate.wce_loss.busy_s": "s",
    "surrogate.sgd_step.busy_s": "s",
    "surrogate.FrozenFeatureMap.apply.calls": "count",
    "tasks.next_task.busy_s": "s",
    "maml.meta_update.o2.busy_s": "s",
    "maml.meta_update.o1.busy_s": "s",
    "maml.inner_adapt.busy_s": "s",
    "maml.meta_test_adapt.busy_s": "s",
    "maml.divergences": "count",
    "postproc.FrameLabelSequence.busy_s": "s",
    "postproc.smooth_labels.busy_s": "s",
    "postproc.label_no_stroke.busy_s": "s",
    "postproc.onsets_from_frames.busy_s": "s",
    "postproc.onset_f1.busy_s": "s",
    "postproc.onset_f1.candidate_pairs": "count",
    "postproc.csv.busy_s": "s",
    **{f"{layer}.{kind}": "s" for layer in LAYERS for kind in ("busy_s", "self_s")},
    "tracing.spans": "count",
    "tracing.overhead.main_share": "share",
    "tracing.overhead.side_share": "share",
}


def _taalkit_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "taalkit" or name.startswith("taalkit.")]


def patch_everywhere(original, replace) -> callable:
    """Rebind every module-level reference to ``original`` in taalkit.

    ``replace(site)`` returns the object to bind at ``site`` (a string such
    as ``"cli._IDENTIFIERS['nw']"``).  Module globals and values of
    module-level dicts are covered.  Returns a function that restores them.
    """
    undo = []
    for mod in _taalkit_modules():
        short = mod.__name__.removeprefix("taalkit.")
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replace(f"{short}.{key}"))
                undo.append((setattr, mod, key, value))
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = replace(f"{short}.{key}[{k!r}]")
                        undo.append((dict.__setitem__, value, k, v))

    def restore():
        for setter, obj, key, value in reversed(undo):
            setter(obj, key, value)

    return restore


def _resolve(path: str):
    module, *attrs = path.split(".")
    owner = importlib.import_module(f"taalkit.{module}")
    for attr in attrs[:-1]:
        owner = getattr(owner, attr)
    return owner, attrs[-1]


class Tracer:
    """Collects spans, call counts and GC pauses while installed."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.site_calls: Counter = Counter()
        self.extra: Counter = Counter()
        self.peak_alloc = 0
        self.op = 0
        self.stages: dict[str, str] = {}
        self.missing: list[str] = []
        self._undo = []
        self._gc_start = 0
        self.gc_pause_ns = 0
        self.gc_gens: Counter = Counter()

    # --- operations -----------------------------------------------------

    def next_op(self) -> None:
        self.op += 1

    # --- installation ---------------------------------------------------

    def install(self) -> None:
        for target in TARGETS:
            try:
                owner, attr = _resolve(target.path)
                original = getattr(owner, attr)
            except AttributeError:
                self.missing.append(target.path)
                continue
            if target.stage:
                self.stages[target.name] = target.stage
            if isinstance(owner, type):
                wrapper = self._wrap(target, original, f"{target.path} (class)")
                setattr(owner, attr, wrapper)
                self._undo.append(functools.partial(setattr, owner, attr, original))
            else:
                self._undo.append(
                    patch_everywhere(original, lambda site, t=target, o=original: self._wrap(t, o, site))
                )
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.gc_pause_ns += time.perf_counter_ns() - self._gc_start
            self.gc_gens[info["generation"]] += 1

    # --- wrappers -------------------------------------------------------

    def _wrap(self, target: Target, fn, site: str):
        name = target.name
        if target.kind == COUNT:
            calls, site_calls = self.calls, self.site_calls

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[name] += 1
                site_calls[site] += 1
                return fn(*args, **kwargs)

            return counted
        if target.kind == ITERATOR:

            @functools.wraps(fn)
            def source(*args, **kwargs):
                self.calls[name] += 1
                self.site_calls[site] += 1
                return _TracedIterator(self, fn(*args, **kwargs))

            return source

        measure = _MEASURES.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span_name = name
            if measure is not None:
                span_name = measure(self, args, kwargs) or name
            return self.call(span_name, site, fn, args, kwargs, name == "alignment.batch_nw_scores")

        return spanned

    def call(self, name, site, fn, args, kwargs, track_alloc=False):
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        self.calls[name] += 1
        self.site_calls[site] += 1
        if track_alloc:
            tracemalloc.start()
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            if type(exc).__name__ == "DivergenceError" and not getattr(exc, "_perfbench_seen", False):
                exc._perfbench_seen = True
                self.extra["maml.divergences"] += 1
            raise
        finally:
            end = time.perf_counter_ns()
            if track_alloc:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peak_alloc = max(self.peak_alloc, peak)
            self.stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    # --- results --------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op, "stage": self.stages.get(name)}) + "\n")

    def summary(self) -> dict:
        """Busy and self time per span name, per layer and per stage, in s."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        busy, self_t = Counter(), Counter()
        layer_busy, layer_self = Counter(), Counter()
        stage_self = Counter()
        for i, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            own = dur - child_ns[i]
            self_t[name] += own
            layer = name.split(".", 1)[0]
            layer_self[layer] += own
            if name in self.stages:
                stage_self[self.stages[name]] += own
            same_name = same_layer = False
            p = parent
            while p >= 0 and not (same_name and same_layer):
                pname = spans[p][0]
                same_name = same_name or pname == name
                same_layer = same_layer or pname.split(".", 1)[0] == layer
                p = spans[p][3]
            if not same_name:
                busy[name] += dur
            if not same_layer:
                layer_busy[layer] += dur
        to_s = lambda c: {k: v / 1e9 for k, v in c.items()}  # noqa: E731
        return {
            "busy_s": to_s(busy),
            "self_s": to_s(self_t),
            "layer_busy_s": to_s(layer_busy),
            "layer_self_s": to_s(layer_self),
            "stage_self_s": to_s(stage_self),
        }

    def per_layer(self, properties: dict, overhead: dict) -> dict:
        s = self.summary()
        busy, self_t = s["busy_s"], s["self_s"]
        calls = self.calls
        values = {
            "alignment.batch_nw_scores.busy_s": busy.get("alignment.batch_nw_scores", 0.0),
            "alignment.batch_nw_scores.dp_cells": self.extra["dp_cells"],
            "alignment.batch_nw_scores.peak_alloc_mb": self.peak_alloc / 2**20,
            "alignment.sliding_match_score.self_s": self_t.get("alignment.sliding_match_score", 0.0),
            "alignment.identify_tala_nw.busy_s": busy.get("alignment.identify_tala_nw", 0.0),
            "alignment.distinct_window_share.clean": properties.get("distinct_window_share.clean", 0.0),
            "alignment.distinct_window_share.noisy": properties.get("distinct_window_share.noisy", 0.0),
            "talas.canonical_stroke.calls": calls["talas.TalaDefinition.canonical_stroke"],
            "talas.stroke_histogram.busy_s": busy.get("talas.stroke_histogram", 0.0),
            "ratio.identify_tala_ratio.busy_s": busy.get("ratio.identify_tala_ratio", 0.0),
            "seqio.read_stroke_tokens.busy_s": busy.get("seqio.read_stroke_tokens", 0.0),
            "cli.main.self_s": self_t.get("cli.main", 0.0),
            "simulate.corrupt.busy_s": busy.get("simulate.corrupt", 0.0),
            "simulate.generate_performance.busy_s": busy.get("simulate.generate_performance", 0.0),
            "autodiff.grad.calls": calls["autodiff.grad"],
            "autodiff.grad.busy_s": busy.get("autodiff.grad", 0.0),
            "autodiff.tensors_created": calls["autodiff.Tensor"],
            "gc.pause_s": self.gc_pause_ns / 1e9,
            "gc.collections.gen0": self.gc_gens[0],
            "gc.collections.gen1": self.gc_gens[1],
            "gc.collections.gen2": self.gc_gens[2],
            "surrogate.head_logits.busy_s": busy.get("surrogate.head_logits", 0.0),
            "surrogate.wce_loss.busy_s": busy.get("surrogate.wce_loss", 0.0),
            "surrogate.sgd_step.busy_s": busy.get("surrogate.sgd_step", 0.0),
            "surrogate.FrozenFeatureMap.apply.calls": calls["surrogate.FrozenFeatureMap.apply"],
            "tasks.next_task.busy_s": busy.get("tasks.next_task", 0.0),
            "maml.meta_update.o2.busy_s": busy.get("maml.meta_update.o2", 0.0),
            "maml.meta_update.o1.busy_s": busy.get("maml.meta_update.o1", 0.0),
            "maml.inner_adapt.busy_s": busy.get("maml.inner_adapt", 0.0),
            "maml.meta_test_adapt.busy_s": busy.get("maml.meta_test_adapt", 0.0),
            "maml.divergences": self.extra["maml.divergences"],
            "postproc.FrameLabelSequence.busy_s": busy.get("postproc.FrameLabelSequence", 0.0),
            "postproc.smooth_labels.busy_s": busy.get("postproc.smooth_labels", 0.0),
            "postproc.label_no_stroke.busy_s": busy.get("postproc.label_no_stroke", 0.0),
            "postproc.onsets_from_frames.busy_s": busy.get("postproc.onsets_from_frames", 0.0),
            "postproc.onset_f1.busy_s": busy.get("postproc.onset_f1", 0.0),
            "postproc.onset_f1.candidate_pairs": self.extra["candidate_pairs"],
            "postproc.csv.busy_s": busy.get("postproc.write_onsets_csv", 0.0)
            + busy.get("postproc.read_onsets_csv", 0.0),
            "tracing.spans": len(self.spans),
            "tracing.overhead.main_share": overhead["main"],
            "tracing.overhead.side_share": overhead["side"],
        }
        for layer in LAYERS:
            values[f"{layer}.busy_s"] = s["layer_busy_s"].get(layer, 0.0)
            values[f"{layer}.self_s"] = s["layer_self_s"].get(layer, 0.0)
        return {k: values[k] for k in PER_LAYER}

    def coverage_problems(self) -> list[str]:
        """Targets that recorded no call on a workload they belong to."""
        missing = [f"traced name {path} not found" for path in self.missing]
        for target in TARGETS:
            if self.workload not in target.workloads or target.path in self.missing:
                continue
            recorded = sum(v for k, v in self.calls.items() if k == target.name or k.startswith(target.name + "."))
            if recorded == 0:
                missing.append(f"traced name {target.path} recorded no calls")
        return missing


class _TracedIterator:
    """Times each ``next()`` of a task stream as a ``tasks.next_task`` span."""

    def __init__(self, tracer: Tracer, it):
        self._tracer = tracer
        self._it = it

    def __iter__(self):
        return self

    def __next__(self):
        return self._tracer.call("tasks.next_task", "tasks.synth_task_source()", self._it.__next__, (), {})


def _batch_nw_measure(tracer, args, kwargs):
    ref = kwargs.get("ref_ids", args[0] if args else None)
    win = kwargs.get("win_ids", args[1] if len(args) > 1 else None)
    r, m = ref.shape
    w_count, w = win.shape
    tracer.extra["dp_cells"] += r * w_count * m * w
    return None


def _onset_f1_measure(tracer, args, kwargs):
    reference = kwargs.get("reference", args[0] if args else None)
    estimate = kwargs.get("estimate", args[1] if len(args) > 1 else None)
    ref = Counter(lab for _, lab in reference.events)
    est = Counter(lab for _, lab in estimate.events)
    tracer.extra["candidate_pairs"] += sum(n * est[c] for c, n in ref.items())
    return None


def _meta_update_measure(tracer, args, kwargs):
    cfg = kwargs.get("cfg", args[3] if len(args) > 3 else None)
    return f"maml.meta_update.o{cfg.order}"


_MEASURES = {
    "alignment.batch_nw_scores": _batch_nw_measure,
    "postproc.onset_f1": _onset_f1_measure,
    "maml.meta_update": _meta_update_measure,
}
