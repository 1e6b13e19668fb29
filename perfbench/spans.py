"""Span tracer for the traced run, and the per-layer metrics drawn from it.

Spans are recorded from this benchmark's own files: each wrapper replaces a
public name where its caller looks it up (``smap.attention.tokenize`` for
``forward_trunk``, ``smap.ppo.envs.step`` via the ``envs`` module, class
attributes for methods). Individual ``autodiff`` ops are never wrapped:
wrapping them inflates backward matmul time several-fold.

A span's self time is its duration minus the durations of its child spans.
Each span also carries a context: the nearest enclosing ``act`` (the B=8
rollout forward), ``evaluate_actions`` (the B=512 update forward) or
``evaluate_policy`` (greedy eval), so trunk stages are split by batch size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from smap import attention, envs, paths, policies, ppo
from smap import autodiff as ad
from smap.optim import Adam

CONTEXTS = {"policies.act": "act", "policies.evaluate_actions": "update",
            "ppo.evaluate_policy": "eval"}


@dataclass
class Span:
    name: str
    t0: float
    dur: float
    self_s: float
    unit: int                 # spans of one unit share this id; -1 for the check pass
    context: Optional[str]
    value: Optional[float]    # open-mask or path fraction, when the span has one
    index: Optional[int]      # mask position: layer index, or -1 for aggregation


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[list] = []      # [t0, child seconds, context, masks sampled]
        self._saved: list[tuple[object, str, object]] = []
        self._unit = -1
        self._missed = False

    # -- installation -------------------------------------------------------
    def targets(self) -> list[tuple[object, str, str, Optional[Callable]]]:
        t = [(ppo, "collect_rollout", "ppo.collect_rollout", None),
             (ppo, "ppo_update", "ppo.ppo_update", None),
             (ppo, "evaluate_policy", "ppo.evaluate_policy", None),
             (ppo, "compute_gae", "ppo.compute_gae", None),
             (envs, "step", "envs.step", None),
             (envs, "render_obs", "envs.render_obs", None),
             (envs, "generate_level", "envs.generate_level", self._level_miss),
             (attention, "tokenize", "tokenizer.tokenize", None),
             (attention, "run_attention_stack", "attention.run_attention_stack", None),
             (attention, "masked_attention_layer", "attention.masked_attention_layer", None),
             (attention, "sample_mask_values", "attention.sample_mask_values",
              self._mask_open),
             (attention, "aggregate", "attention.aggregate", None),
             (policies, "forward_trunk", "policies.forward_trunk", None),
             (paths, "path_matrix", "paths.path_matrix", self._path_fraction),
             (ad, "backward", "autodiff.backward", None),
             (Adam, "step", "optim.adam_step", None),
             (policies.PolicyBase, "act", "policies.act", None),
             (policies.PolicyBase, "evaluate_actions", "policies.evaluate_actions", None)]
        for kind, cls in policies._POLICY_CLASSES.items():
            t.append((cls, "output", f"policies.output.{kind}", None))
        return t

    def install(self) -> None:
        for owner, attr, name, probe in self.targets():
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            if probe == self._level_miss:
                fn = self._tag_misses(fn)
            setattr(owner, attr, self._wrap(fn, name, probe))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def begin_unit(self, unit: int) -> None:
        self._unit = unit
        self.install()

    def end_unit(self) -> None:
        self.uninstall()
        self._unit = -1

    # -- recording ----------------------------------------------------------
    def _wrap(self, fn, name: str, probe):
        """``probe(out, parent_frame)`` returns (value, index), or None to
        drop the span."""
        stack = self._stack
        spans = self.spans
        tracer = self
        own_context = CONTEXTS.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            context = own_context or (parent[2] if parent else None)
            frame = [0.0, 0.0, context, 0]
            stack.append(frame)
            frame[0] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - frame[0]
                stack.pop()
                if parent:
                    parent[1] += dur
            extra = probe(out, parent) if probe else (None, None)
            if extra is not None:
                spans.append(Span(name, frame[0], dur, dur - frame[1], tracer._unit,
                                  context, *extra))
            return out

        return traced

    def _tag_misses(self, generate):
        def generate_level(kind, seed):
            before = generate.cache_info().misses
            level = generate(kind, seed)
            self._missed = generate.cache_info().misses > before
            return level
        return generate_level

    def _level_miss(self, out, parent):
        # a cache hit is not generation work: drop its span
        return (None, None) if self._missed else None

    @staticmethod
    def _mask_open(out, parent):
        _, hard = out
        if hard.shape[-2] == 1:
            return float(hard.data.mean()), -1
        parent[3] += 1                 # parent: run_attention_stack, one mask per layer
        return float(hard.data.mean()), parent[3] - 1

    @staticmethod
    def _path_fraction(pm, parent):
        return float(np.mean(pm.total.data / pm.mu)), None


# -- statistics --------------------------------------------------------------
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def summarize(values) -> dict:
    """Median, the highest ladder percentile with at least ten samples beyond
    it (the maximum when there are fewer than twenty samples), and the count."""
    v = np.asarray(values, dtype=np.float64)
    n = v.size
    if n == 0:
        return {"median": None, "tail": None, "n": 0}
    tail_pct = next((p for p in TAIL_LADDER if n * (1 - p / 100) >= 10), 100.0)
    return {"median": float(np.median(v)), "tail": float(np.percentile(v, tail_pct)),
            "n": int(n)}


# per-layer timing metrics: name -> (span names, context, field, scale)
TIMINGS = {
    "envs.generate_level_ms": (("envs.generate_level",), None, "dur", 1e3),
    "envs.step_us": (("envs.step",), None, "dur", 1e6),
    "envs.render_obs_us": (("envs.render_obs",), None, "dur", 1e6),
    "ppo.collect_rollout_s": (("ppo.collect_rollout",), None, "dur", 1.0),
    "ppo.ppo_update_s": (("ppo.ppo_update",), None, "dur", 1.0),
    "ppo.compute_gae_ms": (("ppo.compute_gae",), None, "dur", 1e3),
    "ppo.evaluate_policy_s": (("ppo.evaluate_policy",), None, "dur", 1.0),
    "policies.act_ms": (("policies.act",), None, "dur", 1e3),
    "policies.evaluate_actions_ms": (("policies.evaluate_actions",), None, "dur", 1e3),
    # cnn is excluded: its whole network runs inside output
    "policies.output_self_ms": (("policies.output.attention", "policies.output.input_masked",
                                 "policies.output.sparse_masked"), None, "self", 1e3),
    "autodiff.backward_ms": (("autodiff.backward",), None, "dur", 1e3),
    "optim.adam_step_ms": (("optim.adam_step",), None, "dur", 1e3),
    "paths.path_matrix_ms.b512": (("paths.path_matrix",), "update", "dur", 1e3),
}
for _ctx, _tag in (("act", "b8"), ("update", "b512")):
    TIMINGS.update({
        f"tokenizer.tokenize_ms.{_tag}": (("tokenizer.tokenize",), _ctx, "dur", 1e3),
        f"attention.layer_ms.{_tag}": (("attention.masked_attention_layer",), _ctx, "dur", 1e3),
        # stack self time = mask-logit projections plus stack bookkeeping
        f"attention.mask_logits_self_ms.{_tag}": (("attention.run_attention_stack",), _ctx,
                                                  "self", 1e3),
        f"attention.sample_mask_values_ms.{_tag}": (("attention.sample_mask_values",), _ctx,
                                                    "dur", 1e3),
        f"attention.aggregate_ms.{_tag}": (("attention.aggregate",), _ctx, "dur", 1e3),
    })

PHASES = ("collect_rollout", "ppo_update", "evaluate_policy")


def _select(spans: list[Span], names, context) -> tuple[list[Span], str]:
    """Spans of the workload loop; the check pass's when the loop has none."""
    hits = [s for s in spans if s.name in names and (context is None or s.context == context)]
    loop = [s for s in hits if s.unit >= 0]
    return (loop, "loop") if loop else (hits, "check" if hits else "none")


def layer_metrics(spans: list[Span]) -> tuple[dict, dict]:
    """Per-layer values from spans, and the source ('loop'/'check') of each."""
    values: dict[str, float] = {}
    sources: dict[str, str] = {}
    for metric, (names, context, fld, scale) in TIMINGS.items():
        chosen, src = _select(spans, names, context)
        s = summarize([(sp.dur if fld == "dur" else sp.self_s) * scale for sp in chosen])
        values[metric] = s["median"]
        values[metric + ".tail"] = s["tail"]
        values[metric + ".n"] = s["n"]
        sources[metric] = src
    masks, src = _select(spans, ("attention.sample_mask_values",), None)
    for index, tag in ((0, "layer0"), (1, "layer1"), (-1, "agg")):
        vals = [s.value for s in masks if s.index == index]
        values[f"attention.mask_open_frac.{tag}"] = float(np.mean(vals)) if vals else None
        sources[f"attention.mask_open_frac.{tag}"] = src
    pm, src = _select(spans, ("paths.path_matrix",), None)
    values["paths.path_fraction"] = float(np.mean([s.value for s in pm])) if pm else None
    sources["paths.path_fraction"] = src
    backward, src = _select(spans, ("autodiff.backward",), None)
    updates = [s for s in spans if s.name == "ppo.ppo_update" and (s.unit >= 0) == (src == "loop")]
    values["ppo.minibatches"] = len(backward) / len(updates) if updates else None
    sources["ppo.minibatches"] = src
    for phase in PHASES:
        chosen, src = _select(spans, (f"ppo.{phase}",), None)
        total = sum(s.dur for s in chosen)
        values[f"trace.uncovered_frac.{phase}"] = (sum(s.self_s for s in chosen) / total
                                                   if total else None)
        sources[f"trace.uncovered_frac.{phase}"] = src
    return values, sources
