"""Tracing from outside the program, and the per-layer metrics it yields.

The modules import each other with `from .x import f`, so a function is
reached through several names.  `Tracer.install` replaces every binding
of each target in the `o2olab` modules (and the method on its class)
with a wrapper that records a span: name, start, end and parent span.
Spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its child spans; the run is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (module, qualified name) of every function that gets a span.
TARGETS = (
    ("numkit", "mlp_forward_batch"),
    ("numkit", "mlp_grad_batch"),
    ("numkit", "mlp_second_grad"),
    ("optim", "newton_schulz_orthogonalize"),
    ("optim", "muon_step"),
    ("optim", "adam_step"),
    ("optim", "polyak_update"),
    ("diffusion", "train_score_model"),
    ("diffusion", "diffusion_loss"),
    ("diffusion", "ScoreModel.predict"),
    ("networks", "GaussianPolicy.sample"),
    ("networks", "GaussianPolicy.sample_grads"),
    ("networks", "GaussianPolicy.mean_action"),
    ("networks", "ScaleNet.values"),
    ("networks", "ScaleNet.grads"),
    ("agents", "smac_critic_loss"),
    ("agents", "score_match_loss"),
    ("agents", "sample_action_mixture"),
    ("agents", "sac_critic_loss"),
    ("agents", "sac_policy_loss"),
    ("envs", "env_step"),
    ("envs", "env_reset"),
    ("envs", "Dataset.sample_batch"),
    ("envs", "mixed_batch"),
    ("envs", "stack_batch"),
    ("envs", "ReplayBuffer.push"),
    ("envs", "load_dataset"),
    ("pipeline", "evaluate_policy"),
    ("pipeline", "warm_start"),
    ("pipeline", "offline_pretrain"),
    ("pipeline", "online_finetune"),
    ("pipeline", "load_checkpoint"),
    ("pipeline", "save_checkpoint"),
    ("pipeline", "write_metrics_csv"),
    ("analysis", "plane_grid_eval"),
    ("analysis", "plane_basis"),
    ("blobio", "read_blob"),
    ("blobio", "write_blob"),
    ("cli", "main"),
)

NUMKIT = ("numkit.mlp_forward_batch", "numkit.mlp_grad_batch", "numkit.mlp_second_grad")
# Matrix products per layer, in units of one forward product: the grad
# pass adds two (weight and input adjoints), the second-order pass adds a
# tangent product and four reverse products.
_PASS_PRODUCTS = {
    "numkit.mlp_forward_batch": 1,
    "numkit.mlp_grad_batch": 3,
    "numkit.mlp_second_grad": 6,
}
# Spans that set the context a numkit call or env step belongs to.
CONTEXTS = frozenset(
    {
        "diffusion.train_score_model",
        "pipeline.offline_pretrain",
        "pipeline.online_finetune",
        "pipeline.warm_start",
        "pipeline.evaluate_policy",
    }
)

# name -> unit, in the order reported.  `.calls` counts, `.self_ms` self
# time summed over the traced repetition.
LAYER_METRICS = {
    "numkit.mlp_forward_batch.calls": "count",
    "numkit.mlp_forward_batch.self_ms": "ms",
    "numkit.mlp_grad_batch.calls": "count",
    "numkit.mlp_grad_batch.self_ms": "ms",
    "numkit.mlp_second_grad.calls": "count",
    "numkit.mlp_second_grad.self_ms": "ms",
    "numkit.forwards_per_step": "count/step",
    "numkit.rows_per_call": "rows",
    "numkit.mflop": "MFLOP",
    "numkit.mflop_per_s": "MFLOP/s",
    "optim.newton_schulz_orthogonalize.calls": "count",
    "optim.newton_schulz_orthogonalize.self_ms": "ms",
    "optim.muon_step.self_ms": "ms",
    "optim.adam_step.self_ms": "ms",
    "optim.polyak_update.calls": "count",
    "optim.polyak_update.self_ms": "ms",
    "diffusion.train_score_model.self_ms": "ms",
    "diffusion.diffusion_loss.calls": "count",
    "diffusion.diffusion_loss.self_ms": "ms",
    "diffusion.ScoreModel.predict.calls": "count",
    "diffusion.ScoreModel.predict.self_ms": "ms",
    "networks.GaussianPolicy.sample.calls": "count",
    "networks.GaussianPolicy.sample.self_ms": "ms",
    "networks.GaussianPolicy.sample_grads.calls": "count",
    "networks.GaussianPolicy.sample_grads.self_ms": "ms",
    "networks.GaussianPolicy.mean_action.calls": "count",
    "networks.GaussianPolicy.mean_action.self_ms": "ms",
    "networks.ScaleNet.values.self_ms": "ms",
    "networks.ScaleNet.grads.self_ms": "ms",
    "agents.smac_critic_loss.self_ms": "ms",
    "agents.score_match_loss.self_ms": "ms",
    "agents.sample_action_mixture.self_ms": "ms",
    "agents.sac_critic_loss.self_ms": "ms",
    "agents.sac_policy_loss.self_ms": "ms",
    "envs.env_step.calls": "count",
    "envs.env_step.self_ms": "ms",
    "envs.env_reset.calls": "count",
    "envs.Dataset.sample_batch.self_ms": "ms",
    "envs.mixed_batch.self_ms": "ms",
    "envs.stack_batch.self_ms": "ms",
    "envs.ReplayBuffer.push.calls": "count",
    "envs.load_dataset.self_ms": "ms",
    "envs.action_clips": "count",
    "pipeline.evaluate_policy.calls": "count",
    "pipeline.evaluate_policy.self_ms": "ms",
    "pipeline.evaluate_policy.p50_ms": "ms",
    "pipeline.evaluate_policy.p90_ms": "ms",
    "pipeline.warm_start.self_ms": "ms",
    "pipeline.offline_pretrain.self_ms": "ms",
    "pipeline.online_finetune.self_ms": "ms",
    "pipeline.load_checkpoint.self_ms": "ms",
    "pipeline.save_checkpoint.self_ms": "ms",
    "pipeline.write_metrics_csv.self_ms": "ms",
    "pipeline.final_eval_return": "return",
    "analysis.plane_grid_eval.self_ms": "ms",
    "analysis.plane_basis.self_ms": "ms",
    "blobio.read_blob.calls": "count",
    "blobio.read_blob.self_ms": "ms",
    "blobio.read_blob.bytes": "B",
    "blobio.write_blob.calls": "count",
    "blobio.write_blob.self_ms": "ms",
    "blobio.write_blob.bytes": "B",
    "cli.main.self_ms": "ms",
    "trace.overhead_pct": "%",
}


def _numkit_mflop(name, args, result):
    widths = args[0].spec.layer_widths
    rows = np.shape(args[1])[0]
    per_row = sum(2 * widths[i] * widths[i + 1] for i in range(len(widths) - 1))
    return {"rows": rows, "mflop": _PASS_PRODUCTS[name] * per_row * rows / 1e6}


def _blob_bytes(name, args, result):
    return {"bytes": os.path.getsize(args[0])}


def _eval_return(name, args, result):
    return {"last_return": result[0]}


# Extra quantities recorded per call, summed per span name except
# `last_return`, which keeps the latest value.
_MEASURES = {
    **{name: _numkit_mflop for name in NUMKIT},
    "blobio.read_blob": _blob_bytes,
    "blobio.write_blob": _blob_bytes,
    "pipeline.evaluate_policy": _eval_return,
}


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self.measures = defaultdict(lambda: defaultdict(float))
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        measure = _MEASURES.get(name)
        spans, stack, measures = self.spans, self._stack, self.measures
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if measure is not None:
                for key, value in measure(name, args, result).items():
                    if key == "last_return":
                        measures[name][key] = value
                    else:
                        measures[name][key] += value
            return result

        return traced

    def install(self, package="o2olab"):
        """Wrap every target at every name that binds it."""
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for mod_name, qualname in TARGETS:
            home = sys.modules[f"{package}.{mod_name}"]
            span_name = f"{mod_name}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                self._undo.append((cls, attr, original))
                setattr(cls, attr, self._wrap(span_name, original))
                continue
            original = getattr(home, qualname)
            wrapped = self._wrap(span_name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path):
        """Write the spans as JSON lines: name, start and end (ns), parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def layer_metrics(tracer: Tracer, workload, action_clips: int, overhead_pct: float) -> dict:
    """Aggregate the spans of one traced repetition into LAYER_METRICS."""
    spans = tracer.spans
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    durations = defaultdict(list)
    context = [None] * len(spans)
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        self_ns[name] += dur
        durations[name].append(dur)
        if parent >= 0:
            pname = spans[parent][0]
            self_ns[pname] -= dur
            context[i] = pname if pname in CONTEXTS else context[parent]

    steps = sum(
        1
        for i, span in enumerate(spans)
        if span[0] == workload.step_marker and context[i] == workload.step_context
    )
    step_forwards = sum(
        1 for i, span in enumerate(spans) if span[0] in NUMKIT and context[i] == workload.step_context
    )
    numkit_calls = sum(calls[n] for n in NUMKIT)
    numkit_ms = sum(self_ns[n] for n in NUMKIT) / 1e6
    rows = sum(tracer.measures[n]["rows"] for n in NUMKIT)
    mflop = sum(tracer.measures[n]["mflop"] for n in NUMKIT)
    evals = np.array(durations["pipeline.evaluate_policy"] or [0]) / 1e6

    derived = {
        "numkit.forwards_per_step": step_forwards / steps if steps else 0.0,
        "numkit.rows_per_call": rows / numkit_calls if numkit_calls else 0.0,
        "numkit.mflop": mflop,
        "numkit.mflop_per_s": mflop / (numkit_ms / 1e3) if numkit_ms else 0.0,
        "envs.action_clips": action_clips,
        "pipeline.evaluate_policy.p50_ms": float(np.percentile(evals, 50)),
        "pipeline.evaluate_policy.p90_ms": float(np.percentile(evals, 90)),
        "pipeline.final_eval_return": tracer.measures["pipeline.evaluate_policy"]["last_return"],
        "blobio.read_blob.bytes": tracer.measures["blobio.read_blob"]["bytes"],
        "blobio.write_blob.bytes": tracer.measures["blobio.write_blob"]["bytes"],
        "trace.overhead_pct": overhead_pct,
    }
    out = {}
    for metric in LAYER_METRICS:
        if metric in derived:
            value = derived[metric]
        elif metric.endswith(".calls"):
            value = calls[metric[: -len(".calls")]]
        else:
            value = self_ns[metric[: -len(".self_ms")]] / 1e6
        out[metric] = float(value)
    return out
