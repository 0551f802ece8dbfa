"""Span tracer that wraps growcl's public functions from outside the package.

``Tracer.install()`` replaces each traced function at every module-global
name bound to it in any loaded ``growcl`` module (``backbone`` calls
``conv2d`` through ``growcl.backbone.conv2d``, ``driver`` calls
``forward_pass`` through ``growcl.driver.forward_pass``), and each traced
method on its class.  ``uninstall()`` puts the originals back.

A span holds (name, start, end, parent, excluded).  ``excluded`` is the time
spent inside the span on the tracer's own counting hooks (MAC counts,
container sizes, growth actions), which run after the traced call returns,
so no span is charged for them.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, qualified name) of every traced callable.
TRACED = [
    ("ops", "conv2d"), ("ops", "conv2d_backward"), ("ops", "relu"),
    ("ops", "relu_backward"), ("ops", "maxpool2d"), ("ops", "maxpool2d_backward"),
    ("ops", "linear"), ("ops", "linear_backward"), ("ops", "cross_entropy"),
    ("ops", "sgd_step"), ("ops", "finite_diff_check"),
    ("masks", "gumbel_noise"), ("masks", "ste_logit_grad"),
    ("masks", "MaskParam.hard_bits"), ("masks", "l0_penalty"),
    ("backbone", "forward_pass"), ("backbone", "backward_pass"),
    ("backbone", "effective_filters"), ("backbone", "BackboneState.protected_digests"),
    ("growth", "query_and_transition"), ("growth", "enforce_growth_cap"),
    ("growth", "finalize_task"), ("growth", "GrowthLedger.record"),
    ("driver", "run_pipeline"), ("driver", "train_scratch_model"),
    ("driver", "resolve_targets"), ("driver", "train_task1"),
    ("driver", "pick_and_reuse"), ("driver", "expand_task"),
    ("driver", "TaskTrainer.train_step"), ("driver", "TaskTrainer.build_train_view"),
    ("driver", "TaskTrainer.validation_accuracy"), ("driver", "TaskTrainer.query_epoch"),
    ("driver", "TaskTrainer.finalize"), ("driver", "forgetting_check"),
    ("driver", "probe_fingerprint"), ("driver", "evaluate"),
    ("data", "synth_tasks"),
    ("persist", "save_run"), ("persist", "load_run"),
    ("store", "write_container"), ("store", "read_container"),
    ("enumcheck", "run_sweep"), ("enumcheck", "random_instance"),
    ("enumcheck", "verify_mask_freedom"),
]

MODES = ("scratch", "grown", "grow_only")


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _forward_name(args, kwargs):
    train = _arg(args, kwargs, 3, "want_cache", False)
    return "backbone.forward_pass.train" if train else "backbone.forward_pass.eval"


def _pipeline_name(args, kwargs):
    return f"driver.run_pipeline.{_arg(args, kwargs, 1, 'mode')}"


# Spans whose name depends on the arguments of the call.
NAMERS = {
    "backbone.forward_pass": _forward_name,
    "driver.run_pipeline": _pipeline_name,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []        # [name_id, start, end, parent, excluded]
        self._stack: list[int] = []
        self._hook_s = 0.0                 # total time spent in counting hooks
        self.counters: Counter = Counter()
        self.mode: str | None = None       # run_pipeline mode of the open span
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _call(self, name, fn, args, kwargs, hook):
        idx = len(self.spans)
        span = [self._name_id(name), 0.0, 0.0,
                self._stack[-1] if self._stack else -1, 0.0]
        self.spans.append(span)
        self._stack.append(idx)
        hooks_before = self._hook_s
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            span[4] = self._hook_s - hooks_before
        if hook is not None:
            h0 = time.perf_counter()
            hook(self, result, args, kwargs)
            self._hook_s += time.perf_counter() - h0
        return result

    def mark(self) -> int:
        """Span index to pass to ``aggregate`` for the spans recorded after now."""
        return len(self.spans)

    def aggregate(self, since: int = 0) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds ``s`` and ``self_s``."""
        spans = self.spans[since:]
        child_s = [0.0] * len(spans)
        for span in spans:
            parent = span[3] - since
            if parent >= 0:
                child_s[parent] += span[2] - span[1] - span[4]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for span, children in zip(spans, child_s):
            dur = span[2] - span[1] - span[4]
            agg = out[self.names[span[0]]]
            agg["calls"] += 1
            agg["s"] += dur
            agg["self_s"] += dur - children
        return dict(out)

    def write_spans(self, path: str | Path) -> None:
        """One JSON line per span: name, start, end, parent index, excluded."""
        with open(path, "w") as f:
            for name_id, start, end, parent, excluded in self.spans:
                f.write(json.dumps([self.names[name_id], start, end, parent, excluded]))
                f.write("\n")

    # -- installation -----------------------------------------------------------

    def _wrap(self, name, fn):
        namer = NAMERS.get(name, lambda args, kwargs: name)
        hook = HOOKS.get(name)
        tracks_mode = name == "driver.run_pipeline"
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracks_mode:
                return tracer._call(namer(args, kwargs), fn, args, kwargs, hook)
            outer, tracer.mode = tracer.mode, _arg(args, kwargs, 1, "mode")
            try:
                return tracer._call(namer(args, kwargs), fn, args, kwargs, hook)
            finally:
                tracer.mode = outer

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "growcl" or key.startswith("growcl."))]
        for mod_name, qualname in TRACED:
            module = sys.modules[f"growcl.{mod_name}"]
            name = f"{mod_name}.{qualname}"
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(name, original))
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# -- counting hooks: run after the traced call returns, outside every span ----

def _conv_hook(tracer, result, args, kwargs):
    import numpy as np

    filters = _arg(args, kwargs, 1, "filters")
    out = result[0]
    n, c_out, h, w = out.shape
    c_in, k1, k2 = filters.shape[1:]
    macs = n * h * w * c_out * c_in * k1 * k2
    live = int(np.count_nonzero(np.any(filters != 0.0, axis=(2, 3))))
    useful = n * h * w * live * k1 * k2
    c = tracer.counters
    c["ops.conv2d.macs"] += macs
    c["ops.conv2d.useful_macs"] += useful
    if tracer.mode is not None:
        c[f"ops.conv2d.macs.{tracer.mode}"] += macs
        c[f"ops.conv2d.useful_macs.{tracer.mode}"] += useful


def _actions_hook(tracer, result, args, kwargs):
    for action in result:
        tracer.counters[f"growth.actions.{action.action}"] += 1


def _file_bytes_hook(counter):
    def hook(tracer, result, args, kwargs):
        tracer.counters[counter] += os.path.getsize(_arg(args, kwargs, 0, "path"))
    return hook


HOOKS = {
    "ops.conv2d": _conv_hook,
    "growth.query_and_transition": _actions_hook,
    "growth.enforce_growth_cap": _actions_hook,
    "growth.finalize_task": _actions_hook,
    "store.write_container": _file_bytes_hook("store.write_container.bytes"),
    "store.read_container": _file_bytes_hook("store.read_container.bytes"),
}
