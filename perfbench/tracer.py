"""Span tracer for the traced benchmark run.

The tracer wraps public functions of ``inquest`` from the outside. Each
wrapped name is rebound on its defining module and in every other module
that imported it by name (``from .diagnosis import predict``), so calls
are seen whichever binding the caller uses. Hot accessors get count-only
wrappers; everything else records a span (name, start, end, parent span,
root id). Spans stay in memory and are written once, at the end of the run.

The root id names the unit of work a span belongs to: a training epoch
(``diagnosis.train_epoch``), a consultation (``simulate_consultation`` or
``consult_repl``), or a PPO episode, which starts at each ``consult_env.reset``
called directly by ``inquiry.collect_rollouts``.
"""
from __future__ import annotations

import gzip
import importlib
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "inquest"
SPAN = "span"
COUNT = "count"

ROLLOUTS = "inquiry.collect_rollouts"
RESET = "consult_env.reset"
ROOT_SPANS = ("diagnosis.train_epoch", "evalharness.simulate_consultation", "cli.consult_repl")


def _file_bytes(path) -> int:
    return os.path.getsize(path) if path is not None and os.path.exists(path) else 0


def _dataset_bytes(path) -> int:
    # save_dataset/load_dataset also touch a ``<stem>.header.json`` sidecar.
    path = os.fspath(path)
    stem, _ = os.path.splitext(path)
    return _file_bytes(path) + _file_bytes(stem + ".header.json")


def _matmul_flop(layer_dims, rows: int) -> int:
    return 2 * rows * sum(a * b for a, b in zip(layer_dims, layer_dims[1:]))


def _hook_forward(stats, args, kwargs, result):
    net, x = args[0], args[1]
    rows = len(x)
    stats["nncore.forward_with_cache.rows"] += rows
    stats["nncore.flop"] += _matmul_flop(net.layer_dims, rows)


def _hook_backward(stats, args, kwargs, result):
    net, cache = args[0], args[1]
    # Two products per layer: weight gradient and input gradient.
    stats["nncore.flop"] += 2 * _matmul_flop(net.layer_dims, len(cache[0][0]))


def _hook_legal(stats, args, kwargs, result):
    stats["consult_env.legal_actions.legal"] += int(result.sum())
    stats["consult_env.legal_actions.slots"] += result.size


def _hook_step(stats, args, kwargs, result):
    f = result[1]
    stats["consult_env.step.findings"] += f.f1p + f.f1n + f.f2p + f.f2n


def _hook_rollouts(stats, args, kwargs, result):
    stats["inquiry.collect_rollouts.steps"] += len(result)
    stats["inquiry.collect_rollouts.episodes"] += result.n_episodes


def _hook_consultation(stats, args, kwargs, result):
    stats["evalharness.simulate_consultation.rounds"] += result.n_rounds


def _bytes_hook(name, measure=_file_bytes, arg=1):
    def hook(stats, args, kwargs, result):
        stats[name] += measure(args[arg] if len(args) > arg else kwargs["path"])
    return hook


def _read_hook(name, measure=_file_bytes):
    return _bytes_hook(name, measure, arg=0)


# (module, attribute, kind, post-call hook). ``Class.method`` attributes are
# patched on the class. Names are reported as ``<module>.<attribute>``.
TARGETS = (
    ("ontology", "HpiOntology.parent_of", COUNT, None),
    ("ontology", "HpiOntology.children_of", COUNT, None),
    ("patientgen", "generate_cohort", SPAN, None),
    ("patientgen", "GenerativeModel.children_of", COUNT, None),
    ("patientgen", "save_dataset", SPAN,
     _bytes_hook("patientgen.save_dataset.bytes", _dataset_bytes)),
    ("patientgen", "load_dataset", SPAN,
     _read_hook("patientgen.load_dataset.bytes", _dataset_bytes)),
    ("patientgen", "split_dataset", SPAN, None),
    ("patientgen", "encode_history", COUNT, None),
    ("nncore", "forward", COUNT, None),
    ("nncore", "forward_with_cache", SPAN, _hook_forward),
    ("nncore", "backward", SPAN, _hook_backward),
    ("nncore", "adam_step", SPAN, None),
    ("nncore", "save_net", SPAN, _bytes_hook("nncore.save_net.bytes")),
    ("nncore", "load_net", SPAN, _read_hook("nncore.load_net.bytes")),
    ("diagnosis", "train_diagnosis", SPAN, None),
    ("diagnosis", "train_epoch", SPAN, None),
    ("diagnosis", "predict", SPAN, None),
    ("diagnosis", "predict_batch", SPAN, None),
    ("diagnosis", "rank_diseases", SPAN, None),
    ("diagnosis", "encode_hpi_ternary", SPAN, None),
    ("diagnosis", "top1_accuracy", SPAN, None),
    ("consult_env", "reset", SPAN, None),
    ("consult_env", "legal_actions", SPAN, _hook_legal),
    ("consult_env", "step", SPAN, _hook_step),
    ("inquiry", "train_inquiry", SPAN, None),
    ("inquiry", "collect_rollouts", SPAN, _hook_rollouts),
    ("inquiry", "ppo_update", SPAN, None),
    ("inquiry", "policy_loss_and_grad", SPAN, None),
    ("inquiry", "masked_softmax", SPAN, None),
    ("inquiry", "gae_advantages", SPAN, None),
    ("inquiry", "compute_reward", COUNT, None),
    ("evalharness", "evaluate", SPAN, None),
    ("evalharness", "simulate_consultation", SPAN, _hook_consultation),
    ("evalharness", "save_traces", SPAN, _bytes_hook("evalharness.save_traces.bytes")),
    ("evalharness", "emit_report", SPAN, _bytes_hook("evalharness.emit_report.bytes")),
    ("cli", "consult_repl", SPAN, None),
)

MODULES = ("ontology", "patientgen", "nncore", "diagnosis", "consult_env", "inquiry",
           "evalharness", "cli")


class Tracer:
    """Installs wrappers into ``inquest`` and aggregates what they record.

    Wrappers forward straight to the original while ``active`` is false, so
    set-up, output checks and untraced passes run unobserved.
    """

    def __init__(self):
        self.active = False
        self.spans: list[list] = []  # [name, start, end, parent index, root id]
        self.stack: list[int] = []
        self.root = -1
        self.calls: dict[str, int] = defaultdict(int)
        self.stats: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self, extra_modules=()) -> None:
        """Wrap every target, rebinding each name wherever it was imported."""
        for module_name in MODULES:
            importlib.import_module(f"{PACKAGE}.{module_name}")
        holders = [m for n, m in sorted(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        holders += list(extra_modules)
        for module_name, attr, kind, hook in TARGETS:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            name = f"{module_name}.{attr}"
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                self._patch(owner, method, self._wrap(name, module_name, original, kind, hook))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, module_name, original, kind, hook)
            for holder in holders:
                if getattr(holder, attr, None) is original:
                    self._patch(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def _patch(self, holder, attr, wrapper) -> None:
        self._patches.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, wrapper)

    def _wrap(self, name, module_name, fn, kind, hook):
        tracer = self
        calls = self.calls

        if kind == COUNT:
            def counted(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                calls[name] += 1
                try:
                    return fn(*args, **kwargs)
                except Exception as exc:
                    tracer._error(module_name, exc)
                    raise
            counted.__wrapped__ = fn
            return counted

        spans, stack, stats = self.spans, self.stack, self.stats
        starts_root = name in ROOT_SPANS

        def spanned(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            calls[name] += 1
            idx = len(spans)
            parent = stack[-1] if stack else -1
            saved_root = tracer.root
            if starts_root or (name == RESET and parent >= 0 and spans[parent][0] == ROLLOUTS):
                tracer.root = idx
            span = [name, 0.0, 0.0, parent, tracer.root]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._error(module_name, exc)
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
                if starts_root or name == ROLLOUTS:
                    tracer.root = saved_root
            if hook is not None:
                hook(stats, args, kwargs, result)
            return result

        spanned.__wrapped__ = fn
        return spanned

    def _error(self, module_name, exc) -> None:
        # An exception crossing several wrapped frames is charged once, to
        # the innermost layer that let it out.
        if not getattr(exc, "_perfbench_counted", False):
            exc._perfbench_counted = True
            self.errors[module_name] += 1

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per-name self time: span duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics, per traced pass (counts are exact per pass)."""
        n = max(passes, 1)
        self_s = self.self_times()
        calls, stats = self.calls, self.stats

        def per_pass(value):
            return value / n

        def ratio(num, den):
            return num / den if den else 0.0

        m = {
            "ontology.parent_of.calls": per_pass(calls["ontology.HpiOntology.parent_of"]),
            "ontology.children_of.calls": per_pass(calls["ontology.HpiOntology.children_of"]),
            "patientgen.GenerativeModel.children_of.calls":
                per_pass(calls["patientgen.GenerativeModel.children_of"]),
            "patientgen.encode_history.calls": per_pass(calls["patientgen.encode_history"]),
            "nncore.forward.calls": per_pass(calls["nncore.forward"]),
            "nncore.forward_with_cache.rows_per_call":
                ratio(stats["nncore.forward_with_cache.rows"], calls["nncore.forward_with_cache"]),
            "nncore.adam_step.us_per_call":
                1e6 * ratio(self_s["nncore.adam_step"], calls["nncore.adam_step"]),
            "nncore.gflop": per_pass(stats["nncore.flop"]) / 1e9,
            "consult_env.legal_actions.us_per_call":
                1e6 * ratio(self_s["consult_env.legal_actions"],
                            calls["consult_env.legal_actions"]),
            "consult_env.legal_actions.legal_share":
                ratio(stats["consult_env.legal_actions.legal"],
                      stats["consult_env.legal_actions.slots"]),
            "consult_env.step.findings_per_call":
                ratio(stats["consult_env.step.findings"], calls["consult_env.step"]),
            "inquiry.compute_reward.calls": per_pass(calls["inquiry.compute_reward"]),
            "evalharness.rounds_per_consultation":
                ratio(stats["evalharness.simulate_consultation.rounds"],
                      calls["evalharness.simulate_consultation"]),
        }
        for name in ("patientgen.save_dataset", "patientgen.load_dataset", "nncore.save_net",
                     "nncore.load_net", "evalharness.save_traces", "evalharness.emit_report"):
            m[f"{name}.bytes"] = per_pass(stats[f"{name}.bytes"])
        for name in ("inquiry.collect_rollouts.steps", "inquiry.collect_rollouts.episodes"):
            m[name] = per_pass(stats[name])
        for module_name, attr, kind, _ in TARGETS:
            name = f"{module_name}.{attr}"
            if kind == SPAN:
                m[f"{name}.calls"] = per_pass(calls[name])
                m[f"{name}.self_s"] = per_pass(self_s[name])
        for module_name in MODULES:
            m[f"{module_name}.errors"] = per_pass(self.errors[module_name])
        return m

    def write_spans(self, path) -> None:
        """Gzipped JSON lines of ``[id, name, start, end, parent id, root id]``;
        -1 is none."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps([i, *span]) + "\n")
