"""Every name the benchmark reads still exists in inquest.

``perfbench/tracer.py`` patches each ``TARGETS`` entry by name, so renaming
or deleting a traced function breaks ``perfbench/run.py --trace 1``. This
reads ``TARGETS`` from the tracer's source without running the tracer.
``perfbench/workloads.py`` drives the package through module attributes
(``consult_env.legal_actions``); those are read from its syntax tree, so a
deleted name fails here rather than inside a benchmark run. The tracer's
flop hooks also read the layout of ``nncore.forward_with_cache``'s cache.
"""
import ast
import importlib
import importlib.util
from collections import defaultdict
from pathlib import Path

import numpy as np

from inquest import nncore

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOADS = PERFBENCH / "workloads.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _targets():
    tracer = _tracer()
    return tracer.PACKAGE, tracer.TARGETS


def test_every_traced_target_resolves_in_the_package():
    package, targets = _targets()
    missing = []
    for module_name, attr, _, _ in targets:
        module = importlib.import_module(f"{package}.{module_name}")
        owner_name, _, name = attr.rpartition(".")
        # The tracer patches a method in its class's own __dict__.
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or not callable(vars(owner).get(name)):
            missing.append(f"{module_name}.{attr}")
    assert targets and not missing, missing


def test_every_name_the_workloads_read_resolves_in_the_package():
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name: alias.name  # bound name -> module name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "inquest"
               for alias in node.names}
    used = sorted({(modules[node.value.id], node.attr)
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in modules})
    missing = [f"{module_name}.{attr}" for module_name, attr in used
               if not hasattr(importlib.import_module(f"inquest.{module_name}"), attr)]
    assert modules and used and not missing, missing


def test_flop_hooks_count_the_batch_rows_of_a_real_forward_and_backward():
    # ``_hook_backward`` takes the row count from ``cache[0][0]``, the input
    # batch at the head of the cache's activations; rows != d_in tells it
    # apart from a row of that batch.
    tracer = _tracer()
    net = nncore.init_dense((4, 6, 3), seed=0)
    rows = 5
    x = np.random.default_rng(0).normal(size=(rows, 4))
    out, cache = nncore.forward_with_cache(net, x)
    grad_out = np.ones_like(out)
    grads = nncore.backward(net, cache, grad_out)
    forward_stats, backward_stats = defaultdict(float), defaultdict(float)
    tracer._hook_forward(forward_stats, (net, x), {}, (out, cache))
    tracer._hook_backward(backward_stats, (net, cache, grad_out), {}, grads)
    per_row = tracer._matmul_flop(net.layer_dims, 1)
    assert forward_stats["nncore.forward_with_cache.rows"] == rows
    assert forward_stats["nncore.flop"] == rows * per_row
    assert backward_stats["nncore.flop"] == 2 * rows * per_row
