"""Every function the benchmark's span tracer wraps still exists in inquest.

``perfbench/tracer.py`` patches each ``TARGETS`` entry by name, so renaming
or deleting a traced function breaks ``perfbench/run.py --trace 1``. This
reads ``TARGETS`` from the tracer's source without running the tracer.
"""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
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
