"""The benchmark's traced run wraps the functions named in
perfbench/tracer.py TARGETS; each must exist in the package, or a traced
run fails before it measures anything."""

import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "tracer.py")


def _resolves(layer, path):
    owner = importlib.import_module("mellin_edge." + layer)
    for part in path.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert len(tracer.TARGETS) > 0
    missing = [layer + "." + path for layer, path, _probe in tracer.TARGETS
               if not _resolves(layer, path)]
    assert missing == []
