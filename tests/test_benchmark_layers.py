"""The traced benchmark names functions of the program in BENCHMARK.json's
``per_layer`` list; a function that is deleted or renamed would silently read
as zero there.  This test reads only BENCHMARK.json."""

import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

# Counters the tracer computes itself rather than from a wrapped function:
# its own overhead, and the lru-cache aggregate that reads 0 once the caches
# are gone.
TRACER_OWN = {"trace", "nonclassical.moment_cache"}


def named_functions() -> list[tuple[str, str]]:
    names = set()
    for entry in json.loads(BENCHMARK.read_text())["per_layer"]:
        module, function = entry["name"].split(".")[:2]
        if module not in TRACER_OWN and f"{module}.{function}" not in TRACER_OWN:
            names.add((module, function))
    return sorted(names)


@pytest.mark.parametrize("module,function", named_functions(), ids=lambda v: v)
def test_per_layer_function_exists(module, function):
    mod = importlib.import_module(f"pmcs.{module}")
    fn = getattr(mod, function, None)
    assert not function.startswith("_")
    assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, (
        f"BENCHMARK.json traces {module}.{function}, which pmcs.{module} no longer defines"
    )
