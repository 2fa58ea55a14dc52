"""The names the perfbench tracer wraps must exist in the package.

`perfbench/tracer.py` wraps functions and methods by name, so deleting or
renaming one of them breaks `perfbench/run.py --trace 1` while every other
test still passes.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from dynzone.floorgraph import FloorGraph
from dynzone.simengine import Simulation

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
CLASSES = {"FloorGraph": FloorGraph, "Simulation": Simulation}


def _layers() -> dict[str, list[str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


LAYERS = _layers()


@pytest.mark.parametrize(
    "layer, name", [(layer, name) for layer, names in LAYERS.items() for name in names]
)
def test_traced_name_resolves(layer, name):
    module = importlib.import_module(f"dynzone.{layer}")
    if "." in name:
        cls_name, attr = name.split(".")
        # The tracer wraps the method on the class that defines it.
        assert callable(CLASSES[cls_name].__dict__.get(attr)), name
    else:
        assert callable(getattr(module, name, None)), f"dynzone.{layer}.{name}"
