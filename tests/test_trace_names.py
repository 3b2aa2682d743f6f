"""Every function the benchmark tracer wraps must exist under its listed name.

``perfbench/tracer.py`` resolves each entry of ``perfbench/layers.json`` with
``getattr`` on ``esikit.<module>``; a deleted or renamed function would break
``perfbench/run.py --trace 1`` without failing any other test.
"""

import importlib
import json
from pathlib import Path

import pytest

LAYERS = json.loads((Path(__file__).resolve().parent.parent / "perfbench"
                     / "layers.json").read_text())["layers"]


@pytest.mark.parametrize("layer", LAYERS, ids=[l["module"] for l in LAYERS])
def test_layer_names_resolve(layer):
    mod = importlib.import_module(f"esikit.{layer['module']}")
    for name in layer["functions"] + layer.get("vjps", []):
        owner = mod
        for part in name.split("."):        # "Var.backward" is a method
            assert hasattr(owner, part), f"esikit.{layer['module']}.{name}"
            owner = getattr(owner, part)
        assert callable(owner), f"esikit.{layer['module']}.{name}"
