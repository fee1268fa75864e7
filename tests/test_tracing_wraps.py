"""The benchmark tracer wraps functions by name; every name must resolve.

``perfbench/tracing.py`` replaces each ``(module, attribute)`` of
``WRAPS`` on the module that looks the function up at run time, so a
rename under ``src/`` would only break the traced benchmark run. This
loads the tracer read-only and resolves every entry against the package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module, dotted", tracing.WRAPS)
def test_wrapped_name_resolves(module, dotted):
    owner = importlib.import_module(f"shotgfmc.{module}")
    for name in dotted.split("."):
        assert hasattr(owner, name), f"shotgfmc.{module}.{dotted}"
        owner = getattr(owner, name)
    assert callable(owner)
    # the span is charged to the layer of the module that defines the function
    assert owner.__module__.rsplit(".", 1)[-1] in tracing.LAYER_OF
