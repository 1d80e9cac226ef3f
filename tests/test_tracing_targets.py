"""Every function the benchmark's tracer wraps still exists where it looks it up.

`bench/tracing.py` patches `(module, attribute)` pairs of the package by name
for a traced pass; a rename or a moved lookup would leave a span silently
empty.  The file is loaded by path, since `bench/` is not a package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def tracer_patches():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


@pytest.mark.parametrize("module_name,attr,span", tracer_patches())
def test_patched_attribute_resolves(module_name, attr, span):
    module = importlib.import_module(f"triphase.{module_name}")
    assert callable(getattr(module, attr, None)), f"triphase.{module_name}.{attr} is gone"
