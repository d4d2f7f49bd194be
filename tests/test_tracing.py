"""The benchmark's trace hooks name attributes that exist.

``perfbench/tracing.py`` patches functions at the name their caller looks up;
a refactor that drops such an import would otherwise break only the traced
benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, attr, span", load_tracing().PATCHES)
def test_patch_target_resolves(module, attr, span):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), f"{module}.{attr} ({span})"
