"""Every name the benchmark's tracer wraps resolves in the package.

Some imports are kept only because the tracer wraps a function where its
callers look it up (``genlogic.data.enumerate_worlds``,
``genlogic.engine.evaluate``, ``genlogic.mnist.posterior_data``); this test
fails when one of them is dropped, instead of a traced run.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, *_ in layers.WRAPS],
                         ids=[f"{m}.{a}" for m, a, *_ in layers.WRAPS])
def test_wrapped_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
